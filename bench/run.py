#!/usr/bin/env python3
"""Time-to-verdict benchmark for trifactor.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The measured operation brings one instance to a verdict: `solve(g,
Config(seed=s))`, and when that is Indeterminate, `exact_factor(g,
budget=B)`, which is what a user must run next.  A verdict is a verified
cover, NoFactor, or an extreme witness.

A run builds the workload's instances from the seed (several times, to
time set-up), makes one untimed reference pass whose outputs are checked,
then repeats passes over the same instances for --seconds.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
traced and untraced passes and reports the per-layer metrics of the
traced ones.  The last stdout line is one JSON object; the full report
goes to .bench_out/.  Exit status 1 means an output check failed or an
outcome changed between passes.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_SAMPLES = 100       # the 90th percentile needs at least 10 samples beyond it
MIN_TRACED_PASSES = 2

END_TO_END_UNITS = {"verdict_p50_ms": "ms", "verdict_p90_ms": "ms", "verdicts_per_s": "1/s",
                    "decision_rate": "ratio", "verdict_share": "ratio", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def run_context() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "timing": "wall clock (time.perf_counter) in one process and thread, on a "
                      "shared machine with no CPU isolation"}


def per_layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


class Bench:
    def __init__(self, args):
        import tracer
        from trifactor import cover, exact, graph, io
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        self.args = args
        self.cover, self.exact, self.graph, self.io, self.tr = cover, exact, graph, io, tracer
        self.workload = WORKLOADS[args.workload]
        self.budget = self.workload.budget
        self.tracer = tracer.Tracer() if args.trace else None

    # -- the measured operation ----------------------------------------------

    def verdict(self, inst):
        """solve(), then the oracle when solve() is Indeterminate.  Module
        attributes are looked up per call so that the traced run sees its
        wrappers."""
        out = self.cover.solve(inst.graph, inst.config)
        res = None
        if out.kind == "indeterminate":
            res = self.exact.exact_factor(inst.graph, budget=self.budget)
        return out, res

    @staticmethod
    def outcome_key(result):
        if isinstance(result, Exception):
            return ("raised", type(result).__name__, str(result))
        out, res = result
        key = (out.kind, out.source, out.reason,
               out.cover.triangles if out.cover is not None else None,
               out.witness.sets if out.witness is not None else None)
        if res is not None:
            key += (res.status, res.cover.triangles if res.cover is not None else None)
        return key

    def run_pass(self, instances, fn, traced=False):
        """One pass over the instances: (seconds per instance, results)."""
        gc.collect()
        times, results = [], []
        for idx, inst in enumerate(instances):
            if traced:
                self.tracer.instance = idx
            start = perf_counter()
            try:
                result = fn(inst)
            except Exception as exc:            # counted as a failed instance
                result = exc
            times.append(perf_counter() - start)
            results.append(result)
        return times, results

    # -- output checks, outside every timed region ---------------------------

    def check(self, inst, result) -> str:
        """'ok', 'no-verdict', 'unchecked' (the oracle ran out of budget), or
        a description starting with 'mismatch'."""
        if isinstance(result, Exception):
            return f"mismatch: raised {type(result).__name__}: {result}"
        out, res = result
        g = inst.graph
        if out.kind == "extreme":
            w = out.witness
            if (any(len(s) != g.n // 3 for s in w.sets)
                    or max(w.recheck(g)) >= inst.config.delta0_frac):
                return "mismatch: extreme witness does not recheck"
            return "ok"
        if out.kind == "indeterminate":
            if res.status == self.exact.BUDGET:
                return "no-verdict"
            claim, cover = res.status == self.exact.COVER, res.cover
        elif out.kind in ("cover", "nofactor"):
            claim, cover = out.kind == "cover", out.cover
        else:
            return f"mismatch: unknown outcome kind {out.kind!r}"
        if claim:
            v = self.graph.verify_cover(g, cover, require_perfect=True)
            if not v.ok:
                return f"mismatch: cover fails verify_cover ({v.reason})"
        expected, source = inst.known, "the known answer"
        if expected is None:
            if res is not None:
                return "ok"                     # the verdict is the oracle's own
            ref = self.exact.exact_factor(g, budget=self.budget)
            if ref.status == self.exact.BUDGET:
                return "unchecked"
            expected, source = ref.status == self.exact.COVER, "the oracle"
        if claim != expected:
            return f"mismatch: verdict has_factor={claim} but {source} says {expected}"
        return "ok"

    # -- the run ---------------------------------------------------------------

    def setup(self):
        """Build the instances SETUP_REPEATS times; every build must agree.
        Returns the instances, the build times and, when tracing, the
        generator times of each build."""
        tracer = self.tracer
        times, instances, layers = [], None, []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            if tracer is not None:
                mark = len(tracer.spans)
                tracer.install()
            start = perf_counter()
            try:
                built = self.workload.build(self.args.seed)
            finally:
                times.append(perf_counter() - start)
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                layers.append(self.tr.setup_metrics(tracer.spans[mark:]))
            if instances is None:
                instances = built
            elif [i.graph for i in built] != [i.graph for i in instances]:
                sys.exit("set-up is not deterministic: two builds from one seed differ")
        return instances, times, layers

    def digest(self, instances) -> str:
        h = hashlib.sha256()
        for inst in instances:
            h.update(f"{inst.label}\n{inst.config.seed}\n".encode())
            h.update(self.io.serialize_graph(inst.graph).encode())
        return h.hexdigest()

    def timed_passes(self, instances, ref_keys, problems):
        """Passes until --seconds have elapsed: untraced ones only, or traced
        and untraced in turn.  Every pass must repeat the reference outcomes."""
        tracer = self.tracer
        passes = {"untraced": [], "traced": []}
        traced_layers = []
        min_untraced = 1 if tracer else max(2, -(-MIN_SAMPLES // len(instances)))
        min_traced = MIN_TRACED_PASSES if tracer else 0
        traced_fn = tracer.wrap("bench.verdict", self.verdict) if tracer else None
        deadline = perf_counter() + self.args.seconds
        while (perf_counter() < deadline or len(passes["untraced"]) < min_untraced
               or len(passes["traced"]) < min_traced):
            if tracer is not None and len(passes["traced"]) <= len(passes["untraced"]):
                mark = len(tracer.spans)
                tracer.install()
                try:
                    times, results = self.run_pass(instances, traced_fn, traced=True)
                finally:
                    tracer.uninstall()
                traced_layers.append(self.tr.pass_metrics(tracer.spans[mark:]))
                label = "traced"
            else:
                times, results = self.run_pass(instances, self.verdict)
                label = "untraced"
            passes[label].append(times)
            for inst, result, key in zip(instances, results, ref_keys):
                if self.outcome_key(result) != key:
                    problems.append(f"{inst.label}: the {label} pass changed the outcome")
        return passes, traced_layers

    def main(self) -> int:
        args = self.args
        instances, setup_times, setup_layers = self.setup()
        n = len(instances)
        digest = self.digest(instances)

        _, ref_results = self.run_pass(instances, self.verdict)
        ref_keys = [self.outcome_key(r) for r in ref_results]
        problems, statuses = [], []
        for inst, result in zip(instances, ref_results):
            status = self.check(inst, result)
            statuses.append(status)
            if status.startswith("mismatch"):
                problems.append(f"{inst.label}: {status}")
        failed = sum(s.startswith("mismatch") or s == "no-verdict" for s in statuses)
        decided = sum(not isinstance(r, Exception) and r[0].kind != "indeterminate"
                      for r in ref_results)
        verdicts = n - failed
        tracebacks = {inst.label: "".join(traceback.format_exception(r))
                      for inst, r in zip(instances, ref_results) if isinstance(r, Exception)}

        # Instances and reference outcomes live for the whole run: keep the
        # collector from traversing them in every timed pass.
        gc.freeze()
        passes, traced_layers = self.timed_passes(instances, ref_keys, problems)

        report = {
            "workload": self.workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "context": run_context(), "oracle_budget": self.budget,
            "instances": n, "instance_digest": digest,
            "outcome_digest": hashlib.sha256(repr(ref_keys).encode()).hexdigest(),
            "setup_times_s": setup_times,
            "decision_rate_base": {"decided": decided, "solve_calls": n},
            "failed": failed, "failed_share": failed / n,
            "unchecked": statuses.count("unchecked"),
            "outcomes": histogram(ref_results),
            "problems": problems[:20],
            "tracebacks": dict(list(tracebacks.items())[:3]),
        }
        if self.tracer is None:
            untraced = passes["untraced"]
            samples = sorted(t for times in untraced for t in times)
            report.update(pass_seconds=[sum(t) for t in untraced], samples=len(samples),
                          samples_beyond_p90=len(samples) - int(0.9 * len(samples)),
                          instance_ms={inst.label: statistics.median(t) * 1e3
                                       for inst, *t in zip(instances, *untraced)})
            metrics = {
                "verdict_p50_ms": statistics.median(samples) * 1e3,
                "verdict_p90_ms": statistics.quantiles(samples, n=10)[8] * 1e3,
                "verdicts_per_s": statistics.median(verdicts / sum(t) for t in untraced),
                "decision_rate": decided / n,
                "verdict_share": verdicts / n,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
        else:
            metrics = self.per_layer(setup_layers, traced_layers, problems)
            units = {k: per_layer_unit(k) for k in metrics}
            u = statistics.median(sum(t) for t in passes["untraced"])
            t = statistics.median(sum(t) for t in passes["traced"])
            report["trace_overhead"] = {
                "untraced_pass_s": u, "traced_pass_s": t, "share": t / u - 1,
                "passes": {k: len(v) for k, v in passes.items()}}
            report["layer_times"] = {
                name: {"calls": c, "inclusive_s": inc, "self_s": own}
                for name, (c, inc, own) in sorted(self.tr.self_times(self.tracer.spans).items())}
        report["metrics"] = metrics
        self.write(report)

        correct = not problems
        print(f"# trifactor time-to-verdict benchmark: {self.workload.name} "
              f"seed={args.seed} trace={args.trace}")
        print(f"# {report['context']}")
        print(f"# instances={n} decided={decided} failed={failed} "
              f"instance_digest={digest[:16]} oracle_budget={self.budget}")
        for problem in problems[:20]:
            print(f"# PROBLEM {problem}")
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
        print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                          "metrics": {k: {"value": v, "unit": units[k]}
                                      for k, v in metrics.items()}}))
        return 0 if correct else 1

    def per_layer(self, setup_layers, traced_layers, problems) -> dict:
        """Timings are medians over the traced passes (set-up timings over the
        builds); counts come from the first traced pass and must repeat."""
        metrics = {k: statistics.median(s[k] for s in setup_layers) for k in setup_layers[0]}
        first = traced_layers[0]
        for k, v in first.items():
            if self.tr.is_timing(k):
                metrics[k] = statistics.median(p[k] for p in traced_layers)
                continue
            metrics[k] = v
            if any(p[k] != v for p in traced_layers[1:]):
                problems.append(f"count {k} differs between traced passes")
        return metrics

    def write(self, report) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
        if self.tracer is not None:
            with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="ascii") as fh:
                for s in self.tracer.spans:
                    fh.write(json.dumps(s._asdict()) + "\n")


def histogram(results) -> dict:
    hist: dict = {}
    for r in results:
        if isinstance(r, Exception):
            key = f"raised:{type(r).__name__}"
        else:
            out, res = r
            key = f"{out.kind}:{out.source or out.reason}"
            if res is not None:
                key += f"->oracle:{res.status}"
        hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items()))


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "trifactor" / "__init__.py").is_file():
        print(f"bench: no trifactor package under {src}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    return Bench(args).main()


if __name__ == "__main__":
    sys.exit(main())
