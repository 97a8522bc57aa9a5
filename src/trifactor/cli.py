"""Command line interface.

Subcommands: gen, solve, verify, sweep, conjecture, roundtrip.
Exit codes: 0 success, 2 verification failure, 3 parse error, 4 any other
library error (a parameter out of range among them) or a file that cannot
be read or written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import Config, load_config
from .cover import solve
from .errors import ParseError, TrifactorError
from .families import (
    approx_blow_up,
    blow_up,
    complete_tripartite,
    gen_gamma,
    gen_random_min_degree,
    gen_theta,
)
from .graph import verify_cover
from .harness import SweepSpec, check_conjecture, render_conjecture_report, run_sweep
from . import io as tio

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_PARSE = 3
EXIT_ERROR = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trifactor",
                                description="Triangle factors of balanced tripartite graphs.")
    p.add_argument("--config", help="key=value config file for solver knobs")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance")
    g.add_argument("--family", required=True,
                   choices=["theta3x2", "theta3x3", "gamma3", "complete", "random"])
    g.add_argument("--t", type=int, default=1, help="blow-up factor")
    g.add_argument("--eps", type=float, default=0.0, help="cluster size slack")
    g.add_argument("--delta", type=float, default=0.0, help="non-edge noise density")
    g.add_argument("--n", type=int, default=0, help="class size (complete/random)")
    g.add_argument("--min-deg-frac", type=float, default=2 / 3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="find a perfect cover or a witness")
    s.add_argument("--input", required=True)
    s.add_argument("--mode", choices=["auto", "exact", "constructive"], default="auto")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget", type=int, default=None)
    s.add_argument("--out", help="write the cover JSON here")
    s.add_argument("--witness", help="write a witness JSON here")

    v = sub.add_parser("verify", help="check a cover against a graph")
    v.add_argument("--input", required=True)
    v.add_argument("--cover", required=True)
    v.add_argument("--perfect", action="store_true")

    w = sub.add_parser("sweep", help="threshold sweep over random instances")
    w.add_argument("--n", type=int, nargs="+", required=True)
    w.add_argument("--fractions", type=float, nargs="+", required=True)
    w.add_argument("--trials", type=int, default=10)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--mode", choices=["auto", "exact", "constructive"], default="auto")
    w.add_argument("--timings", action="store_true")
    w.add_argument("--out", required=True)

    c = sub.add_parser("conjecture", help="scan small bases for blow-up counterexamples")
    c.add_argument("--max-base-n", type=int, default=2)
    c.add_argument("--t", type=int, nargs="+", default=[1, 2])
    c.add_argument("--budget", type=int, default=None)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)

    r = sub.add_parser("roundtrip", help="parse and re-serialize a graph")
    r.add_argument("--input", required=True)
    r.add_argument("--out")
    return p


def _config_from(args) -> Config:
    cfg = Config()
    if args.config:
        cfg = load_config(args.config, cfg)
    seed = getattr(args, "seed", None)
    if seed is not None:
        cfg = cfg.with_seed(seed)
    return cfg


def _cmd_gen(args, cfg: Config) -> int:
    fam = args.family
    if fam == "complete":
        if args.n <= 0:
            raise TrifactorError("--n required for the complete family")
        g = complete_tripartite(args.n)
    elif fam == "random":
        if args.n <= 0:
            raise TrifactorError("--n required for the random family")
        g = gen_random_min_degree(args.n, args.min_deg_frac, args.seed)
    else:
        base = {"theta3x2": lambda: gen_theta(3, 2),
                "theta3x3": lambda: gen_theta(3, 3),
                "gamma3": lambda: gen_gamma(3)}[fam]()
        if args.eps or args.delta:
            g = approx_blow_up(base, args.t, args.eps, args.delta, args.seed).graph
        else:
            g = blow_up(base, args.t)
    tio.save_graph(args.out, g)
    print(f"wrote {args.out}: N={g.n}")
    return EXIT_OK


def _cmd_solve(args, cfg: Config) -> int:
    g = tio.load_graph(args.input)
    out = solve(g, cfg, mode=args.mode, budget=args.budget)
    print(f"outcome: {out.kind}"
          + (f" ({out.source})" if out.source else "")
          + (f" [{out.reason}]" if out.reason else ""))
    if out.cover is not None:
        verdict = verify_cover(g, out.cover, require_perfect=True)
        if not verdict.ok:
            print(f"cover failed verification: {verdict.reason}", file=sys.stderr)
            return EXIT_VERIFY
        print(f"cover: {out.cover.size} triangles (verified)")
        if args.out:
            tio.save_cover(args.out, out.cover)
            print(f"wrote {args.out}")
    if args.witness:
        if out.structure is not None:
            with open(args.witness, "w", encoding="ascii") as fh:
                fh.write(tio.structure_witness_json(out.structure))
            print(f"wrote {args.witness}")
        elif out.witness is not None:
            with open(args.witness, "w", encoding="ascii") as fh:
                fh.write(tio.extreme_witness_json(out.witness))
            print(f"wrote {args.witness}")
    return EXIT_OK


def _cmd_verify(args, cfg: Config) -> int:
    g = tio.load_graph(args.input)
    cover = tio.load_cover(args.cover, g.n)
    verdict = verify_cover(g, cover, require_perfect=args.perfect)
    if verdict.ok:
        print(f"accepted: {cover.size} triangles")
        return EXIT_OK
    print(f"rejected: {verdict.reason}"
          + (f" at {tuple(verdict.offender)}" if verdict.offender else ""))
    return EXIT_VERIFY


def _cmd_sweep(args, cfg: Config) -> int:
    spec = SweepSpec(args.n, args.fractions, args.trials, args.seed, args.mode)
    _, csv_text = run_sweep(spec, cfg, include_timing=args.timings)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(csv_text)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_conjecture(args, cfg: Config) -> int:
    report = check_conjecture(args.max_base_n, args.t, budget=args.budget,
                              seed=args.seed)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(render_conjecture_report(report))
    outdir = os.path.dirname(os.path.abspath(args.out))
    for k, (_, row, texts) in enumerate(report.counterexamples):
        for tag, text in texts.items():
            path = os.path.join(outdir, f"counterexample{k}_{tag}.tri3")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
            print(f"wrote {path}")
    print(f"wrote {args.out}: {len(report.rows)} rows, "
          f"{len(report.counterexamples)} counterexamples, "
          f"{report.indeterminate_count} indeterminate")
    return EXIT_OK


def _cmd_roundtrip(args, cfg: Config) -> int:
    g = tio.load_graph(args.input)
    text = tio.serialize_graph(g)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "conjecture": _cmd_conjecture,
    "roundtrip": _cmd_roundtrip,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        return _COMMANDS[args.command](args, cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (TrifactorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
