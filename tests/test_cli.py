"""CLI: subcommands, exit codes, file outputs."""

import json

import pytest

from trifactor.cli import main
from trifactor.io import MAX_N, load_cover, load_graph


def run(args):
    return main([str(a) for a in args])


def test_gen_solve_verify_pipeline(tmp_path):
    gpath = tmp_path / "g.tri3"
    cpath = tmp_path / "c.json"
    assert run(["gen", "--family", "gamma3", "--t", "2", "--out", gpath]) == 0
    assert run(["solve", "--input", gpath, "--out", cpath]) == 0
    assert run(["verify", "--input", gpath, "--cover", cpath, "--perfect"]) == 0
    cover = load_cover(cpath)
    assert cover.size == 6


def test_solve_nofactor_writes_no_witness(tmp_path, capsys):
    # gamma3(3) is within the oracle's range: its NoFactor is confirmed by
    # the oracle and carries no extreme witness, so none is written
    gpath = tmp_path / "g.tri3"
    wpath = tmp_path / "w.json"
    assert run(["gen", "--family", "gamma3", "--t", "3", "--out", gpath]) == 0
    capsys.readouterr()
    assert run(["solve", "--input", gpath, "--witness", wpath]) == 0
    assert "outcome: nofactor (exact-oracle)" in capsys.readouterr().out
    assert not wpath.exists()


def test_verify_rejects_wrong_cover(tmp_path):
    gpath = tmp_path / "g.tri3"
    cpath = tmp_path / "c.json"
    assert run(["gen", "--family", "theta3x2", "--t", "2", "--out", gpath]) == 0
    cpath.write_text("[[0,0,0]]\n")
    assert run(["verify", "--input", gpath, "--cover", cpath]) == 2


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.tri3"
    bad.write_text("tri3 2\ne 0 0 9 9\n")
    assert run(["solve", "--input", bad]) == 3


def test_oversized_header_exit_code(tmp_path, capsys):
    big = tmp_path / "big.tri3"
    big.write_text(f"tri3 {MAX_N + 1}\n")
    assert run(["solve", "--input", big]) == 3
    assert "parse error: line 1:" in capsys.readouterr().err


def test_roundtrip_canonical(tmp_path):
    gpath = tmp_path / "g.tri3"
    out = tmp_path / "g2.tri3"
    assert run(["gen", "--family", "gamma3", "--t", "2", "--out", gpath]) == 0
    assert run(["roundtrip", "--input", gpath, "--out", out]) == 0
    assert gpath.read_text() == out.read_text()


def test_gen_random_and_complete(tmp_path):
    rpath = tmp_path / "r.tri3"
    assert run(["gen", "--family", "random", "--n", "9", "--min-deg-frac", "0.7",
                "--seed", "4", "--out", rpath]) == 0
    g = load_graph(rpath)
    assert g.n == 9 and g.min_cross_degree() >= 7  # ceil(0.7*9) = 7
    kpath = tmp_path / "k.tri3"
    assert run(["gen", "--family", "complete", "--n", "3", "--out", kpath]) == 0
    assert load_graph(kpath).min_cross_degree() == 3


def test_gen_approx_blowup(tmp_path):
    path = tmp_path / "a.tri3"
    assert run(["gen", "--family", "theta3x3", "--t", "4", "--eps", "0.25",
                "--delta", "0.02", "--seed", "1", "--out", path]) == 0
    g = load_graph(path)
    assert g.n >= 9


def test_sweep_and_conjecture_outputs(tmp_path):
    spath = tmp_path / "s.csv"
    assert run(["sweep", "--n", "6", "--fractions", "0.8", "--trials", "2",
                "--out", spath]) == 0
    lines = spath.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 4
    cpath = tmp_path / "conj.csv"
    assert run(["conjecture", "--max-base-n", "1", "--t", "1", "--out", cpath]) == 0
    assert "counterexamples: 0" in cpath.read_text()


def test_config_file_overrides(tmp_path):
    cfgfile = tmp_path / "knobs.cfg"
    cfgfile.write_text("delta0 = 0.04\nexact_limit = 9\n# comment\n")
    gpath = tmp_path / "g.tri3"
    assert run(["gen", "--family", "gamma3", "--t", "1", "--out", gpath]) == 0
    assert run(["--config", cfgfile, "solve", "--input", gpath]) == 0
    from trifactor.config import Config, load_config
    cfg = load_config(cfgfile)
    assert cfg.delta0 == 0.04 and cfg.exact_limit == 9
    assert cfg.theta == Config().theta


def test_solve_exact_mode(tmp_path):
    gpath = tmp_path / "g.tri3"
    assert run(["gen", "--family", "gamma3", "--t", "1", "--out", gpath]) == 0
    assert run(["solve", "--input", gpath, "--mode", "exact"]) == 0


def blocked_theta_pads_text():
    """Imbalanced padded-columns instance whose max cover leaves six
    uncovered per class: solve surfaces a certified extreme witness."""
    from trifactor.graph import build_graph
    from trifactor.io import serialize_graph

    q, p = 6, 3
    n = 2 * q + p
    edges = []
    for a in range(3):
        for b in range(a + 1, 3):
            for i in range(q):
                for j in range(q):
                    edges.append(((a, i), (b, q + j)))
                    edges.append(((a, q + i), (b, j)))
            for i in range(p):
                for j in range(2 * q):
                    edges.append(((a, 2 * q + i), (b, j)))
                    edges.append(((a, j), (b, 2 * q + i)))
    return serialize_graph(build_graph(n, edges))


def test_solve_extreme_witness_file(tmp_path):
    gpath = tmp_path / "g.tri3"
    gpath.write_text(blocked_theta_pads_text())
    cfgfile = tmp_path / "knobs.cfg"
    cfgfile.write_text("eps_prime = 0.08\n")
    wpath = tmp_path / "w.json"
    assert run(["--config", cfgfile, "solve", "--input", gpath,
                "--witness", wpath]) == 0
    assert wpath.exists()
    data = json.loads(wpath.read_text())
    assert "sets" in data or "assignment" in data


def test_verify_out_of_range_index_is_parse_error(tmp_path):
    gpath = tmp_path / "g.tri3"
    cpath = tmp_path / "c.json"
    assert run(["gen", "--family", "gamma3", "--t", "1", "--out", gpath]) == 0
    cpath.write_text("[[400000000, 0, 0]]\n")
    assert run(["verify", "--input", gpath, "--cover", cpath]) == 3


@pytest.mark.parametrize("text", [
    "seed=abc\n",
    "delta0=2\n",
    "exact_limit=-1\n",
    "# knobs\ntheta 0.8\n",
    "colour = blue\n",
])
def test_malformed_config_is_parse_error(tmp_path, capsys, text):
    cfgfile = tmp_path / "knobs.cfg"
    cfgfile.write_text(text)
    gpath = tmp_path / "g.tri3"
    assert run(["gen", "--family", "gamma3", "--t", "1", "--out", gpath]) == 0
    assert run(["--config", cfgfile, "solve", "--input", gpath]) == 3
    line = text.count("\n")
    assert f"parse error: line {line}:" in capsys.readouterr().err


def test_other_library_error_exit_code(tmp_path):
    gpath = tmp_path / "g.tri3"
    assert run(["gen", "--family", "complete", "--out", gpath]) == 4


@pytest.mark.parametrize("args", [
    ["gen", "--family", "theta3x2", "--t", "0"],
    ["gen", "--family", "random", "--n", "5", "--min-deg-frac", "1.5"],
    ["gen", "--family", "gamma3", "--t", "2", "--delta", "2"],
    ["gen", "--family", "gamma3", "--t", "2", "--eps", "-0.5"],
    ["gen", "--family", "gamma3", "--t", "2", "--delta", "-0.1"],
    ["sweep", "--n", "6", "--fractions", "1.5"],
    ["sweep", "--n", "0", "--fractions", "0.5", "--trials", "1"],
    ["sweep", "--n", "-2", "--fractions", "0.5", "--trials", "1"],
], ids=["blow-up-t", "min-deg-frac", "noise-delta", "negative-eps", "negative-delta",
        "sweep-fraction", "sweep-n-zero", "sweep-n-negative"])
def test_bad_argument_value_is_library_error(tmp_path, capsys, args):
    assert run([*args, "--out", tmp_path / "out"]) == 4
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["tri3 1_0\n", "tri3 +3\n", "tri3 3\ne 0 0 1 +1\n"])
def test_non_digit_tri3_integer_exit_code(tmp_path, capsys, text):
    gpath = tmp_path / "g.tri3"
    gpath.write_text(text)
    assert run(["solve", "--input", gpath]) == 3
    assert "parse error: line " in capsys.readouterr().err


def test_missing_input_file_exit_code(tmp_path, capsys):
    assert run(["solve", "--input", tmp_path / "missing.tri3"]) == 4
    assert "error: " in capsys.readouterr().err


def test_missing_cover_file_exit_code(tmp_path, capsys):
    gpath = tmp_path / "g.tri3"
    assert run(["gen", "--family", "gamma3", "--t", "2", "--out", gpath]) == 0
    assert run(["verify", "--input", gpath, "--cover", tmp_path / "missing.json"]) == 4
    assert "error: " in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path, capsys):
    gpath = tmp_path / "g.tri3"
    assert run(["gen", "--family", "gamma3", "--t", "2", "--out", gpath]) == 0
    assert run(["--config", tmp_path / "missing.cfg", "solve", "--input", gpath]) == 4
    assert "error: " in capsys.readouterr().err
