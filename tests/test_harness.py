"""Harness: sweeps, conjecture scan, file round-trips."""

import pytest

from trifactor.errors import ParseError
from trifactor.exact import NO_FACTOR, exact_factor
from trifactor.families import complete_tripartite, gamma3, gen_random_min_degree
from trifactor.harness import (
    SweepSpec,
    check_conjecture,
    render_conjecture_report,
    run_sweep,
)
from trifactor.io import (
    MAX_N,
    parse_cover,
    parse_graph,
    serialize_cover,
    serialize_graph,
)
from trifactor.graph import Triangle, TriangleCover


# -- io ------------------------------------------------------------------------


def test_graph_roundtrip_k222():
    g = complete_tripartite(2)
    assert parse_graph(serialize_graph(g)) == g


def test_graph_roundtrip_gamma3_canonical():
    g = gamma3(2)
    text = serialize_graph(g)
    assert serialize_graph(parse_graph(text)) == text  # byte-identical


def test_parse_rejects_bad_class():
    with pytest.raises(ParseError) as exc:
        parse_graph("tri3 2\ne 0 0 3 1\n")
    assert exc.value.line == 2


def test_parse_rejects_class_order():
    with pytest.raises(ParseError):
        parse_graph("tri3 2\ne 1 0 0 1\n")


def test_parse_rejects_bad_header():
    with pytest.raises(ParseError):
        parse_graph("tri 2\n")
    with pytest.raises(ParseError):
        parse_graph("")


def test_parse_comments_and_index_ranges():
    g = parse_graph("# comment\ntri3 2\n# another\ne 0 0 1 1\n")
    assert g.has_edge((0, 0), (1, 1))
    with pytest.raises(ParseError):
        parse_graph("tri3 2\ne 0 0 1 2\n")


@pytest.mark.parametrize("token", ["1_0", "+5", "-2", "0x3", "\u0663", "9" * 5000])
def test_parse_header_n_is_ascii_digits(token):
    # int() would read "1_0" as 10, "+5" as 5 and an Arabic-Indic 3 as 3
    with pytest.raises(ParseError, match="bad N") as exc:
        parse_graph(f"# comment\ntri3 {token}\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("field", ["1_0", "+1", "-0", "\u0661", "1.0"])
def test_parse_edge_fields_are_ascii_digits(field):
    with pytest.raises(ParseError, match="non-integer edge field") as exc:
        parse_graph(f"tri3 12\ne 0 0 1 1\ne 0 {field} 1 1\n")
    assert exc.value.line == 3
    assert parse_graph("tri3 12\ne 0 10 1 01\n").has_edge((0, 10), (1, 1))


def test_parse_rejects_header_above_max_n():
    # the graph allocates its adjacency rows from the header alone
    with pytest.raises(ParseError, match="exceeds the limit") as exc:
        parse_graph(f"tri3 {MAX_N + 1}\n")
    assert exc.value.line == 1
    assert parse_graph(f"tri3 {MAX_N}\n").n == MAX_N


def test_cover_roundtrip():
    c = TriangleCover([Triangle(0, 1, 2), Triangle(1, 2, 0)])
    assert parse_cover(serialize_cover(c)).triangles == c.triangles
    with pytest.raises(ParseError):
        parse_cover("[[0,1]]")
    with pytest.raises(ParseError):
        parse_cover("{}")


@pytest.mark.parametrize("text", ["[[true, 0, 0]]", "[[0, false, 1]]", "[[1, 0, true]]"])
def test_parse_cover_rejects_booleans(text):
    with pytest.raises(ParseError, match="not an index triple"):
        parse_cover(text)


def test_parse_cover_rejects_negative_index():
    with pytest.raises(ParseError, match="entry 1 has a negative index"):
        parse_cover("[[0, 0, 0], [1, -1, 1]]")


def test_parse_cover_bounds_indices_before_building_masks():
    # 1 << 10**12 would need about 125 GB
    with pytest.raises(ParseError, match="entry 0 has an index out of range"):
        parse_cover("[[1000000000000, 0, 0]]", n=3)
    with pytest.raises(ParseError, match="entry 1 has an index out of range"):
        parse_cover("[[0, 0, 0], [1, 3, 1]]", n=3)
    assert parse_cover("[[0, 1, 2], [2, 0, 1]]", n=3).size == 2


# -- sweep -----------------------------------------------------------------------


def test_sweep_deterministic_csv():
    spec = SweepSpec([6], [0.7, 1.0], trials=3, seed_base=5)
    _, csv1 = run_sweep(spec)
    _, csv2 = run_sweep(spec)
    assert csv1 == csv2


def test_sweep_complete_fraction_all_cover():
    spec = SweepSpec([9], [1.0], trials=5)
    records, _ = run_sweep(spec)
    assert len(records) == 5
    assert all(r.outcome == "cover" and r.cover_size == 9 for r in records)


def test_sweep_nofactor_rows_oracle_confirmed():
    # low fractions produce some nofactor rows at small n
    spec = SweepSpec([3, 4], [0.0, 0.34], trials=6, seed_base=1)
    records, _ = run_sweep(spec)
    saw = 0
    for r in records:
        if r.outcome == "nofactor":
            saw += 1
            assert r.oracle_confirmed
            g = gen_random_min_degree(r.n, r.fraction, r.seed)
            assert exact_factor(g).status == NO_FACTOR
    assert saw > 0


def test_sweep_rows_sorted():
    spec = SweepSpec([9, 6], [0.9, 0.5], trials=2)
    records, _ = run_sweep(spec)
    keys = [(r.n, r.fraction, r.seed) for r in records]
    assert keys == sorted(keys)


def test_sweep_empty_cells_header_only():
    spec = SweepSpec([], [], trials=1)
    records, csv_text = run_sweep(spec)
    assert records == []
    assert csv_text.strip().endswith("oracle_confirmed")


def test_sweep_validates_spec():
    with pytest.raises(ValueError):
        SweepSpec([6], [0.5], trials=0)
    with pytest.raises(ValueError):
        SweepSpec([6], [1.5], trials=1)


# -- conjecture --------------------------------------------------------------------


def test_conjecture_k111_consistent():
    report = check_conjecture(1, [1])
    assert report.counterexamples == []
    assert report.indeterminate_count == 0
    # the complete base K_{1,1,1} satisfies the hypothesis and is covered
    good = [r for r in report.rows if r.base_covered and r.hypothesis_met]
    assert good


def test_conjecture_gamma3_hypothesis_fails():
    # gamma3(2) coverable but gamma3(3) not: the base never satisfies the
    # hypothesis at t = 2, so it contributes no counterexample row
    from trifactor.families import blow_up

    g = gamma3(1)
    assert exact_factor(blow_up(g, 2)).status != NO_FACTOR
    assert exact_factor(blow_up(g, 3)).status == NO_FACTOR
    report = check_conjecture(1, [2])
    for row in report.rows:
        assert not row.counterexample


def test_conjecture_report_render():
    report = check_conjecture(1, [1])
    text = render_conjecture_report(report)
    assert "counterexamples: 0" in text
    assert "indeterminate rows: 0" in text


def test_conjecture_budget_marks_indeterminate():
    # at base size 1 the oracle decides every blow-up in one node
    report = check_conjecture(1, [2], budget=0)
    assert report.indeterminate_count > 0
    assert report.counterexamples == []
