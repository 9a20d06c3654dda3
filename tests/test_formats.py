from fractions import Fraction

import pytest

from homred.csp import CspInstance, WeightedCspInstance
from homred.errors import FormatError
from homred.formats import (
    format_csp,
    format_graph,
    format_hypergraph,
    format_weights,
    parse_code,
    parse_csp,
    parse_graph,
    parse_hypergraph,
    parse_weights,
)
from homred.graphs import Graph, Hypergraph
from homred.homcount import WeightTable


def test_graph_round_trip():
    g = Graph(5, [(0, 3), (1, 2), (3, 4)])
    assert parse_graph(format_graph(g)) == g
    assert parse_graph("graph 1 0\n").n == 1
    # comments and blank lines are skipped anywhere
    text = "# hello\n\ngraph 3 2\n# inner\ne 0 1\n\ne 1 2\n"
    assert parse_graph(text).edges == ((0, 1), (1, 2))


def test_graph_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as exc:
        parse_graph("graph 2 1\nedge 0 1\n")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)
    with pytest.raises(FormatError):
        parse_graph("")
    with pytest.raises(FormatError):
        parse_graph("graph 2 2\ne 0 1\n")  # too few edge lines
    with pytest.raises(FormatError) as exc:
        parse_graph("graph 2 1\ne 0 1\ne 0 1\n")  # trailing junk
    assert exc.value.line == 3
    with pytest.raises(FormatError):
        parse_graph("hypergraph 2 1\nh 2 0 1\n")  # wrong header keyword
    with pytest.raises(FormatError) as exc:
        parse_graph("graph 2 1\ne 0 5\n")
    assert "out of range" in str(exc.value) and exc.value.line == 2


def test_headers_above_the_vertex_bound():
    with pytest.raises(FormatError, match="header announces 1000000000 vertices"):
        parse_graph("graph 1000000000 0\n")
    with pytest.raises(FormatError, match="header announces 1000001 vertices"):
        parse_hypergraph("# comment\nhypergraph 1000001 0\n")
    assert parse_hypergraph("hypergraph 1000000 0\n").n == 10**6


def test_hypergraph_round_trip():
    hg = Hypergraph(4, [(0, 1, 2), (0, 1, 2), (2, 3)])
    assert parse_hypergraph(format_hypergraph(hg)) == hg
    with pytest.raises(FormatError):
        parse_hypergraph("hypergraph 3 1\nh 2 0\n")  # arity mismatch
    with pytest.raises(FormatError):
        parse_hypergraph("hypergraph 3 1\nh 0\n")  # empty hyperedge


def test_weights_round_trip_and_defaults():
    wt = WeightTable(3, 2, {0: (Fraction(1, 2), Fraction(3)), 2: (Fraction(0), Fraction(1))})
    text = format_weights(wt)
    back = parse_weights(text)
    assert back.n == 3 and back.h == 2
    assert back.row(0) == (Fraction(1, 2), Fraction(3))
    assert back.row(1) == (Fraction(1), Fraction(1))  # filled in as ones
    assert back.row(2) == (Fraction(0), Fraction(1))
    # a subset of rows is fine on input
    sparse = parse_weights("weights 4 2\nw 2 5 7\n")
    assert sparse.row(2) == (Fraction(5), Fraction(7))
    assert sparse.row(0) == (Fraction(1), Fraction(1))


def test_weights_reject_bad_rationals():
    with pytest.raises(FormatError):
        parse_weights("weights 1 2\nw 0 -1 2\n")
    with pytest.raises(FormatError):
        parse_weights("weights 1 2\nw 0 1/0 2\n")
    with pytest.raises(FormatError):
        parse_weights("weights 1 2\nw 0 x 2\n")
    with pytest.raises(FormatError):
        parse_weights("weights 1 2\nw 1 1 1\n")  # vertex out of range


def test_rationals_print_in_lowest_terms():
    wt = WeightTable(1, 2, {0: (Fraction(2, 4), Fraction(6, 3))})
    assert "w 0 1/2 2" in format_weights(wt)


def test_csp_round_trip_plain_and_weighted():
    plain = CspInstance(3, imps=((0, 1), (2, 0)), pins0=(1,), pins1=())
    back = parse_csp(format_csp(plain))
    assert isinstance(back, CspInstance) and not isinstance(back, WeightedCspInstance)
    assert back == plain

    weighted = WeightedCspInstance(
        2, imps=((0, 1),), weights=((Fraction(5), Fraction(2)), (Fraction(1), Fraction(1)))
    )
    back = parse_csp(format_csp(weighted))
    assert isinstance(back, WeightedCspInstance)
    assert back.weights == ((5, 2), (1, 1))
    assert back.imps == ((0, 1),)


def test_csp_wt_lines_flip_the_type():
    text = "csp 2 1\nimp 0 1\n"
    assert not isinstance(parse_csp(text), WeightedCspInstance)
    text = "csp 2 1\nimp 0 1\nwt 0 3 4\n"
    inst = parse_csp(text)
    assert isinstance(inst, WeightedCspInstance)
    assert inst.weights == ((3, 4), (1, 1))  # missing wt rows default to ones
    # wt rows do not count towards the constraint tally in the header
    with pytest.raises(FormatError):
        parse_csp("csp 2 2\nimp 0 1\nwt 0 3 4\n")


def test_csp_parse_errors():
    with pytest.raises(FormatError):
        parse_csp("csp 2 1\nimp 0 2\n")
    with pytest.raises(FormatError):
        parse_csp("csp 2 1\nimp 0 0\n")
    with pytest.raises(FormatError):
        parse_csp("csp 2 1\npin2 0\n")
    with pytest.raises(FormatError):
        parse_csp("csp 1 0\nwt 0 -1 1\n")


def test_code_round_trip():
    from homred.codes import LinearCode

    code = LinearCode(3, 4, ((0, 1, 2, 0), (1, 1, 0, 2)))
    assert parse_code("code 3 2 4\n0 1 2 0\n1 1 0 2\n") == code
    with pytest.raises(FormatError):
        parse_code("code 4 1 2\nr 0 1\n")  # p=4 not prime
    with pytest.raises(FormatError):
        parse_code("code 3 1 2\nr 0 3\n")  # entry out of field
    with pytest.raises(FormatError):
        parse_code("code 3 2 2\nr 0 1\n")  # missing row


def test_format_csp_layout_is_canonical():
    inst = CspInstance(3, imps=((2, 0), (0, 1)), pins1=(2,), pins0=(1,))
    text = format_csp(inst)
    lines = text.strip().splitlines()
    assert lines[0] == "csp 3 4"
    # pins first (sorted), then imps (sorted)
    assert lines[1:] == ["pin0 1", "pin1 2", "imp 0 1", "imp 2 0"]
