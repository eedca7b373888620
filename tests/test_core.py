import random
import sys

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import seeded_graphs
from xhomotopy import (
    BadLabel,
    BadParameter,
    DomainMismatch,
    DuplicateVertex,
    Embedding,
    Graph,
    GraphMap,
    NotAGraphMap,
    UnknownVertex,
    compose,
    disjoint_union,
    find_map_violation,
    graph_map,
    identity_map,
    induced_subgraph,
    interval,
    invert,
    is_graph_map,
    make_graph,
    product,
    relabel,
)
from xhomotopy.claims import build_figure1, build_figure3
from xhomotopy.core import _check_label
from xhomotopy.search import is_isomorphic

FIG3_D_EDGES = ["11", "12", "14", "23", "24", "25", "33", "34", "44", "55"]


def fig3_d():
    return make_graph("12345", FIG3_D_EDGES)


class TestMakeGraph:
    def test_empty_graph_is_valid(self):
        g = make_graph([])
        assert g.order == 0 and not g.edges

    def test_figure3_host_graph(self):
        d = fig3_d()
        assert d.order == 5
        assert len(d.edges) == 10
        assert d.is_looped("1") and d.is_looped("5") and not d.is_looped("2")

    def test_duplicate_edges_collapse(self):
        g = make_graph("ab", ["ab", "ba", "ab"])
        assert len(g.edges) == 1

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DuplicateVertex):
            make_graph("aa")

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownVertex):
            make_graph("ab", ["ac"])

    @pytest.mark.parametrize("label", ["", "a b", "a-b", "a\tb"])
    def test_bad_labels_rejected(self, label):
        with pytest.raises(BadLabel):
            Graph((label,), frozenset())

    def test_loop_from_equal_pair(self):
        g = make_graph("a", ["aa"])
        assert g.is_looped("a") and g.degree("a") == 1

    def test_label_check_rejects_exactly_dash_and_whitespace(self):
        rejected = []
        for code in range(sys.maxunicode + 1):
            try:
                _check_label(chr(code))
            except BadLabel:
                rejected.append(code)
        assert rejected == [c for c in range(sys.maxunicode + 1) if chr(c) == "-" or chr(c).isspace()]


class TestNeighbors:
    def test_figure3_vertex_four(self):
        assert fig3_d().neighbors("4") == frozenset("1234")

    def test_simple_edge(self):
        g = make_graph("ab", ["ab"])
        assert g.neighbors("a") == frozenset("b")

    def test_looped_vertex_is_own_neighbor(self):
        g = make_graph("1", ["11"])
        assert g.neighbors("1") == frozenset("1")

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            fig3_d().neighbors("9")


class TestProduct:
    def test_square_of_an_edge(self):
        k2 = make_graph("ab", ["ab"])
        p = product(k2, make_graph("01", ["01"]))
        assert p.order == 4
        assert p.edges == frozenset({("(a,0)", "(b,1)"), ("(a,1)", "(b,0)")})

    def test_looped_point_is_a_unit(self):
        g = make_graph("abc", ["ab", "bc", "aa"])
        p = product(g, interval(0))
        assert is_isomorphic(p, g) is not None

    def test_triangle_times_interval_edge_count(self):
        # independent oracle: apply the edge rule to every vertex pair
        c3 = make_graph("012", ["01", "12", "02"])
        i1 = interval(1)
        expected = set()
        verts = [(g, h) for g in c3.vertices for h in i1.vertices]
        for i, (g1, h1) in enumerate(verts):
            for g2, h2 in verts[i:]:
                if c3.has_edge(g1, g2) and i1.has_edge(h1, h2):
                    expected.add(frozenset({(g1, h1), (g2, h2)}))
        p = product(c3, i1)
        assert len(p.edges) == len(expected) == 12


class TestInterval:
    def test_zero_is_single_looped_vertex(self):
        g = interval(0)
        assert g.vertices == ("0",) and g.is_looped("0")

    def test_one(self):
        g = interval(1)
        assert g.edges == frozenset({("0", "0"), ("0", "1"), ("1", "1")})

    def test_two(self):
        g = interval(2)
        assert g.order == 3 and len(g.edges) == 5

    def test_negative_rejected(self):
        with pytest.raises(BadParameter):
            interval(-1)


class TestGraphMapValidation:
    def test_identity_is_a_map(self):
        d = fig3_d()
        assert is_graph_map(d, d, {v: v for v in d.vertices})

    def test_figure1_collapse_is_a_map(self):
        fig = build_figure1()
        assert is_graph_map(fig.B, fig.B, fig.g.mapping)

    def test_edge_to_no_edge_reports_first_violation(self):
        k2 = make_graph("ab", ["ab"])
        points = make_graph("uv")
        assert find_map_violation(k2, points, {"a": "u", "b": "v"}) == ("a", "b")
        with pytest.raises(NotAGraphMap):
            graph_map(k2, points, {"a": "u", "b": "v"})

    def test_out_of_range_image(self):
        k2 = make_graph("ab", ["ab"])
        with pytest.raises(UnknownVertex):
            find_map_violation(k2, k2, {"a": "a", "b": "q"})

    def test_loop_must_map_to_loop(self):
        loop = make_graph("v", ["vv"])
        k2 = make_graph("ab", ["ab"])
        assert not is_graph_map(loop, k2, {"v": "a"})

    @given(seeded_graphs(max_vertices=5), seeded_graphs(max_vertices=4, min_vertices=1), st.integers(0, 10**9))
    def test_reports_the_first_violation_in_sorted_edge_order(self, a, b, seed):
        rng = random.Random(seed)
        assignment = {v: rng.choice(b.vertices) for v in a.vertices}
        first = next(
            ((u, v) for u, v in sorted(a.edges) if not b.has_edge(assignment[u], assignment[v])), None
        )
        assert find_map_violation(a, b, assignment) == first


class TestCompose:
    def test_identity_laws(self):
        fig = build_figure1()
        assert compose(identity_map(fig.B), fig.f) == fig.f
        assert compose(fig.f, identity_map(fig.A)) == fig.f

    def test_figure1_composite_is_inclusion(self):
        fig = build_figure1()
        gf = compose(fig.g, fig.f)
        assert gf.mapping == {v: v for v in fig.A.vertices}

    def test_associativity_on_figure3_chain(self):
        fig = build_figure3()
        left = compose(fig.h, compose(fig.g, fig.f))
        right = compose(compose(fig.h, fig.g), fig.f)
        assert left == right

    def test_domain_mismatch(self):
        fig = build_figure3()
        with pytest.raises(DomainMismatch):
            compose(fig.f, fig.g)


class TestInducedSubgraph:
    def test_figure3_c_from_d(self):
        c = induced_subgraph(fig3_d(), list("1234"))
        assert c.edges == frozenset(
            {("1", "1"), ("1", "2"), ("1", "4"), ("2", "3"), ("2", "4"),
             ("3", "3"), ("3", "4"), ("4", "4")}
        )

    def test_whole_vertex_set_is_identity(self):
        d = fig3_d()
        assert induced_subgraph(d, d.vertices) == d

    def test_figure1_six_vertex_restriction(self):
        fig = build_figure1()
        sub = induced_subgraph(fig.B, list("abcdex"))
        assert sub.order == 6
        assert sub.edges == frozenset(
            {("a", "b"), ("a", "e"), ("b", "c"), ("b", "x"),
             ("c", "d"), ("c", "x"), ("d", "e"), ("e", "x")}
        )

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            induced_subgraph(fig3_d(), ["1", "9"])


class TestEmbedding:
    def test_subgraph_mode_allows_extra_host_edges(self):
        path = make_graph("123", ["12", "23"])
        tri = make_graph("abc", ["ab", "bc", "ac"])
        emb = Embedding(path, tri, (("1", "a"), ("2", "b"), ("3", "c")), "subgraph")
        assert emb.check()

    def test_induced_mode_rejects_extra_host_edges(self):
        path = make_graph("123", ["12", "23"])
        tri = make_graph("abc", ["ab", "bc", "ac"])
        with pytest.raises(BadParameter):
            Embedding(path, tri, (("1", "a"), ("2", "b"), ("3", "c")), "induced")


class TestDisjointUnion:
    def test_keeps_unique_labels(self):
        u, (ra, rb) = disjoint_union([("L", make_graph("ab", ["ab"])), ("R", make_graph("cd"))])
        assert set(u.vertices) == set("abcd")
        assert ra["a"] == "a" and rb["c"] == "c"

    def test_prefixes_on_collision(self):
        u, (ra, rb) = disjoint_union([("L", make_graph("ab", ["ab"])), ("R", make_graph("a"))])
        assert ra["a"] == "L#a" and rb["a"] == "R#a"
        assert u.order == 3


class TestInvert:
    def test_round_trip(self):
        g = fig3_d()
        perm = dict(zip(sorted(g.vertices), ["p1", "p2", "p3", "p4", "p5"]))
        iso = GraphMap(g, relabel(g, perm), tuple(perm.items()))
        back = invert(iso)
        assert compose(back, iso) == identity_map(g)

    def test_non_bijective_rejected(self):
        fig = build_figure3()
        with pytest.raises(BadParameter):
            invert(fig.f)


@given(seeded_graphs(max_vertices=6))
def test_graph_value_semantics_round_trip(g):
    clone = Graph(g.vertices, g.edges)
    assert clone == g and hash(clone) == hash(g)


@given(seeded_graphs(max_vertices=6), st.integers(0, 10**6))
def test_relabel_preserves_structure(g, seed):
    rng = random.Random(seed)
    fresh = [f"r{i}" for i in range(g.order)]
    rng.shuffle(fresh)
    mapping = dict(zip(g.vertices, fresh))
    h = relabel(g, mapping)
    assert h.order == g.order and len(h.edges) == len(g.edges)
    assert is_isomorphic(g, h) is not None
