import itertools
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import seeded_graphs
from xhomotopy import (
    BudgetExceeded,
    is_graph_map,
    make_graph,
    product,
    relabel,
)
from xhomotopy.claims import build_figure1, build_figure2, build_figure3
from xhomotopy.constructions import complete, cycle
from xhomotopy.folds import stiff_reduction
from xhomotopy.generators import random_graph
from xhomotopy.search import (
    enumerate_copies,
    enumerate_hom_assignments,
    enumerate_homs,
    is_isomorphic,
)


def naive_hom_count(domain, codomain):
    """Independent oracle: filter the full function space."""
    if domain.order == 0:
        return 1
    count = 0
    verts = list(domain.vertices)
    for images in itertools.product(codomain.vertices, repeat=len(verts)):
        assignment = dict(zip(verts, images))
        if is_graph_map(domain, codomain, assignment):
            count += 1
    return count


def naive_copy_count(pattern, host, mode):
    """Independent oracle: filter all injective vertex functions."""
    verts = list(pattern.vertices)
    count = 0
    for images in itertools.permutations(host.vertices, len(verts)):
        img = dict(zip(verts, images))
        if all(
            pattern.has_edge(u, v) <= host.has_edge(img[u], img[v])
            and (mode == "subgraph" or pattern.has_edge(u, v) == host.has_edge(img[u], img[v]))
            for u in verts
            for v in verts
        ):
            count += 1
    return count


def long_path(n):
    labels = [f"p{i:04d}" for i in range(n)]
    return make_graph(labels, zip(labels, labels[1:]))


class TestEnumerateHoms:
    def test_edge_into_triangle(self):
        maps = enumerate_homs(complete(2), complete(3))
        assert len(maps) == naive_hom_count(complete(2), complete(3)) == 6

    def test_loop_needs_loop(self):
        loop = make_graph("v", ["vv"])
        assert enumerate_homs(loop, complete(2)) == []

    def test_empty_graphs(self):
        empty = make_graph([])
        k2 = complete(2)
        assert len(enumerate_homs(empty, k2)) == 1
        assert enumerate_homs(k2, empty) == []

    def test_output_is_lexicographically_sorted(self):
        maps = enumerate_homs(complete(2), complete(3))
        keys = [tuple(m(v) for v in sorted(m.domain.vertices)) for m in maps]
        assert keys == sorted(keys)

    def test_budget_enforced_with_limit_echoed(self):
        with pytest.raises(BudgetExceeded) as err:
            enumerate_homs(complete(3), complete(3), budget=2)
        assert err.value.limit == 2

    def test_budget_charges_every_scanned_candidate(self):
        # 3 candidates at the root, 3 at each of 3 children, 3 at each of 6 grandchildren
        assert len(enumerate_homs(complete(3), complete(3), budget=30)) == 6
        with pytest.raises(BudgetExceeded):
            enumerate_homs(complete(3), complete(3), budget=29)

    def test_long_path_has_exactly_two_two_colorings(self):
        assert len(enumerate_hom_assignments(long_path(1500), complete(2))) == 2

    @given(seeded_graphs(max_vertices=4), seeded_graphs(max_vertices=4))
    @settings(max_examples=25)
    def test_count_matches_naive_filter(self, a, b):
        assert len(enumerate_homs(a, b)) == naive_hom_count(a, b)


class TestEnumerateCopies:
    def test_unique_triangle_in_figure2_domain(self):
        fig = build_figure2()
        copies = enumerate_copies(complete(3), fig.A, "subgraph", collapse=True)
        assert len(copies) == 1
        assert copies[0].image_vertex_set == frozenset("123")

    def test_figure1_has_the_two_documented_copies(self):
        fig = build_figure1()
        copies = enumerate_copies(fig.A, fig.B, "subgraph", collapse=True)
        found = {(c.image_vertex_set, c.image_edges) for c in copies}
        straight = (
            frozenset("xyz123"),
            frozenset({("x", "y"), ("x", "z"), ("y", "z"), ("1", "x"), ("1", "2"), ("2", "3"), ("3", "z")}),
        )
        wedged = (
            frozenset("xybcde"),
            frozenset({("b", "x"), ("b", "y"), ("x", "y"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "x")}),
        )
        assert straight in found and wedged in found

    def test_identity_copy_in_induced_mode(self):
        fig = build_figure3()
        copies = enumerate_copies(fig.C, fig.C, "induced")
        assert any(all(c(v) == v for v in fig.C.vertices) for c in copies)

    def test_embeddings_reverify(self):
        fig = build_figure1()
        for mode in ("subgraph", "induced"):
            for emb in enumerate_copies(make_graph("abc", ["ab", "bc"]), fig.A, mode):
                assert emb.check()

    def test_collapse_dedupes_automorphic_copies(self):
        tri = complete(3)
        all_copies = enumerate_copies(tri, tri, "subgraph")
        collapsed = enumerate_copies(tri, tri, "subgraph", collapse=True)
        assert len(all_copies) == 6 and len(collapsed) == 1

    def test_budget_charges_the_whole_host_per_node(self):
        assert len(enumerate_copies(complete(3), complete(3), budget=30)) == 6
        with pytest.raises(BudgetExceeded):
            enumerate_copies(complete(3), complete(3), budget=29)

    @given(seeded_graphs(max_vertices=3), seeded_graphs(max_vertices=5))
    @settings(max_examples=40)
    def test_counts_match_naive_filter(self, pattern, host):
        for mode in ("subgraph", "induced"):
            assert len(enumerate_copies(pattern, host, mode)) == naive_copy_count(pattern, host, mode)


class TestIsIsomorphic:
    def test_reduction_of_figure3_host(self):
        fig = build_figure3()
        reduced = stiff_reduction(fig.D, "given", steps=[("3", "4"), ("4", "1")]).result
        iso = is_isomorphic(reduced, fig.B)
        assert iso is not None
        assert iso.mapping == {"1": "1", "2": "2", "5": "3"}

    def test_identity_accepted(self):
        fig = build_figure1()
        iso = is_isomorphic(fig.B, fig.B)
        assert iso is not None

    def test_distinct_degree_sequences_rejected_fast(self):
        assert is_isomorphic(cycle(5), complete(3)) is None
        assert is_isomorphic(cycle(6), cycle(5)) is None

    def test_loop_flags_matter(self):
        assert is_isomorphic(make_graph("a", ["aa"]), make_graph("a")) is None

    @given(seeded_graphs(max_vertices=10), st.integers(0, 10**6))
    @settings(max_examples=120)
    def test_relabelled_graphs_always_isomorphic(self, g, seed):
        rng = random.Random(seed)
        fresh = [f"w{i}" for i in range(g.order)]
        rng.shuffle(fresh)
        iso = is_isomorphic(g, relabel(g, dict(zip(g.vertices, fresh))))
        assert iso is not None

    @given(seeded_graphs(max_vertices=5), seeded_graphs(max_vertices=5))
    @settings(max_examples=30)
    def test_product_symmetric_up_to_isomorphism(self, g, h):
        left = product(g, h)
        right = product(h, g)
        assert is_isomorphic(left, right) is not None

    def test_long_path_relabelled(self):
        path = long_path(1500)
        reversed_labels = {v: f"q{1499 - i:04d}" for i, v in enumerate(path.vertices)}
        iso = is_isomorphic(path, relabel(path, reversed_labels))
        assert iso is not None

    @given(st.integers(0, 6), st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=80)
    def test_verdict_matches_networkx(self, n, seed_g, seed_h):
        nx = pytest.importorskip("networkx")
        g = random_graph(random.Random(seed_g), n)
        h = random_graph(random.Random(seed_h), n)

        def to_nx(G):
            out = nx.Graph()
            out.add_nodes_from(G.vertices)
            out.add_edges_from(G.edges)  # a loop becomes a self-edge
            return out

        assert (is_isomorphic(g, h) is not None) == nx.is_isomorphic(to_nx(g), to_nx(h))


def test_deterministic_witness_across_runs():
    rng = random.Random(7)
    g = random_graph(rng, 6)
    perm = dict(zip(g.vertices, ["m3", "m1", "m5", "m0", "m4", "m2"]))
    h = relabel(g, perm)
    first = is_isomorphic(g, h)
    second = is_isomorphic(g, h)
    assert first == second
