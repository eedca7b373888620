import random

import pytest
from hypothesis import given, settings

from conftest import seeded_graphs
from xhomotopy import (
    BadParameter,
    GraphMap,
    NotAPartition,
    SignatureMismatch,
    compose,
    graph_map,
    identity_map,
    interval,
    make_graph,
)
from xhomotopy.claims import build_figure3, natural_two_coloring
from xhomotopy.constructions import (
    NotAnEquivalence,
    NotNonInjective,
    cobase_change,
    complete,
    counterexample_pushout,
    cycle,
    factorize,
    looped_cycle_wedge,
    mapping_cylinder,
    mediating_map,
    named_graph,
    pushout,
    quotient_by_image,
    quotient_by_partition,
)
from xhomotopy.folds import apply_fold, is_quasi_cofibration
from xhomotopy.generators import random_graph
from xhomotopy.homotopy import graphs_equivalent
from xhomotopy.search import enumerate_homs, is_isomorphic


def path3():
    return make_graph("123", ["12", "23"])


def path_fold_onto_edge():
    """The fold of the three-vertex path onto its first edge."""
    _, fold_map = apply_fold(path3(), "3", "1")
    return fold_map


class TestQuotientByPartition:
    def test_discrete_partition_relabels_only(self):
        fig = build_figure3()
        q, projection = quotient_by_partition(fig.D, [[v] for v in fig.D.vertices])
        assert is_isomorphic(q, fig.D) is not None
        assert projection.is_injective()

    def test_collapsing_an_edge_makes_a_loop(self):
        k2 = make_graph("ab", ["ab"])
        q, _ = quotient_by_partition(k2, [["a", "b"]])
        assert q.vertices == ("[a,b]",) and q.is_looped("[a,b]")

    def test_path_endpoints_identified(self):
        q, projection = quotient_by_partition(path3(), [["1", "3"], ["2"]])
        assert set(q.vertices) == {"[1,3]", "[2]"}
        assert q.edges == frozenset({("[1,3]", "[2]")})
        assert projection("1") == projection("3") == "[1,3]"

    def test_partition_must_cover(self):
        with pytest.raises(NotAPartition):
            quotient_by_partition(path3(), [["1", "2"]])

    def test_partition_must_not_overlap(self):
        with pytest.raises(NotAPartition):
            quotient_by_partition(path3(), [["1", "2"], ["2", "3"]])

    @given(seeded_graphs(max_vertices=6, min_vertices=1))
    @settings(max_examples=30)
    def test_edge_rule_against_naive_double_loop(self, g):
        rng = random.Random(g.order * 31 + len(g.edges))
        blocks: list[list[str]] = [[] for _ in range(max(1, g.order // 2))]
        for v in g.vertices:
            blocks[rng.randrange(len(blocks))].append(v)
        blocks = [b for b in blocks if b]
        q, projection = quotient_by_partition(g, blocks)
        for x in q.vertices:
            for y in q.vertices:
                members_x = [v for v in g.vertices if projection(v) == x]
                members_y = [v for v in g.vertices if projection(v) == y]
                naive = any(g.has_edge(u, v) for u in members_x for v in members_y)
                assert naive == q.has_edge(x, y)


class TestQuotientByImage:
    def test_empty_map_only_relabels(self):
        fig = build_figure3()
        empty = GraphMap(make_graph([]), fig.C, ())
        q = quotient_by_image(fig.C, empty)
        assert is_isomorphic(q, fig.C) is not None

    def test_triangle_edge_collapse(self):
        tri = complete(3)
        edge = make_graph("ab", ["ab"])
        incl = graph_map(edge, tri, {"a": "0", "b": "1"})
        q = quotient_by_image(tri, incl)
        assert q.order == 2
        assert q.is_looped("[0,1]")
        assert q.has_edge("[0,1]", "[2]")

    def test_single_vertex_image_relabels(self):
        fig = build_figure3()
        into_c = compose(fig.g, fig.f)  # image is the looped vertex 1
        q = quotient_by_image(fig.C, into_c)
        assert is_isomorphic(q, fig.C) is not None


class TestPushout:
    def test_along_identity_gives_the_other_foot(self):
        fold = path_fold_onto_edge()
        square = pushout(fold, identity_map(fold.domain))
        assert is_isomorphic(square.apex, fold.codomain) is not None
        assert square.into_b.is_injective()

    def test_path_fold_against_triangle_inclusion(self):
        fold = path_fold_onto_edge()
        triangle = make_graph("123", ["12", "23", "13"])
        incl = graph_map(path3(), triangle, {v: v for v in "123"})
        square = pushout(fold, incl)
        expected = make_graph("ab", ["ab", "aa"])
        assert is_isomorphic(square.apex, expected) is not None

    def test_empty_shared_domain_gives_coproduct(self):
        empty = make_graph([])
        left = GraphMap(empty, complete(2), ())
        right = GraphMap(empty, cycle(3), ())
        square = pushout(left, right)
        assert square.apex.order == 5
        assert len(square.apex.edges) == 4

    def test_square_always_commutes(self):
        fig = build_figure3()
        square = pushout(fig.f, compose(fig.g, fig.f))
        assert square.commutes()

    def test_signature_mismatch(self):
        fig = build_figure3()
        with pytest.raises(SignatureMismatch):
            pushout(fig.f, fig.g)


class TestCobaseChange:
    def test_along_identity_matches_original_up_to_iso(self):
        fold = path_fold_onto_edge()
        change = cobase_change(fold, identity_map(fold.domain))
        assert change.domain == fold.domain
        assert is_isomorphic(change.codomain, fold.codomain) is not None

    def test_simple_counterexample_instance_breaks_equivalence(self):
        fold = path_fold_onto_edge()
        triangle = make_graph("123", ["12", "23", "13"])
        incl = graph_map(path3(), triangle, {v: v for v in "123"})
        change = cobase_change(incl, fold)  # push the triangle out along the fold
        assert not graphs_equivalent(change.domain, change.codomain).equivalent

    def test_preserves_induced_inclusions(self):
        rng = random.Random(17)
        checked = 0
        while checked < 10:
            host = random_graph(rng, rng.randint(1, 4), prefix="h")
            sub_size = rng.randint(1, host.order)
            verts = sorted(rng.sample(sorted(host.vertices), sub_size))
            from xhomotopy import induced_subgraph

            part = induced_subgraph(host, verts)
            incl = GraphMap(part, host, tuple((v, v) for v in verts))
            other = random_graph(rng, rng.randint(1, 4), prefix="o")
            homs = enumerate_homs(part, other)
            if not homs:
                continue
            g = homs[rng.randrange(len(homs))]
            change = cobase_change(incl, g)
            assert change.is_induced_inclusion()
            checked += 1


class TestMediatingMap:
    def test_unique_mediator_for_commuting_cocones(self):
        fold = path_fold_onto_edge()
        triangle = make_graph("123", ["12", "23", "13"])
        incl = graph_map(path3(), triangle, {v: v for v in "123"})
        square = pushout(fold, incl)
        target = make_graph("w", ["ww"])
        u = graph_map(fold.codomain, target, {v: "w" for v in fold.codomain.vertices})
        v = graph_map(triangle, target, {v_: "w" for v_ in triangle.vertices})
        mediator = mediating_map(square, u, v)
        assert mediator is not None
        assert compose(mediator, square.into_b) == u
        assert compose(mediator, square.into_c) == v

    def test_non_commuting_cocone_rejected(self):
        fold = path_fold_onto_edge()
        square = pushout(fold, identity_map(fold.domain))
        k2 = fold.codomain
        u = identity_map(k2)
        swapped = graph_map(fold.domain, k2, {"1": "2", "2": "1", "3": "2"})
        assert mediating_map(square, u, swapped) is None


class TestMappingCylinder:
    def test_identity_on_looped_point_gives_interval(self):
        point = make_graph("v", ["vv"])
        cyl = mapping_cylinder(identity_map(point))
        assert is_isomorphic(cyl.cylinder, interval(1)) is not None

    def test_two_coloring_cylinder(self):
        cyl = mapping_cylinder(natural_two_coloring())
        assert cyl.cylinder.order == 8
        assert cyl.incl.is_induced_inclusion()
        assert graphs_equivalent(cyl.cylinder, cyl.f.codomain).equivalent

    def test_factorization_identity_holds_pointwise(self):
        fig = build_figure3()
        cyl = mapping_cylinder(fig.f)
        assert compose(cyl.retract, cyl.incl) == fig.f

    def test_cylinder_invariants_hold_for_a_hundred_random_maps(self):
        rng = random.Random(61)
        checked = 0
        while checked < 100:
            a = random_graph(rng, rng.randint(0, 5), prefix="a")
            b = random_graph(rng, rng.randint(1, 5), prefix="b")
            homs = enumerate_homs(a, b)
            if not homs:
                continue
            f = homs[rng.randrange(len(homs))]
            cyl = mapping_cylinder(f)
            assert cyl.incl.is_induced_inclusion()
            assert compose(cyl.retract, cyl.incl) == f
            assert graphs_equivalent(cyl.cylinder, b).equivalent
            checked += 1


class TestFactorize:
    def test_identity_factorization(self):
        fig = build_figure3()
        factored = factorize(identity_map(fig.B))
        assert compose(factored.retract, factored.incl) == identity_map(fig.B)
        assert factored.certification == "homotopy-certificate"
        assert factored.certificate.verify()

    def test_two_coloring_inclusion_is_not_a_quasi_cofibration(self):
        incl, retract = factorize(natural_two_coloring())
        assert incl.is_induced_inclusion()
        assert not is_quasi_cofibration(incl).verdict

    def test_empty_domain(self):
        empty = make_graph([])
        k2 = complete(2)
        factored = factorize(GraphMap(empty, k2, ()))
        assert factored.incl.domain == empty
        assert graphs_equivalent(factored.cylinder, k2).equivalent

    def test_definitive_negative_on_the_retract_raises(self, monkeypatch):
        import xhomotopy.constructions as constructions

        monkeypatch.setattr(constructions, "is_equivalence", lambda f, budget=None: None)
        with pytest.raises(NotAnEquivalence):
            factorize(natural_two_coloring())

    def test_blown_budget_falls_back_to_the_stiff_criterion(self):
        factored = factorize(natural_two_coloring(), budget=1)
        assert factored.certification == "stiff-criterion"
        assert factored.certificate.equivalent


class TestNamedGraphs:
    def test_six_cycle(self):
        c6 = cycle(6)
        assert c6.order == 6 and len(c6.edges) == 6 and c6.is_simple()

    def test_complete_two(self):
        assert complete(2).edges == frozenset({("0", "1")})

    def test_seven_cycle_for_the_wedge(self):
        c7 = named_graph("cycle", 7)
        assert "1" in c7.vertex_set

    def test_looped_cycle(self):
        g = looped_cycle_wedge(7, 2)
        assert g.is_looped("2") and len(g.edges) == 8

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            cycle(2)
        with pytest.raises(BadParameter):
            complete(0)
        with pytest.raises(BadParameter):
            named_graph("mystery", 3)
        with pytest.raises(BadParameter):
            looped_cycle_wedge(5, 9)


class TestCounterexamplePushout:
    def test_simple_case_path_fold(self):
        report = counterexample_pushout(path_fold_onto_edge())
        assert report.case == "simple"
        assert not report.equivalent
        assert is_isomorphic(report.crafted, complete(3)) is not None
        assert not report.square.apex.is_simple()

    def test_unlooped_collision_case(self):
        bowtie = make_graph("pqr", ["pq", "qq", "qr"])
        _, fold = apply_fold(bowtie, "r", "p")
        report = counterexample_pushout(fold)
        assert report.case == "unlooped-collision"
        assert not report.equivalent
        apex_stiff = report.comparison.right_reduction.result
        assert is_isomorphic(apex_stiff, looped_cycle_wedge(7, 0)) is not None

    def test_looped_collision_case(self):
        looped = make_graph("pqr", ["pp", "qq", "pq", "qr"])
        _, fold = apply_fold(looped, "r", "p")
        report = counterexample_pushout(fold)
        assert report.case == "looped-collision"
        assert not report.equivalent

    def test_injective_maps_rejected(self):
        fig = build_figure3()
        with pytest.raises(NotNonInjective):
            counterexample_pushout(fig.f)

    def test_non_equivalences_rejected(self):
        # the parity map joins two stiff, non-isomorphic graphs
        with pytest.raises(NotAnEquivalence):
            counterexample_pushout(natural_two_coloring())


class TestPushoutUniversalProperty:
    def test_random_cospans_have_unique_mediators(self, rng):
        pool = [complete(2), cycle(3), interval(1), make_graph("st", ["ss", "st"])]
        checked = 0
        while checked < 8:
            a = random_graph(rng, rng.randint(1, 3), prefix="a")
            b = random_graph(rng, rng.randint(1, 3), prefix="b")
            c = random_graph(rng, rng.randint(1, 3), prefix="c")
            homs_ab = enumerate_homs(a, b)
            homs_ac = enumerate_homs(a, c)
            if not homs_ab or not homs_ac:
                continue
            f = homs_ab[rng.randrange(len(homs_ab))]
            g = homs_ac[rng.randrange(len(homs_ac))]
            square = pushout(f, g)
            for target in pool:
                for u in enumerate_homs(b, target):
                    for v in enumerate_homs(c, target):
                        if compose(u, f) != compose(v, g):
                            continue
                        mediator = mediating_map(square, u, v)
                        assert mediator is not None
                        assert compose(mediator, square.into_b) == u
                        assert compose(mediator, square.into_c) == v
            checked += 1
