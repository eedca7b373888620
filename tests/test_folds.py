import json
import random

import pytest
from hypothesis import given, settings

from conftest import seeded_graphs
from xhomotopy import (
    GraphMap,
    identity_map,
    induced_subgraph,
    interval,
    make_graph,
)
from xhomotopy.claims import build_figure1, build_figure2, build_figure3, natural_two_coloring
from xhomotopy.constructions import mapping_cylinder
from xhomotopy.core import EMPTY_GRAPH
from xhomotopy.folds import (
    FoldSequence,
    InvalidSequence,
    NotAFold,
    NotInducedInclusion,
    apply_fold,
    confluence_check,
    foldable_pairs,
    is_quasi_cofibration,
    is_stiff,
    is_unfold,
    stiff_reduction,
)
from xhomotopy.search import is_isomorphic


class TestFoldablePairs:
    def test_figure3_c_contains_three_to_four(self):
        fig = build_figure3()
        assert ("3", "4") in foldable_pairs(fig.C)

    def test_stiff_wedge_has_none(self):
        assert foldable_pairs(build_figure1().A) == []

    def test_simple_edge_has_none(self):
        # N(a) = {b} and N(b) = {a}: neither contains the other
        assert foldable_pairs(make_graph("ab", ["ab"])) == []

    def test_pairs_are_canonically_ordered(self):
        pairs = foldable_pairs(interval(3))
        assert pairs == sorted(pairs)


class TestApplyFold:
    def test_figure3_c_drop_three(self):
        fig = build_figure3()
        smaller, fold_map = apply_fold(fig.C, "3", "4")
        assert smaller == induced_subgraph(fig.C, ["1", "2", "4"])
        assert fold_map("3") == "4" and fold_map("1") == "1"

    def test_figure2_drop_five(self):
        fig = build_figure2()
        smaller, fold_map = apply_fold(fig.A, "5", "1")
        assert set(smaller.vertices) == set("1234")
        assert fold_map("5") == "1"

    def test_rejected_on_stiff_graph_with_witness(self):
        fig = build_figure1()
        with pytest.raises(NotAFold) as err:
            apply_fold(fig.A, "y", "x")
        assert err.value.witness is not None

    def test_fold_map_of_looped_vertex_stays_valid(self):
        g = make_graph("ab", ["aa", "bb", "ab"])
        _, fold_map = apply_fold(g, "a", "b")
        assert fold_map("a") == "b"


class TestIsStiff:
    def test_figure1_wedge(self):
        assert is_stiff(build_figure1().A)

    def test_figure3_middle(self):
        assert is_stiff(build_figure3().B)

    def test_interval_folds(self):
        assert not is_stiff(interval(1))


class TestStiffReduction:
    def test_figure3_host_lands_on_three_vertices(self):
        fig = build_figure3()
        seq = stiff_reduction(fig.D)
        assert is_stiff(seq.result) and seq.result.order == 3
        assert is_isomorphic(seq.result, fig.B) is not None

    def test_figure3_c_contracts_to_looped_point(self):
        fig = build_figure3()
        seq = stiff_reduction(fig.C)
        assert is_isomorphic(seq.result, fig.A) is not None

    def test_figure1_given_sequence(self):
        fig = build_figure1()
        seq = stiff_reduction(
            fig.B, "given", steps=[("a", "x"), ("d", "x"), ("c", "y"), ("e", "y"), ("b", "z")]
        )
        assert set(seq.result.vertices) == set("xyz123")
        assert seq.result == induced_subgraph(fig.B, seq.result.vertices)
        assert is_isomorphic(seq.result, fig.A) is not None

    def test_given_sequence_with_illegal_step(self):
        fig = build_figure1()
        with pytest.raises(InvalidSequence):
            stiff_reduction(fig.B, "given", steps=[("x", "a")])

    @pytest.mark.parametrize("bad", [("a",), None, ("a", "x", "y")])
    def test_malformed_step_is_an_invalid_sequence_naming_its_index(self, bad):
        fig = build_figure1()
        steps = [("a", "x"), bad]
        with pytest.raises(InvalidSequence, match=r"^step 1 \("):
            FoldSequence.replay(fig.B, steps)
        with pytest.raises(InvalidSequence, match=r"^step 1 \("):
            stiff_reduction(fig.B, "given", steps=steps)

    def test_string_step_is_not_read_as_a_pair_by_replay(self):
        with pytest.raises(InvalidSequence, match=r"^step 0 \('ax'\) is not a \(removed, target\) pair"):
            FoldSequence.replay(build_figure1().B, ["ax"])

    def test_string_steps_are_not_read_as_pairs_by_the_given_policy(self):
        with pytest.raises(InvalidSequence, match=r"^step 0 \('ax'\) is not a \(removed, target\) pair"):
            stiff_reduction(build_figure1().B, "given", steps=["ax", "dx", "cy", "ey", "bz"])

    def test_given_sequence_must_reach_stiff(self):
        fig = build_figure3()
        with pytest.raises(InvalidSequence):
            stiff_reduction(fig.D, "given", steps=[("3", "4")])

    def test_stiff_input_gives_empty_sequence(self):
        fig = build_figure1()
        seq = stiff_reduction(fig.A)
        assert seq.steps == () and seq.result == fig.A

    def test_composite_restricts_to_identity_on_survivors(self):
        fig = build_figure3()
        seq = stiff_reduction(fig.D)
        for v in seq.result.vertices:
            assert seq.composite(v) == v

    def test_serialization(self):
        fig = build_figure3()
        seq = stiff_reduction(fig.C, "given", steps=[("3", "4"), ("4", "1"), ("2", "1")])
        blob = json.loads(json.dumps(seq.to_json()))
        assert blob["steps"] == [
            {"removed": "3", "target": "4"},
            {"removed": "4", "target": "1"},
            {"removed": "2", "target": "1"},
        ]
        assert blob["resultVertices"] == ["1"]


class TestConfluence:
    def test_figure3_host(self):
        fig = build_figure3()
        report = confluence_check(fig.D, trials=10, seed=3)
        assert all(seq.result.order == 3 for seq in report.sequences)

    def test_stiff_graph_trivial(self):
        fig = build_figure1()
        report = confluence_check(fig.A, trials=4, seed=0)
        assert all(seq.steps == () for seq in report.sequences)

    def test_long_interval_contracts_to_point(self):
        report = confluence_check(interval(5), trials=10, seed=1)
        assert all(seq.result.order == 1 for seq in report.sequences)
        assert all(seq.result.is_looped(seq.result.vertices[0]) for seq in report.sequences)

    def test_needs_at_least_two_trials(self):
        from xhomotopy import BadParameter

        with pytest.raises(BadParameter):
            confluence_check(interval(2), trials=1)


class TestIsUnfold:
    def test_figure2_vertex_five_inclusion(self):
        fig = build_figure2()
        smaller = induced_subgraph(fig.A, ["1", "2", "3", "4"])
        incl = GraphMap(smaller, fig.A, tuple((v, v) for v in smaller.vertices))
        assert is_unfold(incl)

    def test_identity_is_not_an_unfold(self):
        fig = build_figure2()
        assert not is_unfold(identity_map(fig.A))

    def test_figure3_two_vertex_gap_is_not_an_unfold(self):
        fig = build_figure3()
        assert not is_unfold(fig.f)

    def test_extra_vertex_must_actually_fold(self):
        path = make_graph("ab", ["ab"])
        pendant = make_graph("abc", ["ab", "ac"])
        incl = GraphMap(path, pendant, (("a", "a"), ("b", "b")))
        assert is_unfold(incl)  # N(c) = {a} folds into N(b) = {a}
        five_cycle = make_graph("abcde", ["ab", "bc", "cd", "de", "ea"])
        incl2 = GraphMap(
            make_graph("abcd", ["ab", "bc", "cd"]),
            five_cycle,
            tuple((v, v) for v in "abcd"),
        )
        assert incl2.is_induced_inclusion()
        assert not is_unfold(incl2)  # N(e) = {a, d} sits in no other neighbourhood


class TestRelativeFolds:
    def test_whole_vertex_set_blocks_everything(self):
        fig = build_figure3()
        trace = is_quasi_cofibration(identity_map(fig.D))
        assert not trace.verdict
        (stage,) = trace.stuck
        assert stage.survivors == tuple(sorted(fig.D.vertices))
        assert stage.relative == ()
        assert stage.restricted == tuple(foldable_pairs(fig.D))

    def test_empty_protected_set_blocks_nothing(self):
        fig = build_figure3()
        trace = is_quasi_cofibration(GraphMap(EMPTY_GRAPH, fig.D, ()))
        assert trace.verdict
        assert trace.stages[0].relative == tuple(foldable_pairs(fig.D))
        assert trace.stages[0].restricted == ()

    def test_cylinder_partition_of_the_two_coloring(self):
        cyl = mapping_cylinder(natural_two_coloring())
        (stage,) = is_quasi_cofibration(cyl.incl).stuck
        assert stage.relative == ()
        assert len(stage.restricted) == 6
        assert set(stage.restricted) == set(foldable_pairs(cyl.cylinder))


class TestQuasiCofibration:
    def test_two_coloring_cylinder_inclusion_fails(self):
        cyl = mapping_cylinder(natural_two_coloring())
        trace = is_quasi_cofibration(cyl.incl)
        assert not trace.verdict
        assert trace.stuck
        for stage in trace.stuck:
            assert stage.relative == () and stage.restricted

    def test_identity_inclusion_of_stiff_graph(self):
        fig = build_figure1()
        trace = is_quasi_cofibration(identity_map(fig.A))
        assert trace.verdict and trace.sequence == ()

    def test_looped_point_inside_contracting_interval(self):
        point = make_graph("0", ["00"])
        incl = GraphMap(point, interval(2), (("0", "0"),))
        trace = is_quasi_cofibration(incl)
        assert trace.verdict
        assert [s.removed for s in trace.sequence] == ["2", "1"]

    def test_semantics_flagged_as_reconstructed(self):
        point = make_graph("0", ["00"])
        trace = is_quasi_cofibration(GraphMap(point, interval(1), (("0", "0"),)))
        assert "reconstructed" in trace.semantics
        assert "reconstructed" in json.dumps(trace.to_json())

    def test_requires_induced_inclusion(self):
        points = make_graph("ab")
        k2 = make_graph("ab", ["ab"])
        not_induced = GraphMap(points, k2, (("a", "a"), ("b", "b")))
        with pytest.raises(NotInducedInclusion):
            is_quasi_cofibration(not_induced)


@given(seeded_graphs(max_vertices=8))
@settings(max_examples=60)
def test_stiff_reduction_always_lands_stiff(g):
    seq = stiff_reduction(g)
    assert is_stiff(seq.result)
    assert seq.result == induced_subgraph(seq.start, seq.result.vertices)


@given(seeded_graphs(max_vertices=8))
@settings(max_examples=40)
def test_random_policies_agree_on_stiff_size(g):
    a = stiff_reduction(g, "random", seed=1)
    b = stiff_reduction(g, "random", seed=2)
    assert a.result.order == b.result.order
    assert is_isomorphic(a.result, b.result) is not None


@given(seeded_graphs(max_vertices=7))
@settings(max_examples=40)
def test_composite_map_is_valid_and_fixed_on_survivors(g):
    seq = stiff_reduction(g, "random", seed=11)
    again = FoldSequence.replay(seq.start, seq.steps)
    assert again.composite == seq.composite
    for v in seq.result.vertices:
        assert seq.composite(v) == v
