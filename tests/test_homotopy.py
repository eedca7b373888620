import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings

from conftest import seeded_graphs
from xhomotopy import (
    BudgetExceeded,
    Graph,
    GraphError,
    SignatureMismatch,
    compose,
    graph_map,
    identity_map,
    interval,
    make_graph,
)
from xhomotopy.claims import build_figure1, build_figure2, build_figure3, figure2_fold_comparator
from xhomotopy.constructions import complete, cycle
from xhomotopy.folds import apply_fold, foldable_pairs
from xhomotopy.generators import random_equivalence, random_graph
from xhomotopy import core, homotopy
from xhomotopy.homotopy import (
    EquivalenceCertificate,
    HomotopyCertificate,
    are_homotopic,
    graphs_equivalent,
    homotopy_classes,
    is_equivalence,
    one_step_homotopic,
    one_step_neighbors,
    verify_homotopy,
)
from xhomotopy.search import enumerate_hom_assignments, enumerate_homs
from xhomotopy.weq import in_W_times


class TestOneStep:
    def test_reflexive_on_any_map(self):
        fig = build_figure1()
        assert one_step_homotopic(fig.g, fig.g)

    def test_figure2_map_and_fold_comparator(self):
        fig = build_figure2()
        assert one_step_homotopic(fig.f, figure2_fold_comparator())

    def test_swap_on_an_edge_is_not_one_step(self):
        k2 = make_graph("uv", ["uv"])
        straight = graph_map(k2, k2, {"u": "u", "v": "v"})
        swap = graph_map(k2, k2, {"u": "v", "v": "u"})
        # the cross condition would need loops in the codomain
        assert not one_step_homotopic(straight, swap)

    def test_signature_mismatch(self):
        fig = build_figure3()
        with pytest.raises(SignatureMismatch):
            one_step_homotopic(fig.f, fig.g)

    def test_both_cross_conditions_are_checked(self):
        # f(u)g(v) lands on the loop while f(v)g(u) does not: the relation
        # must reject this pair
        k2 = make_graph("uv", ["uv"])
        looped_edge = make_graph("ab", ["ab", "aa"])
        f = graph_map(k2, looped_edge, {"u": "a", "v": "b"})
        g = graph_map(k2, looped_edge, {"u": "b", "v": "a"})
        assert not one_step_homotopic(f, g)
        assert not one_step_homotopic(g, f)

    @given(seeded_graphs(max_vertices=3), seeded_graphs(max_vertices=3, min_vertices=1))
    @settings(max_examples=60)
    def test_symmetry(self, a, b):
        maps = enumerate_homs(a, b)
        for f in maps:
            for g in maps:
                assert one_step_homotopic(f, g) == one_step_homotopic(g, f)


class TestOneStepNeighborGeneration:
    @given(seeded_graphs(max_vertices=3), seeded_graphs(max_vertices=3, min_vertices=1))
    @settings(max_examples=60)
    def test_candidate_enumeration_matches_pairwise_relation(self, a, b):
        # the BFS expands through candidate-set enumeration; it must agree
        # with the defining pairwise check on the full hom set
        from xhomotopy.homotopy import one_step_neighbors

        maps = enumerate_homs(a, b)
        for h in maps:
            generated = {m.assignment for m in one_step_neighbors(h)}
            pairwise = {m.assignment for m in maps if one_step_homotopic(h, m)}
            assert generated == pairwise

    def test_homotopy_is_symmetric(self):
        fig = build_figure2()
        comparator = figure2_fold_comparator()
        forward = are_homotopic(fig.f, comparator)
        backward = are_homotopic(comparator, fig.f)
        assert forward is not None and backward is not None
        assert len(forward) == len(backward)


class TestAreHomotopic:
    def test_chain_of_length_zero(self):
        fig = build_figure2()
        cert = are_homotopic(fig.f, fig.f)
        assert cert is not None and len(cert) == 0

    def test_constants_into_interval(self):
        k2 = make_graph("uv", ["uv"])
        i1 = interval(1)
        at0 = graph_map(k2, i1, {"u": "0", "v": "0"})
        at1 = graph_map(k2, i1, {"u": "1", "v": "1"})
        cert = are_homotopic(at0, at1)
        assert cert is not None and len(cert) == 1

    def test_edgeless_domain_connects_everything(self):
        k1 = make_graph("p")
        k2 = make_graph("ab", ["ab"])
        at_a = graph_map(k1, k2, {"p": "a"})
        at_b = graph_map(k1, k2, {"p": "b"})
        assert are_homotopic(at_a, at_b) is not None

    def test_definitive_absence(self):
        k2 = make_graph("uv", ["uv"])
        straight = graph_map(k2, k2, {"u": "u", "v": "v"})
        swap = graph_map(k2, k2, {"u": "v", "v": "u"})
        assert are_homotopic(straight, swap) is None

    def test_chains_are_shortest(self):
        fig = build_figure2()
        cert = are_homotopic(fig.f, figure2_fold_comparator())
        assert cert is not None and len(cert) == 1


class TestVerifyHomotopy:
    def test_valid_chain_passes(self):
        fig = build_figure2()
        cert = are_homotopic(fig.f, figure2_fold_comparator())
        assert verify_homotopy(cert)

    def test_length_zero_chain_passes(self):
        fig = build_figure1()
        assert verify_homotopy(HomotopyCertificate((fig.g,)))

    def test_corrupted_chain_fails_with_witness(self):
        k2 = make_graph("uv", ["uv"])
        straight = graph_map(k2, k2, {"u": "u", "v": "v"})
        swap = graph_map(k2, k2, {"u": "v", "v": "u"})
        bad = HomotopyCertificate((straight, swap))
        check = verify_homotopy(bad)
        # the first product edge, in sorted order, that is not carried to an edge
        assert not check.ok and check.violation == ("(u,0)", "(v,1)")

    def test_product_map_materializes(self):
        fig = build_figure2()
        cert = are_homotopic(fig.f, figure2_fold_comparator())
        big = cert.as_product_map()
        assert big.domain.order == fig.A.order * 2


class TestIsEquivalence:
    def test_identity_on_stiff_graph_returns_identity_inverse(self):
        # on a stiff graph homotopy classes are rigid, so the first working
        # inverse candidate is the identity itself
        fig = build_figure3()
        cert = is_equivalence(identity_map(fig.B))
        assert cert is not None
        assert cert.inverse == identity_map(fig.B)
        assert len(cert.hom_to_identity_domain) == 0
        assert cert.verify()

    def test_identity_on_contractible_graph_still_certifies(self):
        fig = build_figure3()
        cert = is_equivalence(identity_map(fig.C))
        assert cert is not None and cert.verify()

    def test_fold_map_is_an_equivalence(self):
        fig = build_figure3()
        _, fold_map = apply_fold(fig.C, "3", "4")
        cert = is_equivalence(fold_map)
        assert cert is not None and cert.verify()

    def test_figure3_inclusion_has_no_inverse(self):
        fig = build_figure3()
        assert is_equivalence(fig.f) is None

    def test_budget_surfaces(self):
        from xhomotopy import BudgetExceeded

        fig = build_figure1()
        with pytest.raises(BudgetExceeded):
            is_equivalence(identity_map(fig.B), budget=3)


class TestGraphsEquivalent:
    def test_figure1_pair(self):
        fig = build_figure1()
        comparison = graphs_equivalent(fig.B, fig.A)
        assert comparison.equivalent
        assert set(comparison.left_reduction.result.vertices) == set("xyz123")

    def test_stiff_non_isomorphic_pair(self):
        comparison = graphs_equivalent(cycle(6), complete(2))
        assert not comparison.equivalent

    def test_reflexive(self):
        fig = build_figure3()
        assert graphs_equivalent(fig.D, fig.D).equivalent


class TestHomotopyClasses:
    def test_edgeless_domain_single_class(self):
        classes = homotopy_classes(make_graph("p"), complete(2))
        assert len(classes) == 1 and len(classes[0]) == 2

    def test_triangle_automorphisms_are_rigid(self):
        classes = homotopy_classes(complete(3), complete(3))
        assert sum(len(c) for c in classes) == 6
        # no loops anywhere: no two distinct automorphisms are one-step
        assert [len(c) for c in classes] == [1] * 6

    def test_empty_domain(self):
        classes = homotopy_classes(make_graph([]), complete(2))
        assert len(classes) == 1 and len(classes[0]) == 1

    def test_classes_partition_and_are_closed(self):
        a = make_graph("uv", ["uv", "uu"])
        b = interval(2)
        classes = homotopy_classes(a, b)
        everything = [m for c in classes for m in c]
        assert len(everything) == len(enumerate_homs(a, b))
        # across-class pairs are never one-step homotopic
        for i, ci in enumerate(classes):
            for j, cj in enumerate(classes):
                if i < j:
                    assert not any(one_step_homotopic(f, g) for f in ci for g in cj)


class TestHomotopyIsACongruence:
    def test_composition_respects_homotopy(self):
        fig = build_figure2()
        comparator = figure2_fold_comparator()
        assert are_homotopic(fig.f, comparator) is not None
        post = graph_map(fig.B, fig.B, {"a": "b", "b": "c", "c": "a"})
        assert are_homotopic(compose(post, fig.f), compose(post, comparator)) is not None
        pre_domain = make_graph("st", ["st"])
        pre = graph_map(pre_domain, fig.A, {"s": "1", "t": "2"})
        assert are_homotopic(compose(fig.f, pre), compose(comparator, pre)) is not None


class TestHomotopicToEquivalence:
    def test_figure2_map_inherits_equivalence(self):
        fig = build_figure2()
        comparator = figure2_fold_comparator()
        assert is_equivalence(comparator) is not None
        assert are_homotopic(fig.f, comparator) is not None
        assert is_equivalence(fig.f) is not None


def test_fold_maps_are_equivalences_at_desk_scale():
    rng = random.Random(41)
    confirmed = 0
    while confirmed < 12:
        g = random_graph(rng, rng.randint(2, 6))
        pairs = foldable_pairs(g)
        if not pairs:
            continue
        removed, target = rng.choice(pairs)
        _, fold_map = apply_fold(g, removed, target)
        cert = is_equivalence(fold_map)
        assert cert is not None and cert.verify()
        confirmed += 1


def test_two_of_six_for_strict_class_on_generated_chains():
    rng = random.Random(99)
    for _ in range(5):
        from xhomotopy.generators import random_equivalence_triple

        f, g, h = random_equivalence_triple(rng, max_start=3, steps=2)
        assert is_equivalence(compose(g, f)) is not None
        assert is_equivalence(compose(h, g)) is not None
        for m in (f, g, h, compose(h, compose(g, f))):
            assert is_equivalence(m) is not None


def test_equivalence_matches_stiff_criterion_on_small_sample():
    rng = random.Random(5)
    for _ in range(15):
        a = random_graph(rng, rng.randint(0, 4), prefix="a")
        b = random_graph(rng, rng.randint(0, 4), prefix="b")
        stiff_says = graphs_equivalent(a, b).equivalent
        brute = _exists_equivalence(a, b)
        assert brute == stiff_says


def _exists_equivalence(a, b):
    order_a = a.sorted_vertices
    order_b = b.sorted_vertices
    homs_ab = enumerate_homs(a, b)
    homs_ba = enumerate_homs(b, a)
    if not homs_ab or not homs_ba:
        return a.order == 0 and b.order == 0
    class_of_a = {}
    for idx, cls in enumerate(homotopy_classes(a, a)):
        for m in cls:
            class_of_a[tuple(m(v) for v in order_a)] = idx
    class_of_b = {}
    for idx, cls in enumerate(homotopy_classes(b, b)):
        for m in cls:
            class_of_b[tuple(m(v) for v in order_b)] = idx
    id_a = class_of_a[tuple(order_a)]
    id_b = class_of_b[tuple(order_b)]
    for f in homs_ab:
        for g in homs_ba:
            gf = tuple(g(f(v)) for v in order_a)
            fg = tuple(f(g(v)) for v in order_b)
            if class_of_a[gf] == id_a and class_of_b[fg] == id_b:
                return True
    return False


# SHA-256 of homotopy_dump(range(120)).  Its is_equivalence entries are
# checked against the materializing loop by
# test_inverse_search_on_the_recorded_homotopy_cases_matches_the_materializing_loop
HOMOTOPY_DIGEST = "31644bd02256cf1688046b15318487a32feea367b3fb639f9d555fb5daa249dc"


def _attempt(fn):
    try:
        return ["ok", fn()]
    except GraphError as exc:
        return ["error", type(exc).__name__, str(exc)]


def _chain(cert):
    return None if cert is None else cert.to_json()


def _equivalence(cert):
    if cert is None:
        return None
    return [list(cert.inverse.assignment), _chain(cert.hom_to_identity_domain), _chain(cert.hom_to_identity_codomain)]


def _homotopy_inputs(i):
    rng = random.Random(10_000 + i)
    a = random_graph(rng, rng.randint(0, 3), prefix="a")
    b = random_graph(rng, rng.randint(1, 4), prefix="b")
    homs = enumerate_homs(a, b)
    picks = [rng.choice(homs) for _ in range(2)] if homs else []
    equiv = random_equivalence(rng, random_graph(rng, rng.randint(1, 3)), 2, "w")
    return a, b, picks, equiv


def _homotopy_case(i):
    a, b, picks, equiv = _homotopy_inputs(i)
    out = []
    for budget in (None, 5, 50):
        out.append(_attempt(lambda: [[list(m.assignment) for m in cls] for cls in homotopy_classes(a, b, budget)]))
        out.append(_attempt(lambda: _equivalence(is_equivalence(equiv, budget))))
        if picks:
            f, g = picks
            out.append(_attempt(lambda: _chain(are_homotopic(f, g, budget))))
            out.append(_attempt(lambda: [list(m.assignment) for m in one_step_neighbors(f, budget)]))
            out.append(_attempt(lambda: _equivalence(is_equivalence(f, budget))))
    return out


def homotopy_dump(seeds):
    digest = hashlib.sha256()
    for i in seeds:
        digest.update(json.dumps(_homotopy_case(i), sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def test_homotopy_outputs_match_recorded_digest():
    assert homotopy_dump(range(120)) == HOMOTOPY_DIGEST


# SHA-256 of label_order_dump(range(150)): the searches run on index
# tuples, and index order must stay label order
LABEL_ORDER_DIGEST = "f674a32bf770e163c6c6e21d999475c3a83cdfa198b0f5366116ffeee32fd23d"


def _label_order_graph(rng, n, prefix, start):
    """A seeded random graph on labels prefix+start ... whose numbers run
    past 9, so label order differs from number order, in a shuffled
    vertex tuple."""
    G = random_graph(rng, n, prefix="t")
    names = {f"t{k}": f"{prefix}{start + k}" for k in range(n)}
    verts = [names[v] for v in G.vertices]
    rng.shuffle(verts)
    return Graph(tuple(verts), frozenset((names[u], names[v]) for u, v in G.edges))


def _label_order_case(i):
    rng = random.Random(40_000 + i)
    a = _label_order_graph(rng, rng.randint(0, 4), "a", 7)
    b = _label_order_graph(rng, rng.randint(1, 4), "b", 8)
    homs = enumerate_homs(a, b)
    picks = [rng.choice(homs) for _ in range(2)] if homs else []
    out = []
    for budget in (None, 5, 50):
        out.append(_attempt(lambda: [list(key) for key in enumerate_hom_assignments(a, b, budget)]))
        out.append(_attempt(lambda: [[list(m.assignment) for m in cls] for cls in homotopy_classes(a, b, budget)]))
        out.append(_attempt(lambda: _equivalence(is_equivalence(identity_map(b), budget))))
        if picks:
            f, g = picks
            out.append(_attempt(lambda: _chain(are_homotopic(f, g, budget))))
            out.append(_attempt(lambda: [list(m.assignment) for m in one_step_neighbors(f, budget)]))
            out.append(_attempt(lambda: _equivalence(is_equivalence(homs[0], budget))))
    return out


def label_order_dump(seeds):
    digest = hashlib.sha256()
    for i in seeds:
        digest.update(json.dumps(_label_order_case(i), sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def test_label_order_outputs_match_recorded_digest():
    assert label_order_dump(range(150)) == LABEL_ORDER_DIGEST


# SHA-256 of fine_budget_dump(range(120)): where each search stops at budgets
# between and beyond HOMOTOPY_DIGEST's, exception text included
FINE_BUDGET_DIGEST = "e60c8b733ea3515d81bf6c6d0050c2412187bc3e1fee05cea0d4b120ac8d5eaa"


def _fine_budget_case(i):
    a, b, picks, equiv = _homotopy_inputs(i)
    maps = [equiv, identity_map(a), identity_map(b), *picks[:1]]
    point, path = make_graph(["p"], [("p", "p")]), interval(i % 20)
    ends = [graph_map(point, path, {"p": end}) for end in (0, i % 20)]
    out = []
    for budget in (0, 1, 3, 12, 200, 2000):
        out.append(_attempt(lambda: [[list(m.assignment) for m in cls] for cls in homotopy_classes(a, b, budget)]))
        for f in maps:
            out.append(_attempt(lambda: _equivalence(is_equivalence(f, budget))))
        if picks:
            f, g = picks
            out.append(_attempt(lambda: _chain(are_homotopic(f, g, budget))))
        # the two ends of a looped path, from a looped point: each expansion
        # is cheap, so the visit count, not the hom search, runs out
        out.append(_attempt(lambda: _chain(are_homotopic(*ends, budget))))
    return out


def fine_budget_dump(seeds):
    digest = hashlib.sha256()
    for i in seeds:
        digest.update(json.dumps(_fine_budget_case(i), sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def test_fine_budget_outputs_match_recorded_digest():
    assert fine_budget_dump(range(120)) == FINE_BUDGET_DIGEST


def test_fine_budget_cases_reach_every_kind_of_stop():
    kinds = set()
    for i in range(120):
        for entry in _fine_budget_case(i):
            kinds.add(entry[2].rsplit(" of ", 1)[0] if entry[0] == "error" else "ok")
    assert kinds == {"ok", "hom enumeration exceeded budget", "homotopy search exceeded budget"}


def _materializing_is_equivalence(f, budget=None):
    """The inverse search before it ran on image tuples: every candidate is
    built and composed as a validated map and tested with are_homotopic
    from the identity of each side, the smaller side first, each chain
    reversed to end at the identity."""
    A, B = f.domain, f.codomain
    order = (0, 1) if A.order <= B.order else (1, 0)
    for g in enumerate_homs(B, A, budget=budget):
        sides = [(A, compose(g, f)), (B, compose(f, g))]
        chains = [None, None]
        for side in order:
            G, composite = sides[side]
            cert = are_homotopic(identity_map(G), composite, budget)
            if cert is None:
                break
            chains[side] = HomotopyCertificate(cert.chain[::-1])
        else:
            return EquivalenceCertificate(f, g, *chains)
    return None


def _inverse_search_maps(i):
    """Seeded maps for the inverse-search differential: a random equivalence
    chain, a random hom, a random endomorphism and an identity."""
    rng = random.Random(20_000 + i)
    maps = [random_equivalence(rng, random_graph(rng, rng.randint(1, 4)), rng.randint(1, 3), "w")]
    a = random_graph(rng, rng.randint(1, 4), prefix="a")
    b = random_graph(rng, rng.randint(1, 4), prefix="b")
    for dom, cod in ((a, b), (a, a)):
        homs = enumerate_homs(dom, cod)
        if homs:
            maps.append(rng.choice(homs))
    maps.append(identity_map(b))
    return maps


def _check_against_materializing_loop(f, budget):
    """The loop's result at ``budget``, after checking is_equivalence against
    it: equal without a budget; with one, equal, or the loop ran out and
    is_equivalence, which never searches more, returns the unbounded answer
    or also runs out."""
    expected = _attempt(lambda: _equivalence(_materializing_is_equivalence(f, budget)))
    got = _attempt(lambda: _equivalence(is_equivalence(f, budget)))
    if budget is None or got == expected:
        assert got == expected
        return expected
    assert expected[:2] == ["error", "BudgetExceeded"]
    if got[0] != "error":
        assert got == _attempt(lambda: _equivalence(_materializing_is_equivalence(f)))
    else:
        assert got[1] == "BudgetExceeded"
    return expected


def test_inverse_search_on_image_tuples_matches_the_materializing_loop():
    kinds = set()
    for i in range(80):
        for f in _inverse_search_maps(i):
            for budget in (None, 5, 50):
                expected = _check_against_materializing_loop(f, budget)
                kinds.add(expected[2].split()[0] if expected[0] == "error" else expected[1] is None)
    # certificates, definitive negatives and budget stops all occur
    assert kinds == {True, False, "hom"}


def test_inverse_search_on_the_recorded_homotopy_cases_matches_the_materializing_loop():
    for i in range(120):
        _, _, picks, equiv = _homotopy_inputs(i)
        for f in [equiv, *picks[:1]]:
            for budget in (None, 5, 50):
                _check_against_materializing_loop(f, budget)


def test_figure1_inverse_search_builds_only_the_certificate(monkeypatch):
    calls = []
    validate = core.find_map_violation

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(core, "find_map_violation", counting)
    cert = is_equivalence(build_figure1().g)
    assert cert is not None
    # Hom(B, A) holds 94,493 maps; only the returned certificate is built
    assert len(calls) < 100


def _record_explores(monkeypatch):
    calls = []
    explore = homotopy._explore

    def recording(*args):
        calls.append(args)
        return explore(*args)

    monkeypatch.setattr(homotopy, "_explore", recording)
    return calls


def test_identity_shares_one_component_search(monkeypatch):
    calls = _record_explores(monkeypatch)
    cert = is_equivalence(identity_map(build_figure3().C))
    assert cert is not None and cert.verify()
    # one search holds both goals, gf and fg
    assert len(calls) == 1 and len(calls[0][4]) == 2


def test_equivalence_searches_the_smaller_graph_first(monkeypatch):
    calls = _record_explores(monkeypatch)
    fig = build_figure3()
    _, fold_map = apply_fold(fig.C, "3", "4")
    assert is_equivalence(fold_map) is not None
    assert [args[0].order for args in calls] == [fig.C.order - 1, fig.C.order]


def test_explore_without_goals_exhausts_the_component():
    # the looped path I_4 from a looped point: five maps in one component
    point, path = make_graph(["p"], [("p", "p")]), interval(4)
    parents = {}
    homotopy._explore(point, path, parents, (0,), (), 100)
    assert parents == {(0,): None, (1,): (0,), (2,): (1,), (3,): (2,), (4,): (3,)}
    # a goal stops the search after the expansion that visits it
    parents = {}
    homotopy._explore(point, path, parents, (0,), ((1,),), 100)
    assert parents == {(0,): None, (1,): (0,)}
    parents = {}
    homotopy._explore(point, path, parents, (2,), ((2,),), 100)
    assert parents == {(2,): None}
    # the budget counts visits already in the caller's dict
    with pytest.raises(BudgetExceeded, match="homotopy search exceeded budget of 6"):
        homotopy._explore(point, path, {(9,): None, (8,): None}, (0,), (), 6)


@pytest.mark.parametrize("seed", [0, 1])
def test_identity_of_a_ten_vertex_random_graph_is_in_the_strict_class(seed):
    started = time.monotonic()
    verdict = in_W_times(identity_map(random_graph(random.Random(seed), 10)))
    assert verdict.verdict == "in" and verdict.certificate.verify()
    assert time.monotonic() - started < 10


def _class_partition_oracle(A, B):
    """Independent oracle for maps A -> B: f has an inverse when some g in
    Hom(B, A) has gf and fg in the identity classes of the class partitions
    of End(A) and End(B)."""
    class_of = {}
    for G in (A, B):
        for idx, cls in enumerate(homotopy_classes(G, G)):
            for m in cls:
                class_of[G, tuple(m(v) for v in G.sorted_vertices)] = idx
    identity = {G: class_of[G, G.sorted_vertices] for G in (A, B)}
    homs_ba = [g.mapping for g in enumerate_homs(B, A)]

    def has_inverse(f):
        image = f.mapping
        return any(
            class_of[A, tuple(g[image[v]] for v in A.sorted_vertices)] == identity[A]
            and class_of[B, tuple(image[g[v]] for v in B.sorted_vertices)] == identity[B]
            for g in homs_ba
        )

    return has_inverse


def test_negative_verdicts_match_the_class_partition_oracle():
    # graphs whose stiff subgraphs are isomorphic, so phi = r_B o f o i_A
    # fails only on the map, never on the graphs
    special = [
        make_graph(()),
        make_graph(["p"]),
        make_graph(["p"], [("p", "p")]),
        make_graph(["p", "q"]),
        make_graph(["p", "q"], [("p", "p"), ("p", "q")]),
        make_graph(["p", "q", "s"], [("p", "q")]),
    ]
    rng = random.Random(8128)
    graphs = special + [random_graph(rng, rng.randint(0, 4), prefix="r") for _ in range(40)]
    outcomes = set()
    pairs = 0
    for a in graphs:
        for b in rng.sample(graphs, 6) + [a]:
            if not graphs_equivalent(a, b).equivalent:
                continue
            pairs += 1
            has_inverse = _class_partition_oracle(a, b)
            for f in enumerate_homs(a, b):
                verdict = is_equivalence(f) is not None
                assert verdict == has_inverse(f)
                outcomes.add(verdict)
                if not verdict:
                    # read off the stiff cores: no search, no budget spent
                    assert is_equivalence(f, budget=0) is None
    assert pairs > 40 and outcomes == {True, False}


def test_figure1_equivalence_enumerates_few_hom_tuples(monkeypatch):
    found = []
    enumerate_tuples = homotopy._homs

    def counting(*args, **kwargs):
        keys = enumerate_tuples(*args, **kwargs)
        found.append(len(keys))
        return keys

    monkeypatch.setattr(homotopy, "_homs", counting)
    assert is_equivalence(build_figure1().g) is not None
    # Hom(B, A) holds 94,493 tuples; only the inverses phi allows are listed
    assert sum(found) < 1000


def test_figure3_negative_runs_no_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("no search expected")

    monkeypatch.setattr(homotopy, "_homs", forbidden)
    monkeypatch.setattr(homotopy, "_explore", forbidden)
    assert is_equivalence(build_figure3().f) is None


def test_figure3_negative_spends_no_budget():
    assert in_W_times(build_figure3().f, budget=1).verdict == "out"
