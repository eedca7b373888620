import random

import pytest

from xhomotopy import Graph, GraphMap, SignatureMismatch, folds, identity_map, make_graph, weq
from xhomotopy.claims import build_figure1, build_figure3
from xhomotopy.folds import apply_fold
from xhomotopy.core import _norm_edge
from xhomotopy.generators import random_equivalence, random_graph
from xhomotopy.homotopy import is_equivalence
from xhomotopy.search import is_isomorphic
from xhomotopy.weq import (
    COPY_INDUCED,
    COPY_SUBGRAPH,
    IMAGE_INDUCED,
    IMAGE_SUBGRAPH,
    IN,
    OUT,
    UNKNOWN,
    WMembershipVerdict,
    WSemantics,
    WWitness,
    check_two_of_six,
    check_two_of_three,
    in_W,
    in_W_times,
)


def fig3_fold_map():
    fig = build_figure3()
    _, fold = apply_fold(fig.C, "3", "4")
    return fold


class TestStrictClass:
    def test_fold_maps_are_in(self):
        verdict = in_W_times(fig3_fold_map())
        assert verdict.verdict == IN and verdict.certificate.verify()

    def test_figure3_inclusion_is_out(self):
        fig = build_figure3()
        assert in_W_times(fig.f).verdict == OUT

    def test_identity_is_in(self):
        fig = build_figure3()
        assert in_W_times(identity_map(fig.B)).verdict == IN

    def test_budget_becomes_unknown_not_an_error(self):
        fig = build_figure1()
        verdict = in_W_times(identity_map(fig.B), budget=3)
        assert verdict.verdict == UNKNOWN and verdict.detail


class TestRelaxedClass:
    def test_figure1_inclusion_in(self):
        fig = build_figure1()
        assert in_W(fig.f).verdict == IN

    def test_figure1_collapse_out_with_reverifiable_witness(self):
        fig = build_figure1()
        verdict = in_W(fig.g)
        assert verdict.verdict == OUT
        assert verdict.witness is not None
        assert verdict.witness.failure == "non-injective"
        assert verdict.reverify_witness()

    def test_figure3_inclusion_out_by_image_mismatch(self):
        fig = build_figure3()
        verdict = in_W(fig.f)
        assert verdict.verdict == OUT
        assert verdict.witness.failure == "image-mismatch"
        assert verdict.reverify_witness()

    def test_induced_copy_mode_accepts_figure1_collapse(self):
        # under the induced reading no copy fails, which is exactly why the
        # default reading is the subgraph one
        fig = build_figure1()
        verdict = in_W(fig.g, semantics=WSemantics(copy_mode="induced"))
        assert verdict.verdict == IN

    def test_unknown_on_budget(self):
        fig = build_figure1()
        verdict = in_W(fig.g, budget=5)
        assert verdict.verdict == UNKNOWN

    def test_in_verdicts_force_isomorphic_stiff_graphs(self):
        rng = random.Random(23)
        seen_in = 0
        while seen_in < 8:
            g = random_graph(rng, rng.randint(1, 5))
            m = random_equivalence(rng, g, 2, "t")
            verdict = in_W(m)
            if verdict.verdict != IN:
                continue
            seen_in += 1
            left = verdict.domain_reduction.result
            right = verdict.codomain_reduction.result
            assert is_isomorphic(left, right) is not None

    def test_subgraph_membership_implies_induced_membership(self):
        rng = random.Random(29)
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 4))
            m = random_equivalence(rng, g, 1, "s")
            if in_W(m).verdict == IN:
                assert in_W(m, semantics=WSemantics(copy_mode="induced")).verdict == IN


class TestTwoOfThree:
    def test_figure1_violation(self):
        fig = build_figure1()
        report = check_two_of_three(fig.f, fig.g, "in_w")
        assert report.memberships == {"f": IN, "g": OUT, "gf": IN}
        failing = [c for c in report.checks if c.status == "fail"]
        assert [c.name for c in failing] == ["f,gf=>g"]

    def test_folds_compose_cleanly_in_strict_class(self):
        fig = build_figure3()
        first_graph, first = apply_fold(fig.C, "3", "4")
        _, second = apply_fold(first_graph, "4", "1")
        report = check_two_of_three(first, second, "in_w_times")
        assert set(report.memberships.values()) == {IN}
        assert not report.violated()

    def test_identities(self):
        fig = build_figure3()
        report = check_two_of_three(identity_map(fig.B), identity_map(fig.B), "in_w")
        assert set(report.memberships.values()) == {IN}

    def test_composability_required(self):
        fig = build_figure3()
        with pytest.raises(SignatureMismatch):
            check_two_of_three(fig.g, fig.f)


class TestTwoOfSix:
    def test_figure3_hypothesis_met_conclusion_fails(self):
        fig = build_figure3()
        report = check_two_of_six(fig.f, fig.g, fig.h, "in_w")
        assert report.memberships["gf"] == IN and report.memberships["hg"] == IN
        assert report.memberships["f"] == OUT
        assert report.checks[0].status == "fail"

    def test_fold_chain_in_strict_class(self):
        fig = build_figure3()
        g1, m1 = apply_fold(fig.C, "3", "4")
        g2, m2 = apply_fold(g1, "4", "1")
        _, m3 = apply_fold(g2, "2", "1")
        report = check_two_of_six(m1, m2, m3, "in_w_times")
        assert set(report.memberships.values()) == {IN}
        assert report.checks[0].status == "pass"

    def test_identity_chain(self):
        fig = build_figure3()
        ident = identity_map(fig.A)
        report = check_two_of_six(ident, ident, ident, "in_w")
        assert report.checks[0].status == "pass"


def check_named(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


class TestClosureChecks:
    def test_two_folds_compose_in_relaxed_class(self):
        fig = build_figure3()
        g1, m1 = apply_fold(fig.C, "3", "4")
        _, m2 = apply_fold(g1, "4", "1")
        report = check_two_of_three(m1, m2, "in_w")
        assert check_named(report, "f,g=>gf").status == "pass"

    def test_fold_then_unfold(self):
        base = make_graph("abcd", ["ab", "bc", "cd", "ad"])
        smaller, fold = apply_fold(base, "c", "a")  # N(c)={b,d} = N(a)
        unfold = GraphMap(smaller, base, tuple((v, v) for v in smaller.vertices))
        report = check_two_of_three(fold, unfold, "in_w")
        assert check_named(report, "f,g=>gf").status == "pass"

    def test_right_cancellation_vacuous_on_figure3(self):
        fig = build_figure3()
        report = check_two_of_three(fig.f, fig.g, "in_w")
        assert report.memberships["g"] == OUT
        assert check_named(report, "g,gf=>f").status == "vacuous"

    def test_right_cancellation_with_identity(self):
        fig = build_figure3()
        report = check_two_of_three(fig.f, identity_map(fig.B), "in_w")
        assert check_named(report, "g,gf=>f").status == "vacuous"  # f itself is out
        report2 = check_two_of_three(identity_map(fig.B), identity_map(fig.B), "in_w")
        assert check_named(report2, "g,gf=>f").status == "pass"

    def test_capitalised_predicate_aliases_are_gone(self):
        fig = build_figure3()
        with pytest.raises(SignatureMismatch):
            check_two_of_three(identity_map(fig.B), identity_map(fig.B), "in_W")


def test_strict_member_outside_the_default_relaxed_class():
    # a looped point beside a looped edge, collapsed onto two looped points:
    # a homotopy equivalence, but the default semantics takes the looped
    # edge as a (non-induced) copy of the stiff graph and sees it collapse
    a = make_graph(["v0", "v1", "v2"], [("v0", "v0"), ("v1", "v1"), ("v2", "v2"), ("v1", "v2")])
    b = make_graph(["b0", "b1"], [("b0", "b0"), ("b1", "b1")])
    f = GraphMap(a, b, (("v0", "b0"), ("v1", "b1"), ("v2", "b1")))
    strict = in_W_times(f)
    assert strict.verdict == IN and strict.certificate.verify()
    relaxed = in_W(f)
    assert relaxed.verdict == OUT
    assert relaxed.witness.failure == "non-injective"
    assert relaxed.witness.colliding == ("v1", "v2")
    assert relaxed.reverify_witness()


def test_strict_class_members_are_relaxed_class_members():
    # holds for induced copies under either image reading; the default
    # (subgraph copies) fails it, see the test above
    for image_mode in (IMAGE_SUBGRAPH, IMAGE_INDUCED):
        semantics = WSemantics(COPY_INDUCED, image_mode)
        rng = random.Random(31)
        confirmed = 0
        while confirmed < 100:
            g = random_graph(rng, rng.randint(1, 4))
            m = random_equivalence(rng, g, 2, "w")
            if m.domain.order > 6 or m.codomain.order > 6:
                continue
            if in_W_times(m).verdict == IN:
                assert in_W(m, semantics=semantics).verdict == IN
                confirmed += 1


def test_out_witnesses_always_reverify():
    rng = random.Random(37)
    seen_out = 0
    attempts = 0
    while seen_out < 10 and attempts < 400:
        attempts += 1
        a = random_graph(rng, rng.randint(1, 4), prefix="a")
        b = random_graph(rng, rng.randint(1, 4), prefix="b")
        from xhomotopy.search import enumerate_homs

        homs = enumerate_homs(a, b)
        if not homs:
            continue
        verdict = in_W(homs[rng.randrange(len(homs))])
        if verdict.verdict == OUT:
            assert verdict.reverify_witness()
            seen_out += 1
    assert seen_out == 10


# ------------------------------------------------- one core isomorphism test


def per_copy_in_W(f, semantics):
    """Relaxed membership as decided copy by copy: reductions replayed
    through the validating path, and each copy's image rebuilt and tested
    for isomorphism against the codomain's stiff graph.  Also returns the
    number of copies that reached the isomorphism test."""
    from xhomotopy.core import induced_subgraph
    from xhomotopy.folds import FoldSequence, _fold_down
    from xhomotopy.search import enumerate_copies

    def reduction(G):
        labels = G._compiled[0]
        return FoldSequence.replay(G, [(labels[v], labels[w]) for v, w in _fold_down(G)])

    def image_of_copy(emb):
        images = sorted({f(v) for v in emb.image_vertex_set})
        if semantics.image_mode == IMAGE_SUBGRAPH:
            return Graph(tuple(images), frozenset(_norm_edge(f(u), f(v)) for u, v in emb.image_edges))
        induced = induced_subgraph(f.codomain, images)
        return induced if len(induced.edges) == len(emb.image_edges) else None

    dom_red, cod_red = reduction(f.domain), reduction(f.codomain)
    copies = enumerate_copies(dom_red.result, f.domain, mode=semantics.copy_mode, collapse=True)
    tested = 0
    for count, emb in enumerate(copies, start=1):
        verts = sorted(emb.image_vertex_set)
        images = [f(v) for v in verts]
        if len(set(images)) < len(images):
            seen = {}
            for v, w in zip(verts, images):
                if w in seen:
                    colliding = (seen[w], v)
                    break
                seen[w] = v
            witness = WWitness(emb, "non-injective", colliding, emb.as_map().image_graph())
            return WMembershipVerdict(f, OUT, semantics, witness, count, dom_red, cod_red), tested
        image_graph = image_of_copy(emb)
        tested += image_graph is not None
        if image_graph is None or is_isomorphic(image_graph, cod_red.result) is None:
            shown = image_graph or induced_subgraph(f.codomain, sorted(set(images)))
            witness = WWitness(emb, "image-mismatch", None, shown)
            return WMembershipVerdict(f, OUT, semantics, witness, count, dom_red, cod_red), tested
    return WMembershipVerdict(f, IN, semantics, None, len(copies), dom_red, cod_red), tested


def random_hom(rng, A, B):
    """A random hom A -> B by backtracking over shuffled images; B must
    carry a loop, so one always exists."""
    order = list(A.sorted_vertices)
    chosen = {}

    def extend(k):
        if k == len(order):
            return True
        v = order[k]
        for w in rng.sample(B.sorted_vertices, B.order):
            if all(u not in chosen or B.has_edge(w, chosen[u]) for u in A.neighbors(v) | {v}):
                if v not in A.neighbors(v) or B.has_edge(w, w):
                    chosen[v] = w
                    if extend(k + 1):
                        return True
                    del chosen[v]
        return False

    assert extend(0)
    return GraphMap(A, B, tuple(chosen.items()))


def differential_maps(seed):
    """Seeded maps of three kinds: random homs into looped codomains,
    random equivalence composites, and maps out of the empty graph."""
    rng = random.Random(seed)
    kind = seed % 5
    if kind == 4:
        return GraphMap(make_graph(()), random_graph(rng, rng.randint(0, 4), prefix="b"), ())
    if kind == 3:
        return random_equivalence(rng, random_graph(rng, rng.randint(1, 4)), 3, "e")
    A = random_graph(rng, rng.randint(1, 6), prefix="a")
    B = random_graph(rng, rng.randint(1, 5), rng.choice([0.3, 0.6]), prefix="b")
    looped = rng.choice(B.sorted_vertices)
    B = make_graph(B.vertices, B.edge_list() + [(looped, looped)])
    return random_hom(rng, A, B)


def verdict_record(v):
    w = v.witness
    return (
        v.verdict,
        v.copies_checked,
        None if w is None else (w.embedding, w.failure, w.colliding, w.image_graph.vertices, w.image_graph.edges),
        v.domain_reduction.to_json(),
        v.codomain_reduction.to_json(),
        v.domain_reduction.composite,
        v.codomain_reduction.composite,
        v.reverify_witness(),
    )


ALL_SEMANTICS = [WSemantics(c, i) for c in (COPY_SUBGRAPH, COPY_INDUCED) for i in (IMAGE_SUBGRAPH, IMAGE_INDUCED)]


@pytest.mark.parametrize("chunk", range(5))
def test_in_W_matches_the_per_copy_isomorphism_reference(chunk, monkeypatch):
    calls = []
    monkeypatch.setattr(weq, "is_isomorphic", lambda G, H: calls.append(1) or is_isomorphic(G, H))
    outcomes = set()
    for seed in range(chunk * 250, chunk * 250 + 250):
        f = differential_maps(seed)
        for semantics in ALL_SEMANTICS:
            calls.clear()
            got = in_W(f, semantics)
            tested = len(calls)
            expected, reached = per_copy_in_W(f, semantics)
            assert verdict_record(got) == verdict_record(expected), (seed, semantics)
            # one core test, at the first copy that reaches it, and none
            # when no copy gets that far
            assert tested == min(reached, 1), (seed, semantics)
            outcomes.add((got.verdict, got.witness and got.witness.failure))
    assert outcomes == {(IN, None), (OUT, "non-injective"), (OUT, "image-mismatch")}


def test_first_failing_copy_non_injective_spends_no_isomorphism_test(monkeypatch):
    calls = []
    monkeypatch.setattr(weq, "is_isomorphic", lambda G, H: calls.append(1) or is_isomorphic(G, H))
    two_points = make_graph("xy", ["xx", "yy"])
    point = make_graph("p", ["pp"])
    verdict = in_W(GraphMap(two_points, point, (("x", "p"), ("y", "p"))))
    assert verdict.witness.failure == "non-injective" and verdict.copies_checked == 1
    assert calls == []


def test_one_fold_down_per_graph_across_membership_calls(monkeypatch):
    counted = {}
    real = folds._fold_down

    def counting(G, rng=None):
        counted[id(G)] = counted.get(id(G), 0) + 1
        return real(G, rng)

    monkeypatch.setattr(folds, "_fold_down", counting)
    rng = random.Random(41)
    kept = []
    for seed in range(20):
        f = differential_maps(seed)
        g = random_hom(rng, f.codomain, make_graph(["c0", "c1"], [("c0", "c0"), ("c0", "c1")]))
        kept.append((f, g))
        for semantics in ALL_SEMANTICS:
            in_W(f, semantics).reverify_witness()
        is_equivalence(identity_map(f.domain))
        is_equivalence(identity_map(f.codomain))
        check_two_of_three(f, g)
    assert counted and set(counted.values()) == {1}
