"""Maps and embeddings stored as proven equal their validated rebuilds.

Engine results, composites, identities, copies as maps and fold maps skip
the validating constructor.  Each site is checked on seeded random graphs
whose vertex tuples are shuffled, so construction order differs from the
sorted-label order the stored assignments must follow.
"""

import random

import pytest

from xhomotopy import core
from xhomotopy.core import (
    BadParameter,
    BudgetExceeded,
    Embedding,
    Graph,
    GraphError,
    GraphMap,
    NotAGraphMap,
    UnknownVertex,
    compose,
    identity_map,
    induced_subgraph,
    make_graph,
    relabel,
)
from xhomotopy.constructions import complete
from xhomotopy.folds import FoldSequence, apply_fold, foldable_pairs, stiff_reduction
from xhomotopy.generators import random_equivalence, random_graph, random_unfold_map
from xhomotopy.homotopy import are_homotopic, homotopy_classes, is_equivalence, one_step_neighbors
from xhomotopy.search import enumerate_copies, enumerate_homs, is_isomorphic

MODES = ("subgraph", "induced")


def shuffled_graph(rng, n, prefix):
    """A seeded random graph whose vertex tuple is in shuffled order."""
    G = random_graph(rng, n, prefix=prefix)
    verts = list(G.vertices)
    rng.shuffle(verts)
    return Graph(tuple(verts), G.edges)


def assert_revalidates(m):
    assert type(m) is GraphMap
    assert m.assignment == tuple(sorted(m.assignment))
    rebuilt = GraphMap(m.domain, m.codomain, m.assignment)
    assert rebuilt == m and hash(rebuilt) == hash(m)


def assert_embedding_revalidates(e):
    assert type(e) is Embedding
    assert e.vertex_image == tuple(sorted(e.vertex_image))
    assert e.check()
    rebuilt = Embedding(e.pattern, e.host, e.vertex_image, e.mode)
    assert rebuilt == e and hash(rebuilt) == hash(e)
    as_map = e.as_map()
    assert_revalidates(as_map)
    assert (as_map.domain, as_map.codomain, as_map.assignment) == (e.pattern, e.host, e.vertex_image)


def graph_pair(seed):
    rng = random.Random(seed)
    return shuffled_graph(rng, rng.randint(0, 4), "a"), shuffled_graph(rng, rng.randint(1, 4), "b")


@pytest.mark.parametrize("seed", range(40))
def test_engine_homs_compose_and_identities_revalidate(seed):
    A, B = graph_pair(seed)
    homs = enumerate_homs(A, B)
    for m in homs:
        assert_revalidates(m)
    assert_revalidates(identity_map(A))
    assert_revalidates(identity_map(B))
    backs = enumerate_homs(B, A)[:6]
    for f in homs[:6]:
        assert_revalidates(compose(identity_map(B), f))
        assert_revalidates(compose(f, identity_map(A)))
        for g in backs:
            assert_revalidates(compose(g, f))
            assert_revalidates(compose(f, g))


@pytest.mark.parametrize("seed", range(40))
def test_homotopy_results_revalidate(seed):
    A, B = graph_pair(seed)
    for cls in homotopy_classes(A, B):
        for m in cls:
            assert_revalidates(m)
    homs = enumerate_homs(A, B)
    if homs:
        rng = random.Random(seed)
        f, g = rng.choice(homs), rng.choice(homs)
        for m in one_step_neighbors(f):
            assert_revalidates(m)
        cert = are_homotopic(f, g)
        for m in () if cert is None else cert.chain:
            assert_revalidates(m)
    rng = random.Random(seed)
    for f in [random_equivalence(rng, shuffled_graph(rng, rng.randint(1, 4), "w"), 3, "e")] + homs[:4]:
        cert = is_equivalence(f)
        if cert is not None:
            assert cert.verify()
            assert_revalidates(cert.inverse)
            for m in cert.hom_to_identity_domain.chain + cert.hom_to_identity_codomain.chain:
                assert_revalidates(m)


@pytest.mark.parametrize("seed", range(40))
def test_isomorphism_witness_revalidates(seed):
    rng = random.Random(seed)
    G = shuffled_graph(rng, rng.randint(0, 7), "g")
    fresh = [f"h{k}" for k in range(G.order)]
    rng.shuffle(fresh)
    H = relabel(G, dict(zip(G.vertices, fresh)))
    witness = is_isomorphic(G, H)
    assert witness is not None
    assert_revalidates(witness)


@pytest.mark.parametrize("seed", range(40))
def test_copies_revalidate_in_both_modes(seed):
    rng = random.Random(seed)
    pattern = shuffled_graph(rng, rng.randint(0, 3), "p")
    host = shuffled_graph(rng, rng.randint(1, 6), "h")
    for mode in MODES:
        for collapse in (False, True):
            for e in enumerate_copies(pattern, host, mode, collapse=collapse):
                assert e.mode == mode
                assert_embedding_revalidates(e)


@pytest.mark.parametrize("seed", range(40))
def test_fold_maps_and_replay_composites_revalidate(seed):
    rng = random.Random(seed)
    G = shuffled_graph(rng, rng.randint(1, 8), "v")
    for removed, target in foldable_pairs(G):
        smaller, fold_map = apply_fold(G, removed, target)
        assert fold_map.codomain == smaller
        assert_revalidates(fold_map)
    for policy, fold_seed in (("first", None), ("random", seed)):
        seq = stiff_reduction(G, policy, seed=fold_seed)
        assert_revalidates(seq.composite)
        replayed = FoldSequence.replay(G, seq.steps)
        assert_revalidates(replayed.composite)
        assert replayed == seq


def assert_graph_revalidates(G):
    """G equals its validated rebuild, and every cached attribute already
    stored on it equals a fresh computation on that rebuild."""
    assert type(G) is Graph
    rebuilt = Graph(G.vertices, G.edges)
    assert rebuilt == G and hash(rebuilt) == hash(G)
    assert "_compiled" not in vars(G)
    for name in ("adjacency", "vertex_set", "sorted_vertices"):
        if name in vars(G):
            assert getattr(G, name) == getattr(rebuilt, name)
    if "adjacency" in vars(G):
        assert list(G.adjacency) == list(rebuilt.adjacency)


@pytest.mark.parametrize("seed", range(40))
def test_unfold_chains_revalidate(seed):
    rng = random.Random(seed)
    G = shuffled_graph(rng, rng.randint(0, 5), "v")
    for k in range(rng.randint(1, 12)):
        incl = random_unfold_map(rng, G, f"u{k}")
        assert_revalidates(incl)
        assert incl.domain is G
        G = incl.codomain
        assert_graph_revalidates(G)


def _error(fn):
    try:
        fn()
    except GraphError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("fresh", ["", "u v", "u-v", "tab\t", "v0", "v3", 7])
def test_unfold_rejects_a_bad_or_duplicate_label_as_the_constructor_does(fresh):
    G = random_graph(random.Random(3), 4)
    expected = _error(lambda: Graph(G.vertices + (fresh,), G.edges))
    assert expected is not None
    assert _error(lambda: random_unfold_map(random.Random(1), G, fresh)) == expected


@pytest.mark.parametrize("seed", range(40))
def test_induced_subgraphs_revalidate(seed):
    rng = random.Random(seed)
    G = shuffled_graph(rng, rng.randint(0, 7), "v")
    keep = [v for v in G.vertices if rng.random() < 0.5]
    rng.shuffle(keep)
    sub = induced_subgraph(G, keep)
    assert_graph_revalidates(sub)
    assert sub.vertices == tuple(v for v in G.vertices if v in keep)
    assert sub == Graph(sub.vertices, frozenset(e for e in G.edges if set(e) <= set(keep)))
    with pytest.raises(UnknownVertex, match="no vertex 'zz'"):
        induced_subgraph(G, keep + ["zz"])


def label_collapse(copies):
    """First copy per (image vertex set, image edge set), on labels."""
    seen = set()
    kept = []
    for e in copies:
        sig = (e.image_vertex_set, e.image_edges)
        if sig not in seen:
            seen.add(sig)
            kept.append(e)
    return kept


def _attempt(fn):
    try:
        return fn()
    except BudgetExceeded as exc:
        return ("budget", exc.limit)


@pytest.mark.parametrize("seed", range(60))
def test_raw_collapse_matches_label_collapse(seed):
    rng = random.Random(1000 + seed)
    pattern = shuffled_graph(rng, rng.randint(0, 4), "p")
    host = shuffled_graph(rng, rng.randint(1, 6), "h")
    for mode in MODES:
        for budget in (None, 0, 7, 40, 200):
            collapsed = _attempt(lambda: enumerate_copies(pattern, host, mode, budget, collapse=True))
            reference = _attempt(lambda: label_collapse(enumerate_copies(pattern, host, mode, budget)))
            assert collapsed == reference


def test_collapse_keeps_copies_on_one_vertex_set_with_different_edges():
    path = make_graph("abc", ["ab", "bc"])
    copies = enumerate_copies(path, complete(3), "subgraph", collapse=True)
    assert len(copies) == 3
    assert len({c.image_vertex_set for c in copies}) == 1
    assert copies == label_collapse(enumerate_copies(path, complete(3), "subgraph"))


def test_engine_sites_run_no_validation(monkeypatch):
    """Proven results reach neither find_map_violation nor Embedding.check."""
    rng = random.Random(5)
    G = shuffled_graph(rng, 6, "v")
    H = relabel(G, {v: f"w{k}" for k, v in enumerate(G.vertices)})
    fold_pairs = foldable_pairs(G)

    def refuse(*args, **kwargs):
        raise AssertionError("proven value re-validated")

    monkeypatch.setattr(core, "find_map_violation", refuse)
    monkeypatch.setattr(Embedding, "check", refuse)
    homs = enumerate_homs(G, G)
    compose(homs[-1], homs[0])
    identity_map(G)
    is_isomorphic(G, H)
    homotopy_classes(complete(2), G)
    one_step_neighbors(homs[0])
    assert is_equivalence(identity_map(G)) is not None
    for e in enumerate_copies(complete(2), G, "induced") + enumerate_copies(G, G, collapse=True):
        e.as_map()
    if fold_pairs:
        apply_fold(G, *fold_pairs[0])
    stiff_reduction(G)


class TestPublicConstructorsStillValidate:
    def test_graph_map_rejects_a_non_edge_image(self):
        k2 = make_graph("ab", ["ab"])
        with pytest.raises(NotAGraphMap):
            GraphMap(k2, make_graph("uv"), (("a", "u"), ("b", "v")))

    def test_graph_map_rejects_a_partial_assignment(self):
        k2 = make_graph("ab", ["ab"])
        with pytest.raises(UnknownVertex):
            GraphMap(k2, k2, (("a", "b"),))

    def test_graph_map_rejects_an_image_outside_the_codomain(self):
        points = make_graph("ab")
        with pytest.raises(UnknownVertex):
            GraphMap(points, points, (("a", "a"), ("b", "q")))

    def test_embedding_rejects_a_non_injective_image(self):
        points = make_graph("ab")
        with pytest.raises(BadParameter):
            Embedding(points, make_graph("u", ["uu"]), (("a", "u"), ("b", "u")), "subgraph")

    def test_embedding_rejects_a_missing_edge(self):
        k2 = make_graph("ab", ["ab"])
        with pytest.raises(BadParameter):
            Embedding(k2, make_graph("uv"), (("a", "u"), ("b", "v")), "subgraph")

    def test_embedding_rejects_an_unknown_mode(self):
        k1 = make_graph("a")
        with pytest.raises(BadParameter):
            Embedding(k1, k1, (("a", "a"),), "minor")
