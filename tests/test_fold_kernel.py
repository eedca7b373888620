"""The fold kernel against naive label-set folds, against a kernel that
relists every pair at every step, at scale, and against a recorded digest
of every fold-layer output on seeded inputs."""

import hashlib
import json
import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import seeded_graphs
from xhomotopy import GraphError, GraphMap, compose, identity_map, induced_subgraph, make_graph, relabel
from xhomotopy import folds
from xhomotopy.folds import (
    FoldSequence,
    _fold_down,
    apply_fold,
    confluence_check,
    foldable_pairs,
    is_quasi_cofibration,
    is_stiff,
    is_unfold,
    stiff_reduction,
)
from xhomotopy.generators import random_graph, random_unfold_map

# SHA-256 of fold_layer_dump(range(150)), recorded on the label-set fold code
FOLD_LAYER_DIGEST = "9440a4462f286fb827ba9a6deeb971a5aea44fe5c081e4c06eaf5546c208d702"


def naive_foldable_pairs(G):
    return [
        (v, w)
        for v in G.sorted_vertices
        for w in G.sorted_vertices
        if w != v and G.neighbors(v) <= G.neighbors(w)
    ]


@given(seeded_graphs(max_vertices=9))
@settings(max_examples=80)
def test_foldable_pairs_match_naive_neighbourhood_containment(g):
    assert foldable_pairs(g) == naive_foldable_pairs(g)
    assert is_stiff(g) == (naive_foldable_pairs(g) == [])


@given(seeded_graphs(max_vertices=8), st.integers(0, 255))
@settings(max_examples=60)
def test_quasi_cofibration_stages_match_induced_subgraph_folds(host, mask):
    protected = [v for k, v in enumerate(host.sorted_vertices) if mask >> k & 1]
    sub = induced_subgraph(host, protected)
    trace = is_quasi_cofibration(GraphMap(sub, host, tuple((v, v) for v in protected)))
    for stage in trace.stages + trace.stuck:
        pairs = foldable_pairs(induced_subgraph(host, stage.survivors))
        assert stage.relative == tuple(p for p in pairs if p[0] not in protected)
        assert stage.restricted == tuple(p for p in pairs if p[0] in protected)


def test_long_path_reduces_to_an_edge_quickly():
    n = 1500
    path = make_graph([f"p{i:04d}" for i in range(n)], [(f"p{i:04d}", f"p{i + 1:04d}") for i in range(n - 1)])
    began = time.perf_counter()
    seq = stiff_reduction(path)
    assert time.perf_counter() - began < 10
    assert len(seq.steps) == n - 2
    assert seq.result == make_graph(["p1498", "p1499"], [("p1498", "p1499")])
    assert seq.composite("p0000") in ("p1498", "p1499")


def test_long_path_reduces_to_an_edge_quickly_under_random():
    n = 1500
    path = make_graph([f"p{i:04d}" for i in range(n)], [(f"p{i:04d}", f"p{i + 1:04d}") for i in range(n - 1)])
    began = time.perf_counter()
    seq = stiff_reduction(path, "random", seed=7)
    assert time.perf_counter() - began < 1
    assert len(seq.steps) == n - 2
    (u, v), = seq.result.edges
    assert seq.result.order == 2 and u != v


def relist_fold_down(G, rng=None):
    """Reference fold-down that relists every foldable pair after each
    removal and draws from the full sorted list."""
    n, adj = G.order, G._compiled[2]
    alive = (1 << n) - 1
    chosen = []
    while True:
        pairs = []
        for v in range(n):
            if alive >> v & 1:
                targets = alive & ~(1 << v)
                for u in range(n):
                    if (adj[v] & alive) >> u & 1:
                        targets &= adj[u]
                pairs += [(v, w) for w in range(n) if targets >> w & 1]
        if not pairs:
            return chosen
        v, w = pairs[0] if rng is None else rng.choice(pairs)
        chosen.append((v, w))
        alive &= ~(1 << v)


def grown_graph(seed):
    """A seeded random graph with loops, grown by unfolds, plus isolated vertices."""
    rng = random.Random(seed)
    G = random_graph(rng, rng.randint(0, 7), rng.choice([0.2, 0.4, 0.6]), rng.choice([0.0, 0.3, 0.7]))
    for k in range(rng.randint(0, 12)):
        G = random_unfold_map(rng, G, f"u{k}").codomain
    isolated = tuple(f"z{k}" for k in range(rng.randint(0, 3)))
    return make_graph(G.vertices + isolated, G.edges)


@pytest.mark.parametrize("chunk", range(8))
def test_target_mask_kernel_matches_the_relisting_kernel(chunk):
    graphs = [grown_graph(seed) for seed in range(chunk * 50, chunk * 50 + 50)] + [make_graph(())]
    for i, G in enumerate(graphs):
        assert _fold_down(G) == relist_fold_down(G)
        for fold_seed in (i, 10_000 + i):
            rng, reference = random.Random(fold_seed), random.Random(fold_seed)
            assert _fold_down(G, rng) == relist_fold_down(G, reference)
            assert rng.getstate() == reference.getstate()


def test_reductions_equal_the_replay_of_their_own_steps():
    for seed in range(200):
        G = grown_graph(seed)
        for policy in ("first", "random"):
            seq = stiff_reduction(G, policy, seed=seed)
            replayed = FoldSequence.replay(G, seq.steps)
            assert replayed.start is seq.start and replayed.steps == seq.steps
            assert replayed.result.vertices == seq.result.vertices and replayed.result.edges == seq.result.edges
            assert replayed.composite.assignment == seq.composite.assignment
            assert replayed.composite.domain is G and replayed.composite.codomain == seq.result
            assert replayed == seq


def test_replay_keeps_the_steps_it_was_given():
    G = grown_graph(3)
    steps = stiff_reduction(G).steps
    assert all(a is b for a, b in zip(FoldSequence.replay(G, steps).steps, steps))


def test_first_fold_down_is_stored_once_per_graph(monkeypatch):
    calls = []
    real = folds._fold_down
    monkeypatch.setattr(folds, "_fold_down", lambda G, rng=None: calls.append(G) or real(G, rng))
    G = grown_graph(5)
    first = stiff_reduction(G)
    assert stiff_reduction(G) == first and folds._retraction(G) == [
        G._compiled[1][first.composite(v)] for v in G.sorted_vertices
    ]
    assert calls == [G] and vars(G)["_first_folds"] == real(G)


def test_random_policy_neither_reads_nor_fills_the_stored_fold_down():
    G, twin = grown_graph(7), grown_graph(7)
    expected = stiff_reduction(twin, "random", seed=1)
    stiff_reduction(G, "random", seed=1)
    assert "_first_folds" not in vars(G)
    vars(G)["_first_folds"] = []  # a stored fold-down the random policy must not read
    assert stiff_reduction(G, "random", seed=1) == expected


def test_derived_graphs_start_without_a_stored_fold_down():
    G = grown_graph(11)
    stiff_reduction(G)
    plain = make_graph(G.vertices, G.edges)
    derived = [
        plain,
        induced_subgraph(G, G.vertices),
        random_unfold_map(random.Random(0), G, "fresh").codomain,
        relabel(G, {v: v + "r" for v in G.vertices}),
    ]
    assert all("_first_folds" not in vars(H) for H in derived)
    assert G == plain and hash(G) == hash(plain) and G == derived[1] and hash(G) == hash(derived[1])


def _graph(G):
    return [list(G.vertices), sorted(G.edges)]


def _map(f):
    return [_graph(f.domain), _graph(f.codomain), list(f.assignment)]


def _seq(s):
    return [_graph(s.start), [[t.removed, t.target] for t in s.steps], _graph(s.result), list(s.composite.assignment)]


def _trace(t):
    stages = [[list(st.survivors), list(st.relative), list(st.restricted)] for st in t.stages]
    return [t.to_json(), stages]


def _attempt(fn):
    try:
        return ["ok", fn()]
    except GraphError as exc:
        cause = type(exc.__cause__).__name__ if exc.__cause__ is not None else None
        return ["error", type(exc).__name__, str(exc), getattr(exc, "witness", None), cause]


def _apply(G, v, w):
    smaller, fold_map = apply_fold(G, v, w)
    return [_graph(smaller), _map(fold_map)]


def _fold_case(i):
    rng = random.Random(i)
    G = random_graph(rng, rng.randint(0, 8), rng.choice([0.2, 0.4, 0.6]), rng.choice([0.0, 0.3, 0.7]))
    grown = identity_map(G)
    if i % 3 == 0:  # an unfold tower over a small graph, so folds run deep
        for k in range(rng.randint(1, 5)):
            grown = compose(random_unfold_map(rng, grown.codomain, f"u{k}"), grown)
        G = grown.codomain
    out = {"graph": _graph(G), "pairs": foldable_pairs(G), "stiff": is_stiff(G)}
    out["first"] = _seq(stiff_reduction(G))
    rand = stiff_reduction(G, "random", seed=rng.randrange(2**32))
    out["random"] = _seq(rand)
    labels = sorted(G.vertices) + ["zz"]
    steps = [(s.removed, s.target) for s in rand.steps]
    variants = [steps, steps[: len(steps) // 2]]
    if steps:
        bad = list(steps)
        bad[rng.randrange(len(bad))] = (rng.choice(labels), rng.choice(labels))
        variants.append(bad)
    out["given"] = [_attempt(lambda s=s: _seq(stiff_reduction(G, "given", steps=s))) for s in variants]
    out["replay"] = [_attempt(lambda s=s: _seq(FoldSequence.replay(G, s))) for s in variants]
    out["policy"] = [_attempt(lambda: stiff_reduction(G, "given")), _attempt(lambda: stiff_reduction(G, "best"))]
    picks = [(rng.choice(labels), rng.choice(labels)) for _ in range(4)]
    if out["pairs"]:
        picks += [tuple(out["pairs"][0]), tuple(out["pairs"][-1])]
    out["apply"] = [_attempt(lambda p=p: _apply(G, *p)) for p in picks]
    if G.order:
        out["confluence"] = _attempt(lambda: [
            [_seq(s) for s in r.sequences] + [_graph(r.stiff)] + [_map(w) for w in r.witnesses]
            for r in [confluence_check(G, 3, seed=rng.randrange(2**32))]
        ])
    unfold = random_unfold_map(rng, G, "new")
    keep = [v for v in sorted(G.vertices) if rng.random() < 0.5]
    sub = induced_subgraph(G, keep)
    incl = GraphMap(sub, G, tuple((v, v) for v in keep))
    squashed = GraphMap(make_graph(keep), G, tuple((v, v) for v in keep))
    out["unfold"] = [is_unfold(m) for m in (unfold, incl, identity_map(G), grown)]
    out["qcof"] = [_attempt(lambda m=m: _trace(is_quasi_cofibration(m))) for m in (unfold, incl, grown, squashed)]
    return out


def fold_layer_dump(seeds):
    digest = hashlib.sha256()
    for i in seeds:
        digest.update(json.dumps(_fold_case(i), sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def test_fold_layer_outputs_match_recorded_digest():
    assert fold_layer_dump(range(150)) == FOLD_LAYER_DIGEST
