"""Seeded random graphs and equivalence-map generators for experiments."""

from __future__ import annotations

import random
from bisect import insort

from .core import (
    Graph,
    GraphMap,
    _check_new_label,
    _norm_edge,
    _proven,
    compose,
    identity_map,
    make_graph,
    relabel,
)
from .folds import foldable_pairs, apply_fold


def random_graph(
    rng: random.Random,
    n_vertices: int,
    edge_prob: float = 0.4,
    loop_prob: float = 0.3,
    prefix: str = "v",
) -> Graph:
    """Random graph on labelled vertices with independent edge/loop coins."""
    verts = [f"{prefix}{i}" for i in range(n_vertices)]
    edges = []
    for i, u in enumerate(verts):
        if rng.random() < loop_prob:
            edges.append((u, u))
        for v in verts[i + 1 :]:
            if rng.random() < edge_prob:
                edges.append((u, v))
    return make_graph(verts, edges)


def random_fold_map(rng: random.Random, G: Graph) -> GraphMap | None:
    """One random fold of G, as a map G -> G - v; None when G is stiff."""
    pairs = foldable_pairs(G)
    if not pairs:
        return None
    removed, target = rng.choice(pairs)
    _, fold_map = apply_fold(G, removed, target)
    return fold_map


def random_unfold_map(rng: random.Random, G: Graph, fresh: str) -> GraphMap:
    """Inclusion of G into G plus one new foldable vertex.

    The new vertex picks a template vertex u and attaches to a random
    subset of N(u), so it folds straight back to u.  Only the fresh label
    is checked: the grown graph and the inclusion are stored as proven, and
    the grown graph inherits G's adjacency, vertex set and sorted labels.
    """
    if not G.vertices:
        bigger = make_graph([fresh], [(fresh, fresh)])
        return GraphMap(G, bigger, ())
    template = rng.choice(G.sorted_vertices)
    nbrs = sorted(G.neighbors(template))
    attach = [v for v in nbrs if rng.random() < 0.7]
    _check_new_label(fresh, G.vertex_set)
    bigger = _proven(Graph, G.vertices + (fresh,), G.edges | {_norm_edge(fresh, v) for v in attach})
    adjacency = dict(G.adjacency)
    for v in attach:
        adjacency[v] |= {fresh}
    adjacency[fresh] = frozenset(attach)
    labels = list(G.sorted_vertices)
    insort(labels, fresh)
    vars(bigger).update(adjacency=adjacency, vertex_set=G.vertex_set | {fresh}, sorted_vertices=tuple(labels))
    return _proven(GraphMap, G, bigger, tuple((v, v) for v in G.sorted_vertices))


def random_isomorphism(rng: random.Random, G: Graph, prefix: str) -> GraphMap:
    """Relabelling isomorphism onto fresh shuffled labels."""
    fresh = [f"{prefix}{i}" for i in range(G.order)]
    rng.shuffle(fresh)
    mapping = dict(zip(sorted(G.vertices), fresh))
    return GraphMap(G, relabel(G, mapping), tuple(mapping.items()))


def random_equivalence(rng: random.Random, G: Graph, steps: int, tag: str) -> GraphMap:
    """Random composite of folds, unfolds and isomorphisms starting at G.

    Each factor is a homotopy equivalence, so the composite is one by
    construction; brute-force checks should always confirm that.
    """
    current = identity_map(G)
    for i in range(steps):
        kind = rng.choice(["fold", "unfold", "iso"])
        H = current.codomain
        if kind == "fold":
            step = random_fold_map(rng, H)
            if step is None:
                step = random_unfold_map(rng, H, f"{tag}u{i}")
        elif kind == "unfold":
            step = random_unfold_map(rng, H, f"{tag}u{i}")
        else:
            step = random_isomorphism(rng, H, f"{tag}i{i}x")
        current = compose(step, current)
    return current


def random_equivalence_triple(
    rng: random.Random, max_start: int = 4, steps: int = 2
) -> tuple[GraphMap, GraphMap, GraphMap]:
    """Composable (f, g, h) built entirely from equivalence generators.

    gf and hg are then homotopy equivalences, which is the hypothesis of
    the two-out-of-six property.
    """
    start = random_graph(rng, rng.randint(1, max_start))
    f = random_equivalence(rng, start, steps, "a")
    g = random_equivalence(rng, f.codomain, steps, "b")
    h = random_equivalence(rng, g.codomain, steps, "c")
    return f, g, h
