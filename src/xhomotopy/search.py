"""Exact searches over small graphs: isomorphism, homs, embeddings.

One iterative backtracker, ``_backtrack``, drives all three.  It runs on
each graph's compiled form (``Graph._compiled``): bit k stands for the k-th
sorted label and adjacency is an int mask, so the candidates at a depth are
a base mask AND-ed with the neighbour masks of the images of already placed
neighbours.  An explicit stack replaces recursion, so search depth is not
bounded by the interpreter's recursion limit.

All searches are deterministic.  Domain vertices are placed in an order
chosen for pruning, candidates are tried in ascending bit (sorted label)
order, and results are returned sorted by their assignment in
lexicographic label order, so the output does not depend on the search
schedule.  Budgets count candidate prefix nodes.

The engine proves every result it yields, so the maps and embeddings
built from them are stored as proven (``core._proven``) rather than
re-checked edge by edge.  ``enumerate_copies(collapse=True)`` drops
duplicate copies on their raw index tuples, before any embedding is built.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from .core import (
    MODE_INDUCED,
    MODE_SUBGRAPH,
    BadParameter,
    BudgetExceeded,
    Embedding,
    Graph,
    GraphMap,
    _bits,
    _proven,
)

DEFAULT_SEARCH_BUDGET = 10_000_000


def _backtrack(
    pattern: Graph,
    target: Graph,
    order: Sequence[int],
    base: Sequence[int],
    charge: Sequence[int],
    budget: int | None,
    context: str,
    injective: bool = False,
    induced: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Edge-preserving assignments of pattern vertices to target vertices,
    in depth-first order, each as image bit indices over the pattern's
    sorted vertices.

    ``order`` lists pattern vertex indices in placement order and
    ``base[v]`` is the candidate mask of pattern vertex v.  A candidate must
    be adjacent to the images of v's placed neighbours; ``injective`` also
    excludes used images, and ``induced`` excludes images adjacent to the
    image of a placed non-neighbour.  Entering depth i charges
    ``charge[i]``; BudgetExceeded is raised once the total passes the budget.
    """
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    padj = pattern._compiled[2]
    adj = target._compiled[2]
    n = len(order)
    back: list[list[int]] = []  # placed neighbours of the vertex at each depth
    placed = 0
    for v in order:
        back.append(list(_bits(padj[v] & placed)))
        placed |= 1 << v
    img = [0] * n
    rem = [0] * n  # untried candidates per depth
    need = [0] * n  # images of placed neighbours per depth (induced check)
    used = [0] * (n + 1)  # images placed above each depth
    spent = 0
    depth = 0
    while True:
        if depth == n:
            yield tuple(img)
            depth -= 1
        else:
            spent += charge[depth]
            if spent > limit:
                raise BudgetExceeded(limit, context)
            mask = base[order[depth]]
            if injective:
                mask &= ~used[depth]
            nbrs = 0
            for u in back[depth]:
                mask &= adj[img[u]]
                nbrs |= 1 << img[u]
            rem[depth] = mask
            need[depth] = nbrs
        # advance to the next candidate, backtracking over exhausted depths
        while depth >= 0:
            mask = rem[depth]
            if not mask:
                depth -= 1
                continue
            low = mask & -mask
            rem[depth] = mask ^ low
            w = low.bit_length() - 1
            if induced and adj[w] & used[depth] != need[depth]:
                continue
            img[order[depth]] = w
            used[depth + 1] = used[depth] | low
            depth += 1
            break
        else:
            return


def _placement_order(G: Graph) -> list[int]:
    """Vertex indices by decreasing degree, ties in label order."""
    adj = G._compiled[2]
    return sorted(range(len(adj)), key=lambda k: (-adj[k].bit_count(), k))


def enumerate_hom_assignments(
    domain: Graph,
    codomain: Graph,
    budget: int | None = None,
    candidates: Mapping[str, object] | None = None,
) -> list[tuple[str, ...]]:
    """Image tuples (over sorted domain vertices) of all edge-preserving
    functions, lexicographically sorted.

    This is the raw engine behind ``enumerate_homs``; the homotopy search
    uses it directly to avoid materializing map objects.  ``candidates``
    optionally restricts the allowed images per domain vertex.  Raises
    BudgetExceeded when the number of explored candidate prefixes passes
    the budget.
    """
    labels, index, _, loops = codomain._compiled
    domain_loops = domain._compiled[3]
    everything = (1 << len(labels)) - 1
    base = []
    for k, a in enumerate(domain.sorted_vertices):
        mask = everything
        if candidates is not None and a in candidates:
            mask = 0
            for b in candidates[a]:  # type: ignore[attr-defined]
                if b in index:
                    mask |= 1 << index[b]
        if domain_loops >> k & 1:
            mask &= loops
        base.append(mask)
    order = _placement_order(domain)
    charge = [base[v].bit_count() for v in order]
    found = sorted(_backtrack(domain, codomain, order, base, charge, budget, "hom enumeration"))
    return [tuple(labels[k] for k in key) for key in found]


def _assignment_to_map(domain: Graph, codomain: Graph, key: tuple[str, ...]) -> GraphMap:
    """The map with image tuple ``key`` over sorted domain vertices, which
    the engine has proven to be a hom."""
    return _proven(GraphMap, domain, codomain, tuple(zip(domain.sorted_vertices, key)))


def enumerate_homs(
    domain: Graph,
    codomain: Graph,
    budget: int | None = None,
    candidates: Mapping[str, object] | None = None,
) -> list[GraphMap]:
    """All edge-preserving vertex functions, in lexicographic assignment order."""
    return [
        _assignment_to_map(domain, codomain, key)
        for key in enumerate_hom_assignments(domain, codomain, budget, candidates)
    ]


def enumerate_copies(
    pattern: Graph,
    host: Graph,
    mode: str = MODE_SUBGRAPH,
    budget: int | None = None,
    collapse: bool = False,
) -> list[Embedding]:
    """All injective embeddings of the pattern, canonically ordered.

    Embeddings differing only by a pattern automorphism are distinct; with
    ``collapse`` only the first embedding per (vertex set, image edge set)
    is kept.  Host bit order is sorted-label order, so collapsing on index
    tuples keeps the same copies as collapsing on labels.
    """
    if mode not in (MODE_SUBGRAPH, MODE_INDUCED):
        raise BadParameter(f"unknown embedding mode {mode!r}")
    induced = mode == MODE_INDUCED
    labels, _, _, loops = host._compiled
    pattern_loops = pattern._compiled[3]
    unlooped = (1 << len(labels)) - 1
    if induced:
        unlooped &= ~loops
    base = [loops if pattern_loops >> k & 1 else unlooped for k in range(pattern.order)]
    order = _placement_order(pattern)
    found = sorted(_backtrack(
        pattern, host, order, base, [host.order] * len(order), budget,
        "embedding enumeration", injective=True, induced=induced,
    ))
    if collapse:
        padj = pattern._compiled[2]
        edges = [(i, j) for i in range(pattern.order) for j in _bits(padj[i] >> i << i)]
        seen = set()
        kept = []
        for key in found:
            sig = (
                sum(1 << k for k in key),
                frozenset((key[i], key[j]) if key[i] <= key[j] else (key[j], key[i]) for i, j in edges),
            )
            if sig not in seen:
                seen.add(sig)
                kept.append(key)
        found = kept
    domain_labels = pattern.sorted_vertices
    return [
        _proven(Embedding, pattern, host, tuple(zip(domain_labels, (labels[k] for k in key))), mode)
        for key in found
    ]


def _vertex_invariant(G: Graph, v: str) -> tuple:
    nbrs = G.neighbors(v)
    profile = tuple(sorted((G.degree(u), G.is_looped(u)) for u in nbrs))
    return (len(nbrs), G.is_looped(v), profile)


def is_isomorphic(G: Graph, H: Graph) -> GraphMap | None:
    """First isomorphism in canonical search order, or None.

    Backtracking prunes on (degree, loop flag, neighbour degree multiset)
    invariant classes, which keeps the search instant at desk scale.
    """
    if G.order != H.order or len(G.edges) != len(H.edges):
        return None
    domain_labels = G.sorted_vertices
    inv_g = [_vertex_invariant(G, v) for v in domain_labels]
    inv_h = [_vertex_invariant(H, v) for v in H.sorted_vertices]
    if sorted(inv_g) != sorted(inv_h):
        return None
    classes: dict[tuple, int] = {}
    for k, inv in enumerate(inv_h):
        classes[inv] = classes.get(inv, 0) | 1 << k
    base = [classes[inv] for inv in inv_g]
    order = sorted(range(G.order), key=lambda k: (base[k].bit_count(), -G.degree(domain_labels[k]), k))
    # classes fix loop flags; induced + injective + equal order then make
    # the first full assignment an isomorphism
    witness = next(_backtrack(
        G, H, order, base, [0] * G.order, None, "isomorphism search", injective=True, induced=True
    ), None)
    if witness is None:
        return None
    labels = H._compiled[0]
    return _proven(GraphMap, G, H, tuple(zip(domain_labels, (labels[k] for k in witness))))
