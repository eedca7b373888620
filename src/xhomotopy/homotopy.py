"""Homotopy of graph maps through looped-path cylinders, with certificates.

Two maps f, g : A -> B are one-step homotopic when (a, i) -> [f, g][i](a)
is a graph map A x I_1 -> B; general homotopy is the transitive closure.
Because the hom set is finite, breadth-first search decides homotopy
exactly: a length-k chain of one-step moves is the same thing as a
homotopy through A x I_k.

The searches run over image index tuples, bit k of the codomain standing
for its k-th sorted label: a one-step expansion hands per-vertex masks
straight to the engine's ``_homs``, and maps are materialized only for
returned results.  One breadth-first function, ``_explore``, serves
``are_homotopic``, ``is_equivalence`` and ``homotopy_classes``: it adds a
one-step component to parent links that the caller owns, and chains are
read off those links, so the returned chain is shortest with ties broken
by canonical enumeration order, which is label order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from .core import (
    BudgetExceeded,
    Graph,
    GraphMap,
    NotAGraphMap,
    SignatureMismatch,
    _bits,
    compose,
    identity_map,
    interval,
    product,
)
from .folds import FoldSequence, _retraction, stiff_reduction
from .search import _assignment_to_map, _homs, is_isomorphic

DEFAULT_HOM_BUDGET = 1_000_000

Key = tuple[int, ...]  # image indices over sorted domain vertices
Parents = dict[Key, Key | None]  # BFS parent links, None at a start


def _require_signature(f: GraphMap, g: GraphMap) -> None:
    if f.domain != g.domain or f.codomain != g.codomain:
        raise SignatureMismatch("maps must share domain and codomain")


def one_step_homotopic(f: GraphMap, g: GraphMap) -> bool:
    """For every edge uv of the domain: f(u)g(v) and f(v)g(u) are edges."""
    _require_signature(f, g)
    B = f.codomain
    for u, v in sorted(f.domain.edges):
        if not B.has_edge(f(u), g(v)) or not B.has_edge(f(v), g(u)):
            return False
    return True


@dataclass(frozen=True)
class HomotopyCertificate:
    """A chain of maps f_0 ... f_k realizing a homotopy through A x I_k."""

    chain: tuple[GraphMap, ...]

    def __post_init__(self) -> None:
        if not self.chain:
            raise SignatureMismatch("a homotopy chain needs at least one map")
        first = self.chain[0]
        for f in self.chain[1:]:
            if f.domain != first.domain or f.codomain != first.codomain:
                raise SignatureMismatch("all chain maps must share a signature")

    @property
    def start(self) -> GraphMap:
        return self.chain[0]

    @property
    def end(self) -> GraphMap:
        return self.chain[-1]

    def __len__(self) -> int:
        return len(self.chain) - 1

    def as_product_map(self) -> GraphMap:
        """Materialize the chain as an explicit map A x I_k -> B."""
        A = self.chain[0].domain
        k = len(self.chain) - 1
        cyl = product(A, interval(k))
        assignment = tuple(
            (f"({a},{i})", self.chain[i](a)) for a in A.vertices for i in range(k + 1)
        )
        return GraphMap(cyl, self.chain[0].codomain, assignment)

    def to_json(self) -> dict:
        return {"chain": [dict(f.assignment) for f in self.chain]}


@dataclass(frozen=True)
class HomotopyCheck:
    ok: bool
    violation: tuple[str, str] | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_homotopy(cert: HomotopyCertificate) -> HomotopyCheck:
    """Re-check a certificate on the materialized product graph.

    Materializes F(a, i) = f_i(a) on A x I_k through ``as_product_map``.
    The endpoint restrictions F(-, 0) and F(-, k) are the chain's ends by
    construction.  Never raises; a failure reports the first violating
    product edge in sorted order.
    """
    try:
        cert.as_product_map()
    except NotAGraphMap as exc:
        return HomotopyCheck(False, exc.violation)
    return HomotopyCheck(True)


def _step_masks(A: Graph, B: Graph, key: Key) -> list[int]:
    """Per domain vertex, the codomain mask allowed for a one-step
    successor of the map ``key``: the AND of the neighbour masks of the
    images of the vertex's neighbours."""
    adj = B._compiled[2]
    masks = []
    for nbrs in A._compiled[2]:
        allowed = (1 << B.order) - 1
        for u in _bits(nbrs):
            allowed &= adj[key[u]]
        masks.append(allowed)
    return masks


def one_step_neighbors(h: GraphMap, budget: int | None = None) -> list[GraphMap]:
    """All maps one-step homotopic to h, in canonical order (h included)."""
    A, B = h.domain, h.codomain
    keys = _homs(A, B, budget, _step_masks(A, B, _map_key(h)))
    return [_assignment_to_map(A, B, key) for key in keys]


def _explore(A: Graph, B: Graph, parents: Parents, start: Key, goals: tuple[Key, ...], limit: int) -> None:
    """Add the one-step component of ``start`` to ``parents``, breadth-first.

    ``parents`` links each visited key to the key it was reached from
    (``start`` to None).  The caller owns it, so one dict can hold several
    components and its size is the visit count: a visit past ``limit``
    raises BudgetExceeded.  The search stops after the expansion that
    leaves every goal visited; with no goals it exhausts the component.
    Expanding neighbours in canonical enumeration order makes the first
    parent found, and so every chain, shortest and deterministic.
    """
    parents[start] = None
    queue = deque([start])
    while len(parents) <= limit:
        if not queue or (goals and all(goal in parents for goal in goals)):
            return
        key = queue.popleft()
        for nkey in _homs(A, B, limit, _step_masks(A, B, key)):
            if nkey not in parents:
                parents[nkey] = key
                queue.append(nkey)
    raise BudgetExceeded(limit, "homotopy search")


def _chain(A: Graph, B: Graph, parents: Parents, key: Key) -> tuple[GraphMap, ...]:
    """Maps along the parent links, ordered ``key`` ... start."""
    chain = []
    cursor: Key | None = key
    while cursor is not None:
        chain.append(_assignment_to_map(A, B, cursor))
        cursor = parents[cursor]
    return tuple(chain)


def _map_key(f: GraphMap) -> Key:
    index = f.codomain._compiled[1]
    return tuple(index[f(v)] for v in f.domain.sorted_vertices)


def are_homotopic(f: GraphMap, g: GraphMap, budget: int | None = None) -> HomotopyCertificate | None:
    """Shortest one-step chain from f to g, or None.

    Absence is definitive: the hom set is finite, so exhausting the
    component of f decides the question.
    """
    _require_signature(f, g)
    A, B = f.domain, f.codomain
    parents: Parents = {}
    goal = _map_key(g)
    _explore(A, B, parents, _map_key(f), (goal,), DEFAULT_HOM_BUDGET if budget is None else budget)
    if goal not in parents:
        return None
    return HomotopyCertificate(_chain(A, B, parents, goal)[::-1])


@dataclass(frozen=True)
class EquivalenceCertificate:
    """forward with a two-sided homotopy inverse, chains included."""

    forward: GraphMap
    inverse: GraphMap
    hom_to_identity_domain: HomotopyCertificate  # inverse o forward ~ 1_A
    hom_to_identity_codomain: HomotopyCertificate  # forward o inverse ~ 1_B

    def verify(self) -> bool:
        left = self.hom_to_identity_domain
        right = self.hom_to_identity_codomain
        if left.start != compose(self.inverse, self.forward):
            return False
        if left.end != identity_map(self.forward.domain):
            return False
        if right.start != compose(self.forward, self.inverse):
            return False
        if right.end != identity_map(self.forward.codomain):
            return False
        return bool(verify_homotopy(left)) and bool(verify_homotopy(right))


def _adjacency_count(adj: list[int], core: list[int]) -> int:
    """Adjacency bits of the subgraph induced on the indices ``core``."""
    mask = sum(1 << k for k in core)
    return sum((adj[k] & mask).bit_count() for k in core)


def is_equivalence(f: GraphMap, budget: int | None = None) -> EquivalenceCertificate | None:
    """Two-sided homotopy inverse of f, decided through stiff cores.

    Let r_A : A -> A_s and r_B : B -> B_s be the ``first`` stiff
    reductions' fold retractions, with inclusions i_A and i_B.  Since
    i r ~ 1 on both sides and the identity of a stiff graph is alone in its
    one-step component, f is an equivalence exactly when
    phi = r_B o f o i_A is an isomorphism A_s -> B_s, and then g : B -> A
    is a homotopy inverse exactly when r_A o g o i_B = phi^-1.  When phi is
    no isomorphism the answer is None at once, with no hom search and no
    budget spent.  Otherwise hom enumeration restricted to
    g(b) in r_A^-1(phi^-1(b)) for b in B_s lists exactly the homotopy
    inverses in lexicographic order, so its first entry is the canonical
    inverse: the least one in Hom(B, A).

    The restriction is a codomain mask per vertex of B, and the inverse is
    the first image index tuple it admits: every admitted hom is an
    inverse, so no candidate is tested.  gf and fg are composed on index
    tuples and are the goals of one breadth-first search from the identity
    of each distinct graph, the smaller first; when A = B a single search
    holds both goals.  Only the inverse and its chains are built as maps.
    Each chain is read off the parent links from its goal back to the
    identity, a valid certificate because the one-step relation is
    symmetric.  Absence is definitive; BudgetExceeded can come only from
    the search for a positive's certificate.
    """
    A, B = f.domain, f.codomain
    f_pos = _map_key(f)  # f over sorted A, as B indices
    r_A = _retraction(A)
    r_B = _retraction(B)
    core_A = [k for k, s in enumerate(r_A) if s == k]
    core_B = [k for k, s in enumerate(r_B) if s == k]
    phi_inverse = {r_B[f_pos[a]]: a for a in core_A}
    # phi is a hom, so a bijection of cores with equal adjacency counts
    # carries edges onto edges: it is an isomorphism
    if (
        len(phi_inverse) != len(core_A)
        or len(core_A) != len(core_B)
        or _adjacency_count(A._compiled[2], core_A) != _adjacency_count(B._compiled[2], core_B)
    ):
        return None
    fibres = [0] * A.order
    for k, s in enumerate(r_A):
        fibres[s] |= 1 << k
    allowed = [(1 << A.order) - 1] * B.order
    for b, a in phi_inverse.items():
        allowed[b] = fibres[a]

    key = _homs(B, A, budget, allowed)[0]
    gf, fg = tuple(key[k] for k in f_pos), tuple(f_pos[a] for a in key)
    goals = {A: (gf, fg)} if A == B else {A: (gf,), B: (fg,)}
    parents: dict[Graph, Parents] = {G: {} for G in goals}
    limit = DEFAULT_HOM_BUDGET if budget is None else budget
    for G in sorted(goals, key=lambda G: G.order):
        _explore(G, G, parents[G], tuple(range(G.order)), goals[G], limit)
    return EquivalenceCertificate(
        f,
        _assignment_to_map(B, A, key),
        HomotopyCertificate(_chain(A, A, parents[A], gf)),
        HomotopyCertificate(_chain(B, B, parents[B], fg)),
    )


@dataclass(frozen=True)
class StiffComparison:
    """Evidence for graph-level equivalence: fold both sides, compare stiff."""

    left_reduction: FoldSequence
    right_reduction: FoldSequence
    stiff_iso: GraphMap | None

    @property
    def equivalent(self) -> bool:
        return self.stiff_iso is not None


def graphs_equivalent(G: Graph, H: Graph) -> StiffComparison:
    """Homotopy equivalence of graphs via isomorphism of stiff subgraphs."""
    left = stiff_reduction(G)
    right = stiff_reduction(H)
    return StiffComparison(left, right, is_isomorphic(left.result, right.result))


def homotopy_classes(A: Graph, B: Graph, budget: int | None = None) -> list[list[GraphMap]]:
    """Partition of the hom set into one-step components, canonically ordered."""
    keys = _homs(A, B, budget)
    parents: Parents = {}
    classes: list[list[GraphMap]] = []
    for key in keys:
        if key in parents:
            continue
        before = len(parents)
        _explore(A, B, parents, key, (), DEFAULT_HOM_BUDGET if budget is None else budget)
        # parents is insertion-ordered: the new component is its tail
        component = islice(reversed(parents), len(parents) - before)
        classes.append([_assignment_to_map(A, B, k) for k in sorted(component)])
    return classes
