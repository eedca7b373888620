"""Homotopy of graph maps through looped-path cylinders, with certificates.

Two maps f, g : A -> B are one-step homotopic when (a, i) -> [f, g][i](a)
is a graph map A x I_1 -> B; general homotopy is the transitive closure.
Because the hom set is finite, breadth-first search decides homotopy
exactly: a length-k chain of one-step moves is the same thing as a
homotopy through A x I_k.

The searches run over image index tuples, bit k of the codomain standing
for its k-th sorted label: a one-step expansion hands per-vertex masks
straight to the engine's ``_homs``, and maps are materialized only for
returned results.  Chains are rebuilt from BFS parent links, so the
returned chain is shortest with ties broken by canonical enumeration
order, which is label order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from .core import (
    BudgetExceeded,
    Graph,
    GraphMap,
    SignatureMismatch,
    _bits,
    compose,
    find_map_violation,
    identity_map,
    interval,
    product,
)
from .folds import FoldSequence, _retraction, stiff_reduction
from .search import _assignment_to_map, _homs, is_isomorphic

DEFAULT_HOM_BUDGET = 1_000_000

Key = tuple[int, ...]  # image indices over sorted domain vertices


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

    Builds A x I_k, assigns F(a, i) = f_i(a), and verifies edge
    preservation.  The endpoint restrictions F(-, 0) and F(-, k) are the
    chain's ends by construction.  Never raises; a failure reports the
    violating product edge.
    """
    A = cert.chain[0].domain
    B = cert.chain[0].codomain
    k = len(cert.chain) - 1
    cyl = product(A, interval(k))
    assignment = {
        f"({a},{i})": cert.chain[i](a) for a in A.vertices for i in range(k + 1)
    }
    violation = find_map_violation(cyl, B, assignment)
    return HomotopyCheck(violation is None, violation)


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


class _StepSearch:
    """Resumable breadth-first exploration of one-step components.

    Keys are image index tuples over sorted domain vertices; each
    expansion enumerates the homs allowed by ``_step_masks`` of the
    expanded key.  ``reach`` expands pending frontier nodes
    only until the goal is visited, so repeated queries against the same
    component (as in the inverse-candidate loop) share one traversal.
    Parent links give shortest chains; expanding neighbours in canonical
    enumeration order makes the first-found parent deterministic.
    """

    def __init__(self, A: Graph, B: Graph, budget: int | None):
        self.A = A
        self.B = B
        self.limit = DEFAULT_HOM_BUDGET if budget is None else budget
        self.parents: dict[Key, Key | None] = {}
        self.queue: deque[Key] = deque()
        self.visited = 0

    def seed(self, start: Key) -> None:
        if start not in self.parents:
            self._spend()
            self.parents[start] = None
            self.queue.append(start)

    def reach(self, goal: Key | None = None) -> bool:
        """Expand until ``goal`` is visited (True) or the frontier empties.

        With ``goal=None`` the pending components are exhausted.
        """
        if goal is not None and goal in self.parents:
            return True
        while self.queue:
            key = self.queue.popleft()
            for nkey in _homs(self.A, self.B, self.limit, _step_masks(self.A, self.B, key)):
                if nkey in self.parents:
                    continue
                self._spend()
                self.parents[nkey] = key
                self.queue.append(nkey)
            if goal is not None and goal in self.parents:
                return True
        return goal is not None and goal in self.parents

    def _spend(self) -> None:
        self.visited += 1
        if self.visited > self.limit:
            raise BudgetExceeded(self.limit, "homotopy search")

    def chain_from_start(self, key: Key) -> list[GraphMap]:
        """Maps along the parent links, ordered start ... key."""
        keys: list[Key] = []
        cursor: Key | None = key
        while cursor is not None:
            keys.append(cursor)
            cursor = self.parents[cursor]
        keys.reverse()
        return [_assignment_to_map(self.A, self.B, k) for k in keys]


def _map_key(f: GraphMap) -> Key:
    index = f.codomain._compiled[1]
    return tuple(index[f(v)] for v in f.domain.sorted_vertices)


def are_homotopic(f: GraphMap, g: GraphMap, budget: int | None = None) -> HomotopyCertificate | None:
    """Shortest one-step chain from f to g, or None.

    Absence is definitive: the hom set is finite, so exhausting the
    component of f decides the question.
    """
    _require_signature(f, g)
    search = _StepSearch(f.domain, f.codomain, budget)
    search.seed(_map_key(f))
    if not search.reach(_map_key(g)):
        return None
    return HomotopyCertificate(tuple(search.chain_from_start(_map_key(g))))


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

    The restriction is a codomain mask per vertex of B.  Candidates are
    tested as image index tuples, gf and fg composed on those tuples and
    used directly as the BFS goals; only the inverse that is returned and
    its chains are built as maps.  The identity component of each distinct
    graph is explored at most once (cheaper side first, the other lazily),
    so when A = B both checks share one component.  Chains to the identity
    come from the component's parent links, reversed, which stays a valid
    certificate because the one-step relation is symmetric.  Absence is
    definitive; BudgetExceeded can come only from the search for a
    positive's certificate.
    """
    A, B = f.domain, f.codomain
    f_pos = _map_key(f)  # f over sorted A, as B indices
    r_A = _retraction(A)
    r_B = r_A if B == A else _retraction(B)
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

    searches: dict[Graph, _StepSearch] = {}

    def component(G: Graph) -> _StepSearch:
        if G not in searches:
            search = _StepSearch(G, G, budget)
            search.seed(tuple(range(G.order)))
            searches[G] = search
        return searches[G]

    def chain_to_identity(G: Graph, key: Key) -> HomotopyCertificate:
        chain = component(G).chain_from_start(key)
        chain.reverse()
        return HomotopyCertificate(tuple(chain))

    sides = ((A, 0), (B, 1)) if A.order <= B.order else ((B, 1), (A, 0))
    for key in _homs(B, A, budget, allowed):
        gf, fg = goals = (tuple(key[k] for k in f_pos), tuple(f_pos[a] for a in key))
        if all(component(G).reach(goals[side]) for G, side in sides):
            g = _assignment_to_map(B, A, key)
            return EquivalenceCertificate(f, g, chain_to_identity(A, gf), chain_to_identity(B, fg))
    return None


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
    search = _StepSearch(A, B, budget)
    classes: list[list[GraphMap]] = []
    for key in keys:
        if key in search.parents:
            continue
        before = len(search.parents)
        search.seed(key)
        search.reach(None)
        # parents is insertion-ordered: the new component is its tail
        component = islice(reversed(search.parents), len(search.parents) - before)
        classes.append([_assignment_to_map(A, B, k) for k in sorted(component)])
    return classes
