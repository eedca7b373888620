"""Categorical constructions: quotients, pushouts, mapping cylinders.

Quotient classes are labelled ``[m1,m2,...]`` with members sorted, so every
derived graph has deterministic labels and diffing two runs is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    BadParameter,
    BudgetExceeded,
    Graph,
    GraphError,
    GraphMap,
    NotAPartition,
    SignatureMismatch,
    _norm_edge,
    compose,
    disjoint_union,
    interval,
    make_graph,
    product,
)
from .homotopy import (
    EquivalenceCertificate,
    StiffComparison,
    graphs_equivalent,
    is_equivalence,
)


class NotNonInjective(GraphError):
    pass


class NotAnEquivalence(GraphError):
    pass


def _block_label(block: Iterable[str]) -> str:
    return "[" + ",".join(sorted(block)) + "]"


def quotient_by_partition(G: Graph, blocks: Iterable[Iterable[str]]) -> tuple[Graph, GraphMap]:
    """Collapse each block to one vertex; [x][y] is an edge iff some
    representatives are adjacent (an edge inside a block becomes a loop)."""
    block_of: dict[str, str] = {}
    block_list = []
    for raw in blocks:
        members = sorted(set(raw))
        if not members:
            raise NotAPartition("empty block")
        label = _block_label(members)
        block_list.append((label, members))
        for v in members:
            if v not in G.vertex_set:
                raise NotAPartition(f"block member {v!r} is not a vertex")
            if v in block_of:
                raise NotAPartition(f"vertex {v!r} appears in two blocks")
            block_of[v] = label
    if set(block_of) != G.vertex_set:
        missing = sorted(G.vertex_set - set(block_of))
        raise NotAPartition(f"blocks do not cover the vertex set (missing {missing})")
    labels = sorted(label for label, _ in block_list)
    edges = frozenset(_norm_edge(block_of[u], block_of[v]) for u, v in G.edges)
    quotient = Graph(tuple(labels), edges)
    projection = GraphMap(G, quotient, tuple((v, block_of[v]) for v in G.vertices))
    return quotient, projection


def quotient_by_image(G: Graph, f: GraphMap) -> Graph:
    """Quotient of G collapsing the image of f to a single vertex."""
    if f.codomain != G:
        raise SignatureMismatch("the map must land in the graph being collapsed")
    image = set(f.image_vertices)
    blocks: list[list[str]] = [sorted(image)] if image else []
    blocks.extend([v] for v in G.vertices if v not in image)
    quotient, _ = quotient_by_partition(G, blocks)
    return quotient


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def blocks(self) -> list[list[str]]:
        groups: dict[str, list[str]] = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(members) for _, members in sorted(groups.items())]


@dataclass(frozen=True)
class PushoutSquare:
    f: GraphMap  # A -> B
    g: GraphMap  # A -> C
    apex: Graph
    into_b: GraphMap  # B -> apex
    into_c: GraphMap  # C -> apex

    def commutes(self) -> bool:
        return compose(self.into_b, self.f) == compose(self.into_c, self.g)


def pushout(f: GraphMap, g: GraphMap) -> PushoutSquare:
    """Glue codomains of f and g along their shared domain.

    The apex is the disjoint union B + C modulo the equivalence generated
    by f(a) ~ g(a); taking the full transitive closure matters when f or g
    identifies vertices itself.
    """
    if f.domain != g.domain:
        raise SignatureMismatch("pushout legs must share their domain")
    B, C = f.codomain, g.codomain
    union, (ren_b, ren_c) = disjoint_union([("B", B), ("C", C)])
    uf = _UnionFind(union.vertices)
    for a in f.domain.vertices:
        uf.union(ren_b[f(a)], ren_c[g(a)])
    apex, projection = quotient_by_partition(union, uf.blocks())
    into_b = GraphMap(B, apex, tuple((b, projection(ren_b[b])) for b in B.vertices))
    into_c = GraphMap(C, apex, tuple((c, projection(ren_c[c])) for c in C.vertices))
    square = PushoutSquare(f, g, apex, into_b, into_c)
    assert square.commutes()
    return square


def cobase_change(f: GraphMap, g: GraphMap) -> GraphMap:
    """The induced map C -> P in the pushout of B <- A -> C."""
    return pushout(f, g).into_c


def mediating_map(square: PushoutSquare, u: GraphMap, v: GraphMap) -> GraphMap | None:
    """The unique map apex -> Q through a commuting cocone (u: B->Q, v: C->Q).

    Returns None when (u, v) does not commute over the shared domain.
    Uniqueness is automatic: every apex vertex is hit by into_b or into_c.
    """
    if u.domain != square.f.codomain or v.domain != square.g.codomain:
        raise SignatureMismatch("cocone legs must start at the pushout feet")
    if u.codomain != v.codomain:
        raise SignatureMismatch("cocone legs must share their target")
    for a in square.f.domain.vertices:
        if u(square.f(a)) != v(square.g(a)):
            return None
    values: dict[str, str] = {}
    for b in u.domain.vertices:
        values.setdefault(square.into_b(b), u(b))
        if values[square.into_b(b)] != u(b):
            return None
    for c in v.domain.vertices:
        values.setdefault(square.into_c(c), v(c))
        if values[square.into_c(c)] != v(c):
            return None
    return GraphMap(square.apex, u.codomain, tuple(values.items()))


@dataclass(frozen=True)
class CylinderFactorization:
    f: GraphMap
    cylinder: Graph
    incl: GraphMap  # domain -> cylinder, induced
    retract: GraphMap  # cylinder -> codomain

    def __post_init__(self) -> None:
        assert compose(self.retract, self.incl) == self.f
        assert self.incl.is_induced_inclusion()


def mapping_cylinder(f: GraphMap) -> CylinderFactorization:
    """Quotient of (A x I_1) + B identifying (a, 0) with f(a).

    The inclusion sends a to the class of (a, 1) and is always induced;
    the retract sends (a, i) to f(a) and the class of b back to b, so the
    factorization retract o incl = f holds on the nose.
    """
    A, B = f.domain, f.codomain
    cyl_part = product(A, interval(1))
    union, (ren_p, ren_b) = disjoint_union([("cyl", cyl_part), ("base", B)])
    uf = _UnionFind(union.vertices)
    for a in A.vertices:
        uf.union(ren_p[f"({a},0)"], ren_b[f(a)])
    cylinder, projection = quotient_by_partition(union, uf.blocks())
    incl = GraphMap(A, cylinder, tuple((a, projection(ren_p[f"({a},1)"])) for a in A.vertices))
    retract_values: dict[str, str] = {}
    for a in A.vertices:
        retract_values[projection(ren_p[f"({a},0)"])] = f(a)
        retract_values[projection(ren_p[f"({a},1)"])] = f(a)
    for b in B.vertices:
        retract_values[projection(ren_b[b])] = b
    retract = GraphMap(cylinder, B, tuple(retract_values.items()))
    return CylinderFactorization(f, cylinder, incl, retract)


CERTIFIED_BY_HOMOTOPY = "homotopy-certificate"
CERTIFIED_BY_STIFF = "stiff-criterion"


@dataclass(frozen=True)
class Factorization:
    """f = retract o incl with incl an induced inclusion and the retract an
    equivalence, certified at the reported level."""

    incl: GraphMap
    retract: GraphMap
    cylinder: Graph
    certification: str
    certificate: EquivalenceCertificate | StiffComparison

    def __iter__(self):
        return iter((self.incl, self.retract))


def factorize(f: GraphMap, budget: int | None = None) -> Factorization:
    """Split any map into an induced inclusion followed by an equivalence.

    Raises NotAnEquivalence when the inverse search proves the retract is none."""
    cyl = mapping_cylinder(f)
    try:
        cert = is_equivalence(cyl.retract, budget=budget)
    except BudgetExceeded:
        comparison = graphs_equivalent(cyl.cylinder, f.codomain)
        return Factorization(cyl.incl, cyl.retract, cyl.cylinder, CERTIFIED_BY_STIFF, comparison)
    if cert is None:
        raise NotAnEquivalence("the retract of the mapping cylinder is not a homotopy equivalence")
    return Factorization(cyl.incl, cyl.retract, cyl.cylinder, CERTIFIED_BY_HOMOTOPY, cert)


def cycle(n: int) -> Graph:
    """Simple cycle on vertices 0..n-1."""
    if n < 3:
        raise BadParameter("a cycle needs at least three vertices")
    return make_graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    """Simple complete graph on vertices 0..n-1."""
    if n < 1:
        raise BadParameter("a complete graph needs at least one vertex")
    return make_graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def looped_cycle_wedge(n: int, loop_at: int = 0) -> Graph:
    """Cycle on 0..n-1 with a loop at the given position."""
    base = cycle(n)
    if not 0 <= loop_at < n:
        raise BadParameter("loop position out of range")
    return make_graph(base.vertices, list(base.edges) + [(str(loop_at), str(loop_at))])


def named_graph(kind: str, *params: int) -> Graph:
    builders = {"cycle": cycle, "complete": complete, "looped_cycle_wedge": looped_cycle_wedge}
    if kind not in builders:
        raise BadParameter(f"unknown graph family {kind!r}")
    try:
        return builders[kind](*params)
    except TypeError as exc:
        raise BadParameter(f"bad parameters for {kind}: {exc}") from exc


@dataclass(frozen=True)
class CounterexampleReport:
    """Cobase change of a non-injective equivalence along the crafted leg."""

    case: str
    colliding_pair: tuple[str, str]
    note: str
    crafted: Graph  # the graph C
    g: GraphMap  # A -> C
    square: PushoutSquare
    comparison: StiffComparison

    @property
    def equivalent(self) -> bool:
        return self.comparison.equivalent

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "collidingPair": list(self.colliding_pair),
            "note": self.note,
            "equivalent": self.equivalent,
            "craftedStiffVertices": list(self.comparison.left_reduction.result.vertices),
            "pushoutStiffVertices": list(self.comparison.right_reduction.result.vertices),
        }


def _first_collision(f: GraphMap) -> tuple[str, str]:
    order = f.domain.sorted_vertices
    for i, a1 in enumerate(order):
        for a2 in order[i + 1 :]:
            if f(a1) == f(a2):
                return a1, a2
    raise NotNonInjective("the map is injective")


def _wedge_seven_cycle(A: Graph, wedge: str, a1: str, a2: str) -> tuple[Graph, GraphMap]:
    """(A + C_7) / wedge ~ 1 with the extra edge a1-a2 added."""
    union, (ren_a, ren_c) = disjoint_union([("A", A), ("W", cycle(7))])
    uf = _UnionFind(union.vertices)
    uf.union(ren_a[wedge], ren_c["1"])
    quotient, projection = quotient_by_partition(union, uf.blocks())
    extra = _norm_edge(projection(ren_a[a1]), projection(ren_a[a2]))
    crafted = Graph(quotient.vertices, quotient.edges | {extra})
    g = GraphMap(A, crafted, tuple((a, projection(ren_a[a])) for a in A.vertices))
    return crafted, g


def counterexample_pushout(f: GraphMap, budget: int | None = None) -> CounterexampleReport:
    """Craft a leg g so that the cobase change of f along g changes the
    homotopy type, then report the stiff comparison of C against the apex.

    Requires f non-injective and an equivalence.  The colliding pair is the
    first in canonical order; for a simple domain the crafted graph just
    adds the missing edge, otherwise a 7-cycle is wedged onto an unlooped
    member of the pair (when one exists) so the apex gains a loop on the
    cycle that the crafted graph lacks.
    """
    a1, a2 = _first_collision(f)
    if is_equivalence(f, budget=budget) is None:
        raise NotAnEquivalence("the map is not a homotopy equivalence")
    A = f.domain
    if A.is_simple():
        crafted = Graph(A.vertices, A.edges | {_norm_edge(a1, a2)})
        g = GraphMap(A, crafted, tuple((v, v) for v in A.vertices))
        case, note = "simple", f"added edge {a1}-{a2}"
    else:
        looped1, looped2 = A.is_looped(a1), A.is_looped(a2)
        if not looped1:
            wedge = a1
        elif not looped2:
            wedge = a2
        else:
            wedge = a1
        if not looped1 and not looped2:
            case = "unlooped-collision"
        else:
            case = "looped-collision"
        note = f"wedged a 7-cycle at {wedge}, added edge {a1}-{a2}"
        if looped1 and looped2:
            note += "; both collision vertices are looped, so the wedge point carries a loop"
        crafted, g = _wedge_seven_cycle(A, wedge, a1, a2)
    square = pushout(f, g)
    comparison = graphs_equivalent(crafted, square.apex)
    return CounterexampleReport(case, (a1, a2), note, crafted, g, square, comparison)
