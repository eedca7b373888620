"""Finite undirected graphs with loops, and edge-preserving vertex maps.

Vertices are string labels.  Graphs and maps are immutable values: equality
compares the vertex tuple (construction order is preserved) and the edge
set.  Loops are first-class: a vertex is its own neighbour exactly when it
carries a loop, and a loop contributes one to the degree.  Every set-valued
query is reported in sorted label order so runs are reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

Edge = tuple[str, str]

MODE_SUBGRAPH = "subgraph"
MODE_INDUCED = "induced"


class GraphError(Exception):
    """Base class for every error raised by this package."""


class BadLabel(GraphError):
    pass


class DuplicateVertex(GraphError):
    pass


class UnknownVertex(GraphError):
    pass


class BadParameter(GraphError):
    pass


class NotAGraphMap(GraphError):
    """An assignment fails to carry some edge to an edge."""

    def __init__(self, message: str, violation: Edge | None = None):
        super().__init__(message)
        self.violation = violation


class DomainMismatch(GraphError):
    pass


class SignatureMismatch(GraphError):
    pass


class NotAPartition(GraphError):
    pass


class BudgetExceeded(GraphError):
    """A search outgrew its configured budget."""

    def __init__(self, limit: int, context: str = "search"):
        super().__init__(f"{context} exceeded budget of {limit}")
        self.limit = limit
        self.context = context


_FORBIDDEN_IN_LABEL = re.compile(r"[\s-]")  # matches exactly '-' and the str.isspace() characters


def _check_label(label: str) -> None:
    if not isinstance(label, str) or not label:
        raise BadLabel(f"vertex label must be a nonempty string, got {label!r}")
    if _FORBIDDEN_IN_LABEL.search(label):
        raise BadLabel(f"vertex label may not contain whitespace or '-': {label!r}")


def _check_new_label(label: str, taken) -> None:
    """Raise unless ``label`` is a valid label not among ``taken``."""
    _check_label(label)
    if label in taken:
        raise DuplicateVertex(f"duplicate vertex label {label!r}")


def _norm_edge(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        seen: set[str] = set()
        for v in verts:
            _check_new_label(v, seen)
            seen.add(v)
        norm = set()
        for edge in self.edges:
            u, v = edge
            if u not in seen:
                raise UnknownVertex(f"edge endpoint {u!r} is not a vertex")
            if v not in seen:
                raise UnknownVertex(f"edge endpoint {v!r} is not a vertex")
            norm.add(_norm_edge(u, v))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", frozenset(norm))

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        nbrs: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def sorted_vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def _compiled(self) -> tuple[tuple[str, ...], dict[str, int], list[int], int]:
        """Search form ``(labels, index, adj, loops)``: bit k stands for
        ``sorted_vertices[k]``, ``adj[k]`` is the neighbour mask of vertex k
        and ``loops`` the mask of looped vertices."""
        labels = self.sorted_vertices
        index = {v: k for k, v in enumerate(labels)}
        adj = [0] * len(labels)
        loops = 0
        for u, v in self.edges:
            i, j = index[u], index[v]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            if i == j:
                loops |= 1 << i
        return labels, index, adj, loops

    @property
    def order(self) -> int:
        return len(self.vertices)

    def neighbors(self, v: str) -> frozenset[str]:
        """N(v); contains v itself exactly when v is looped."""
        try:
            return self.adjacency[v]
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: str, v: str) -> bool:
        if u not in self.vertex_set:
            raise UnknownVertex(f"no vertex {u!r}")
        if v not in self.vertex_set:
            raise UnknownVertex(f"no vertex {v!r}")
        return _norm_edge(u, v) in self.edges

    def is_looped(self, v: str) -> bool:
        return v in self.neighbors(v)

    def edge_list(self) -> list[Edge]:
        return sorted(self.edges)

    def is_simple(self) -> bool:
        return all(u != v for u, v in self.edges)

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def make_graph(vertices: Iterable, edges: Iterable = ()) -> Graph:
    """Build a graph from labels and unordered vertex pairs.

    Labels are coerced to strings, duplicate edges collapse, and a pair
    ``(v, v)`` becomes a loop.  Raises UnknownVertex / DuplicateVertex for
    ill-formed input.
    """
    verts = tuple(str(v) for v in vertices)
    pairs = []
    for item in edges:
        pair = tuple(item)
        if len(pair) != 2:
            raise BadParameter(f"an edge needs exactly two endpoints, got {item!r}")
        pairs.append((str(pair[0]), str(pair[1])))
    return Graph(verts, frozenset(_norm_edge(u, v) for u, v in pairs))


EMPTY_GRAPH = make_graph(())


def find_map_violation(domain: Graph, codomain: Graph, assignment: Mapping[str, str]) -> Edge | None:
    """First domain edge (in sorted order) not carried to a codomain edge.

    Returns None when the assignment is a graph map.  Raises UnknownVertex
    when the assignment misses a domain vertex or leaves the codomain.
    """
    for v in domain.vertices:
        if v not in assignment:
            raise UnknownVertex(f"assignment is not defined on {v!r}")
        if assignment[v] not in codomain.vertex_set:
            raise UnknownVertex(f"image {assignment[v]!r} is not a codomain vertex")
    edges = codomain.edges
    if all(_norm_edge(assignment[u], assignment[v]) in edges for u, v in domain.edges):
        return None
    for u, v in sorted(domain.edges):
        if not codomain.has_edge(assignment[u], assignment[v]):
            return (u, v)
    return None


def is_graph_map(domain: Graph, codomain: Graph, assignment: Mapping[str, str]) -> bool:
    return find_map_violation(domain, codomain, assignment) is None


def _proven(cls, *values):
    """A Graph, GraphMap or Embedding built from field values the program
    has already proven valid, without re-checking them.  The values are
    stored as the validating constructor stores them: edges normalized, the
    assignment or vertex image sorted by domain label.  Only engine results
    and values derived from valid ones come through here; caller-supplied
    data goes through the public constructor."""
    obj = object.__new__(cls)
    vars(obj).update(zip(cls.__dataclass_fields__, values))
    return obj


@dataclass(frozen=True)
class GraphMap:
    """Edge-preserving vertex function.

    The public constructor validates: the assignment must cover the domain
    exactly and carry every edge to an edge.  Maps the search engine or a
    fold has proven, and maps derived from valid maps (composites,
    identities), are stored as proven without a second check.
    """

    domain: Graph
    codomain: Graph
    assignment: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted(self.assignment))
        object.__setattr__(self, "assignment", pairs)
        mapping = dict(pairs)
        if len(mapping) != len(pairs):
            raise BadParameter("assignment lists a source vertex twice")
        if set(mapping) != self.domain.vertex_set:
            missing = sorted(self.domain.vertex_set - set(mapping))
            extra = sorted(set(mapping) - self.domain.vertex_set)
            raise UnknownVertex(
                f"assignment must cover the domain exactly (missing {missing}, extra {extra})"
            )
        violation = find_map_violation(self.domain, self.codomain, mapping)
        if violation is not None:
            u, v = violation
            raise NotAGraphMap(f"edge {u}-{v} is not carried to an edge", violation)

    @cached_property
    def mapping(self) -> dict[str, str]:
        return dict(self.assignment)

    def __call__(self, v: str) -> str:
        try:
            return self.mapping[v]
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r} in the domain") from None

    def is_injective(self) -> bool:
        values = [w for _, w in self.assignment]
        return len(set(values)) == len(values)

    @cached_property
    def image_vertices(self) -> frozenset[str]:
        return frozenset(w for _, w in self.assignment)

    @cached_property
    def image_edges(self) -> frozenset[Edge]:
        return frozenset(_norm_edge(self(u), self(v)) for u, v in self.domain.edges)

    def image_graph(self) -> Graph:
        """Vertices f(V), edges f(E): the image as a subgraph of the codomain."""
        return Graph(tuple(sorted(self.image_vertices)), self.image_edges)

    def is_induced_inclusion(self) -> bool:
        """Injective, and image vertices carry exactly the codomain's edges."""
        if not self.is_injective():
            return False
        verts = sorted(self.domain.vertices)
        for i, u in enumerate(verts):
            for v in verts[i:]:
                if self.domain.has_edge(u, v) != self.codomain.has_edge(self(u), self(v)):
                    return False
        return True

    def __repr__(self) -> str:
        return f"GraphMap({self.domain!r} -> {self.codomain!r})"


def graph_map(domain: Graph, codomain: Graph, mapping: Mapping[str, str]) -> GraphMap:
    return GraphMap(domain, codomain, tuple((str(k), str(v)) for k, v in mapping.items()))


def identity_map(G: Graph) -> GraphMap:
    return _proven(GraphMap, G, G, tuple((v, v) for v in G.sorted_vertices))


def compose(g: GraphMap, f: GraphMap) -> GraphMap:
    """g after f.  Requires codomain(f) = domain(g) as labelled graphs."""
    if f.codomain != g.domain:
        raise DomainMismatch("codomain of the inner map must equal the domain of the outer map")
    outer = g.mapping
    return _proven(GraphMap, f.domain, g.codomain, tuple((v, outer[w]) for v, w in f.assignment))


def invert(f: GraphMap) -> GraphMap:
    """Inverse of a bijective map; raises if f is not an isomorphism."""
    if not f.is_injective() or f.image_vertices != f.codomain.vertex_set:
        raise BadParameter("only bijective maps can be inverted")
    return GraphMap(f.codomain, f.domain, tuple((w, v) for v, w in f.assignment))


@dataclass(frozen=True)
class Embedding:
    """Injective copy of a pattern graph inside a host graph.

    In ``subgraph`` mode every pattern edge lands on a host edge; in
    ``induced`` mode pattern non-edges (including missing loops) must land
    on host non-edges as well.  The public constructor validates; copies
    found by the search engine are stored as proven, and ``check``
    re-verifies any embedding on demand.
    """

    pattern: Graph
    host: Graph
    vertex_image: tuple[tuple[str, str], ...]
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in (MODE_SUBGRAPH, MODE_INDUCED):
            raise BadParameter(f"unknown embedding mode {self.mode!r}")
        object.__setattr__(self, "vertex_image", tuple(sorted(self.vertex_image)))
        if not self.check():
            raise BadParameter("vertex image does not satisfy the embedding mode")

    @cached_property
    def mapping(self) -> dict[str, str]:
        return dict(self.vertex_image)

    def __call__(self, v: str) -> str:
        return self.mapping[v]

    @cached_property
    def image_vertex_set(self) -> frozenset[str]:
        return frozenset(self.mapping.values())

    @cached_property
    def image_edges(self) -> frozenset[Edge]:
        return frozenset(
            _norm_edge(self.mapping[u], self.mapping[v]) for u, v in self.pattern.edges
        )

    def as_map(self) -> GraphMap:
        return _proven(GraphMap, self.pattern, self.host, self.vertex_image)

    def check(self) -> bool:
        """Re-verify injectivity and the mode predicate edge by edge."""
        img = dict(self.vertex_image)
        if set(img) != self.pattern.vertex_set:
            return False
        if len(set(img.values())) != len(img):
            return False
        if not self.image_vertex_set <= self.host.vertex_set:
            return False
        verts = sorted(self.pattern.vertices)
        for i, u in enumerate(verts):
            for v in verts[i:]:
                p_edge = self.pattern.has_edge(u, v)
                h_edge = self.host.has_edge(img[u], img[v])
                if p_edge and not h_edge:
                    return False
                if self.mode == MODE_INDUCED and not p_edge and h_edge:
                    return False
        return True


def product(G: Graph, H: Graph) -> Graph:
    """Categorical product: (g,h)(g',h') is an edge iff gg' and hh' are."""
    verts = [(g, h) for g in G.vertices for h in H.vertices]
    labels = {pair: f"({pair[0]},{pair[1]})" for pair in verts}
    edges = set()
    for i, (g1, h1) in enumerate(verts):
        for g2, h2 in verts[i:]:
            if G.has_edge(g1, g2) and H.has_edge(h1, h2):
                edges.add(_norm_edge(labels[(g1, h1)], labels[(g2, h2)]))
    return Graph(tuple(labels[p] for p in verts), frozenset(edges))


def interval(n: int) -> Graph:
    """The path 0-1-...-n with a loop at every vertex."""
    if n < 0:
        raise BadParameter("interval length must be nonnegative")
    verts = tuple(str(i) for i in range(n + 1))
    edges = {(str(i), str(i)) for i in range(n + 1)}
    edges.update(_norm_edge(str(i), str(i + 1)) for i in range(n))
    return Graph(verts, frozenset(edges))


def induced_subgraph(G: Graph, vertices: Iterable[str]) -> Graph:
    """The subgraph of G on ``vertices``, in G's vertex order.  Its labels
    and edges come from a valid graph, so it is stored as proven."""
    keep = set()
    for v in vertices:
        if v not in G.vertex_set:
            raise UnknownVertex(f"no vertex {v!r}")
        keep.add(v)
    verts = tuple(v for v in G.vertices if v in keep)
    edges = frozenset(e for e in G.edges if e[0] in keep and e[1] in keep)
    return _proven(Graph, verts, edges)


def relabel(G: Graph, mapping: Mapping[str, str]) -> Graph:
    """Rename vertices through an injective label mapping."""
    if set(mapping) != G.vertex_set:
        raise UnknownVertex("relabelling must cover the vertex set exactly")
    if len(set(mapping.values())) != len(mapping):
        raise BadParameter("relabelling must be injective")
    verts = tuple(mapping[v] for v in G.vertices)
    edges = frozenset(_norm_edge(mapping[u], mapping[v]) for u, v in G.edges)
    return Graph(verts, edges)


def disjoint_union(parts: Sequence[tuple[str, Graph]]) -> tuple[Graph, list[dict[str, str]]]:
    """Disjoint union of tagged graphs.

    Original labels are kept when they are globally unique; otherwise every
    vertex is renamed to ``tag#label`` (all or nothing, so the result is a
    deterministic function of the input).  Returns the union graph and one
    old-label -> new-label dict per part.
    """
    tags = [tag for tag, _ in parts]
    if len(set(tags)) != len(tags):
        raise BadParameter("disjoint union tags must be distinct")
    total = sum(g.order for _, g in parts)
    plain = {v for _, g in parts for v in g.vertices}
    prefix = len(plain) != total
    renames: list[dict[str, str]] = []
    verts: list[str] = []
    edges: set[Edge] = set()
    for tag, g in parts:
        ren = {v: (f"{tag}#{v}" if prefix else v) for v in g.vertices}
        renames.append(ren)
        verts.extend(ren[v] for v in g.vertices)
        edges.update(_norm_edge(ren[u], ren[v]) for u, v in g.edges)
    return Graph(tuple(verts), frozenset(edges)), renames
