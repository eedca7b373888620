"""Membership tests for weak-equivalence classes and axiom instance checks.

Two classes are decided here.  The strict class contains the maps with a
two-sided homotopy inverse (decided through stiff cores).  The relaxed class
contains the maps that carry every copy of the domain's stiff subgraph
isomorphically onto a copy of the codomain's stiff subgraph; past the
injectivity and edge-count checks, every copy asks whether the stiff cores
are isomorphic, so that is tested once.  ``unknown`` is a first-class
verdict: a blown budget is reported, never coerced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    BudgetExceeded,
    Embedding,
    Graph,
    GraphMap,
    SignatureMismatch,
    _norm_edge,
    _proven,
    compose,
    induced_subgraph,
)
from .folds import FoldSequence, stiff_reduction
from .homotopy import EquivalenceCertificate, is_equivalence
from .search import enumerate_copies, is_isomorphic

IN = "in"
OUT = "out"
UNKNOWN = "unknown"

COPY_SUBGRAPH = "subgraph"
COPY_INDUCED = "induced"
IMAGE_SUBGRAPH = "image-subgraph"
IMAGE_INDUCED = "induced-on-image"


@dataclass(frozen=True)
class WSemantics:
    """Reading of the membership condition; both axes are selectable.

    The default takes arbitrary subgraph copies and compares the literal
    image (vertices f(V), edges f(E)) against the codomain's stiff graph.
    """

    copy_mode: str = COPY_SUBGRAPH
    image_mode: str = IMAGE_SUBGRAPH


DEFAULT_SEMANTICS = WSemantics()


@dataclass(frozen=True)
class WxVerdict:
    verdict: str
    certificate: EquivalenceCertificate | None = None
    detail: str = ""


def in_W_times(f: GraphMap, budget: int | None = None) -> WxVerdict:
    """Membership in the strict class, by ``is_equivalence``: ``out`` when
    the stiff cores rule an inverse out (no budget spent), else ``in`` with
    the canonical inverse and its chains, or ``unknown`` past the budget."""
    try:
        cert = is_equivalence(f, budget=budget)
    except BudgetExceeded as exc:
        return WxVerdict(UNKNOWN, None, str(exc))
    if cert is None:
        return WxVerdict(OUT)
    return WxVerdict(IN, cert)


@dataclass(frozen=True)
class WWitness:
    """A copy of the domain's stiff graph on which the condition fails."""

    embedding: Embedding
    failure: str  # "non-injective" or "image-mismatch"
    colliding: tuple[str, str] | None
    image_graph: Graph


@dataclass(frozen=True)
class WMembershipVerdict:
    map: GraphMap
    verdict: str
    semantics: WSemantics
    witness: WWitness | None = None
    copies_checked: int = 0
    domain_reduction: FoldSequence | None = None
    codomain_reduction: FoldSequence | None = None
    detail: str = ""

    def reverify_witness(self) -> bool:
        """Recompute the witness failure from scratch."""
        if self.witness is None or not self.witness.embedding.check():
            return False
        emb, f = self.witness.embedding, self.map
        if self.witness.failure == "non-injective":
            return len({f(v) for v in emb.image_vertex_set}) < len(emb.image_vertex_set)
        image_graph = _image_of_copy(f, emb, self.semantics)
        if len(image_graph.edges) != len(emb.image_edges):
            return True
        return is_isomorphic(image_graph, stiff_reduction(f.codomain).result) is None


def _image_of_copy(f: GraphMap, emb: Embedding, semantics: WSemantics) -> Graph:
    """Image of the copy under f: the literal image (f(V), f(E)), or under
    the induced reading the codomain's subgraph induced on f(V)."""
    images = sorted({f(v) for v in emb.image_vertex_set})
    if semantics.image_mode == IMAGE_SUBGRAPH:
        edges = frozenset(_norm_edge(f(u), f(v)) for u, v in emb.image_edges)
        return _proven(Graph, tuple(images), edges)
    return induced_subgraph(f.codomain, images)


def in_W(
    f: GraphMap,
    semantics: WSemantics = DEFAULT_SEMANTICS,
    budget: int | None = None,
) -> WMembershipVerdict:
    """Check every copy of the domain's stiff graph under the semantics.

    Copies are enumerated exhaustively (collapsed to distinct vertex-edge
    sets, since the condition only depends on the copy, not the embedding);
    the first failing copy becomes the witness.  The cores A_s and B_s are
    compared once, at the first copy that f maps injectively and edge for edge.
    """
    try:
        dom_red = stiff_reduction(f.domain)
        cod_red = stiff_reduction(f.codomain)
        cores_isomorphic = None
        copies = enumerate_copies(
            dom_red.result, f.domain, mode=semantics.copy_mode, budget=budget, collapse=True
        )
        for count, emb in enumerate(copies, start=1):
            first_onto: dict[str, str] = {}  # image -> least copy vertex sent there
            for v in sorted(emb.image_vertex_set):
                if first_onto.setdefault(f(v), v) != v:
                    break
            if len(first_onto) < len(emb.image_vertex_set):
                witness = WWitness(emb, "non-injective", (first_onto[f(v)], v), emb.as_map().image_graph())
                break
            image_graph = _image_of_copy(f, emb, semantics)
            if len(image_graph.edges) == len(emb.image_edges):
                if cores_isomorphic is None:
                    cores_isomorphic = is_isomorphic(dom_red.result, cod_red.result) is not None
                if cores_isomorphic:
                    continue
            witness = WWitness(emb, "image-mismatch", None, image_graph)
            break
        else:
            return WMembershipVerdict(f, IN, semantics, None, len(copies), dom_red, cod_red)
        return WMembershipVerdict(f, OUT, semantics, witness, count, dom_red, cod_red)
    except BudgetExceeded as exc:
        return WMembershipVerdict(f, UNKNOWN, semantics, detail=str(exc))


def _membership(predicate: str, m: GraphMap, budget: int | None, semantics: WSemantics) -> str:
    if predicate in ("wx", "in_w_times"):
        return in_W_times(m, budget=budget).verdict
    if predicate in ("w", "in_w"):
        return in_W(m, semantics=semantics, budget=budget).verdict
    raise SignatureMismatch(f"unknown membership predicate {predicate!r}")


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    hypothesis: tuple[str, ...]
    conclusion: tuple[str, ...]
    status: str  # "pass" | "fail" | "vacuous" | "unknown"


@dataclass(frozen=True)
class ChainReport:
    predicate: str
    memberships: dict[str, str]
    checks: tuple[AxiomCheck, ...] = field(default_factory=tuple)

    def violated(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {
            "predicate": self.predicate,
            "memberships": dict(sorted(self.memberships.items())),
            "checks": [
                {
                    "name": c.name,
                    "hypothesis": list(c.hypothesis),
                    "conclusion": list(c.conclusion),
                    "status": c.status,
                }
                for c in self.checks
            ],
        }


def _implication(
    name: str,
    memberships: dict[str, str],
    hypothesis: tuple[str, ...],
    conclusion: tuple[str, ...],
) -> AxiomCheck:
    values = [memberships[h] for h in hypothesis] + [memberships[c] for c in conclusion]
    if UNKNOWN in values:
        status = "unknown"
    elif any(memberships[h] == OUT for h in hypothesis):
        status = "vacuous"
    elif all(memberships[c] == IN for c in conclusion):
        status = "pass"
    else:
        status = "fail"
    return AxiomCheck(name, hypothesis, conclusion, status)


def check_two_of_three(
    f: GraphMap,
    g: GraphMap,
    predicate: str = "in_w",
    budget: int | None = None,
    semantics: WSemantics = DEFAULT_SEMANTICS,
) -> ChainReport:
    """Evaluate the predicate on f, g, gf and test all three implications."""
    if f.codomain != g.domain:
        raise SignatureMismatch("maps are not composable")
    gf = compose(g, f)
    members = {
        "f": _membership(predicate, f, budget, semantics),
        "g": _membership(predicate, g, budget, semantics),
        "gf": _membership(predicate, gf, budget, semantics),
    }
    checks = (
        _implication("f,g=>gf", members, ("f", "g"), ("gf",)),
        _implication("f,gf=>g", members, ("f", "gf"), ("g",)),
        _implication("g,gf=>f", members, ("g", "gf"), ("f",)),
    )
    return ChainReport(predicate, members, checks)


def check_two_of_six(
    f: GraphMap,
    g: GraphMap,
    h: GraphMap,
    predicate: str = "in_w",
    budget: int | None = None,
    semantics: WSemantics = DEFAULT_SEMANTICS,
) -> ChainReport:
    """For a chain A -> B -> C -> D: (gf, hg in class) => f, g, h, hgf in class."""
    if f.codomain != g.domain or g.codomain != h.domain:
        raise SignatureMismatch("maps do not form a composable chain")
    gf = compose(g, f)
    hg = compose(h, g)
    hgf = compose(h, gf)
    members = {
        name: _membership(predicate, m, budget, semantics)
        for name, m in (("f", f), ("g", g), ("h", h), ("gf", gf), ("hg", hg), ("hgf", hgf))
    }
    checks = (
        _implication("gf,hg=>f,g,h,hgf", members, ("gf", "hg"), ("f", "g", "h", "hgf")),
    )
    return ChainReport(predicate, members, checks)
