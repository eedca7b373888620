"""Folds, stiff reduction with certificates, unfolds, quasi-cofibrations.

A vertex v folds to v' when N(v) is contained in N(v').  Removing v and
sending it to v' is a graph map, and repeating until no fold remains
reduces a graph to a stiff subgraph, unique up to isomorphism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    Graph,
    GraphError,
    GraphMap,
    UnknownVertex,
    BadParameter,
    induced_subgraph,
)
from .search import is_isomorphic
from .textio import serialize_graph


class NotAFold(GraphError):
    def __init__(self, message: str, witness: str | None = None):
        super().__init__(message)
        self.witness = witness


class InvalidSequence(GraphError):
    pass


class ConfluenceViolation(GraphError):
    pass


class NotInducedInclusion(GraphError):
    pass


@dataclass(frozen=True)
class FoldStep:
    removed: str
    target: str


def foldable_pairs(G: Graph) -> list[tuple[str, str]]:
    """All ordered pairs (v, v') of distinct vertices with N(v) <= N(v')."""
    pairs = []
    for v in G.sorted_vertices:
        nv = G.neighbors(v)
        for w in G.sorted_vertices:
            if w != v and nv <= G.neighbors(w):
                pairs.append((v, w))
    return pairs


def is_stiff(G: Graph) -> bool:
    for v in G.vertices:
        nv = G.neighbors(v)
        for w in G.vertices:
            if w != v and nv <= G.neighbors(w):
                return False
    return True


def apply_fold(G: Graph, removed: str, target: str) -> tuple[Graph, GraphMap]:
    """Remove a foldable vertex; returns (G - v, fold map G -> G - v)."""
    if removed not in G.vertex_set:
        raise UnknownVertex(f"no vertex {removed!r}")
    if target not in G.vertex_set:
        raise UnknownVertex(f"no vertex {target!r}")
    if removed == target:
        raise NotAFold("a vertex cannot fold to itself")
    missing = sorted(G.neighbors(removed) - G.neighbors(target))
    if missing:
        raise NotAFold(
            f"{removed!r} does not fold to {target!r}: neighbour {missing[0]!r} is not shared",
            witness=missing[0],
        )
    smaller = induced_subgraph(G, [v for v in G.vertices if v != removed])
    fold_map = GraphMap(
        G, smaller, tuple((v, target if v == removed else v) for v in G.vertices)
    )
    return smaller, fold_map


@dataclass(frozen=True)
class FoldSequence:
    """Replayable certificate that ``start`` folds down to ``result``."""

    start: Graph
    steps: tuple[FoldStep, ...]
    result: Graph
    composite: GraphMap

    @classmethod
    def replay(cls, start: Graph, steps: Iterable[FoldStep | tuple[str, str]]) -> "FoldSequence":
        """Validate each step in its intermediate graph and build the composite."""
        current = start
        done: list[FoldStep] = []
        trace: dict[str, str] = {v: v for v in start.vertices}
        for raw in steps:
            step = raw if isinstance(raw, FoldStep) else FoldStep(*raw)
            try:
                current, fold_map = apply_fold(current, step.removed, step.target)
            except GraphError as exc:
                raise InvalidSequence(
                    f"step {len(done)} ({step.removed}->{step.target}) is not a legal fold: {exc}"
                ) from exc
            trace = {v: fold_map(w) for v, w in trace.items()}
            done.append(step)
        composite = GraphMap(start, current, tuple(trace.items()))
        return cls(start, tuple(done), current, composite)

    def to_json(self) -> dict:
        return {
            "start": serialize_graph("start", self.start),
            "steps": [{"removed": s.removed, "target": s.target} for s in self.steps],
            "resultVertices": list(self.result.vertices),
        }


def stiff_reduction(
    G: Graph,
    policy: str = "first",
    seed: int | None = None,
    steps: Sequence[FoldStep | tuple[str, str]] | None = None,
) -> FoldSequence:
    """Fold down to a stiff graph under the given policy.

    ``first`` repeatedly applies the lexicographically least foldable pair,
    ``random`` draws uniformly from the available pairs (seeded), and
    ``given`` replays an explicit sequence, which must end stiff.
    """
    if policy == "given":
        if steps is None:
            raise BadParameter("policy 'given' needs an explicit step sequence")
        seq = FoldSequence.replay(G, steps)
        if not is_stiff(seq.result):
            raise InvalidSequence("the given sequence does not reach a stiff graph")
        return seq
    if policy not in ("first", "random"):
        raise BadParameter(f"unknown fold policy {policy!r}")
    rng = random.Random(seed) if policy == "random" else None
    chosen: list[FoldStep] = []
    current = G
    while True:
        pairs = foldable_pairs(current)
        if not pairs:
            break
        removed, target = pairs[0] if rng is None else rng.choice(pairs)
        chosen.append(FoldStep(removed, target))
        current, _ = apply_fold(current, removed, target)
    return FoldSequence.replay(G, chosen)


@dataclass(frozen=True)
class ConfluenceReport:
    graph: Graph
    sequences: tuple[FoldSequence, ...]
    stiff: Graph
    witnesses: tuple[GraphMap, ...]  # isomorphisms result_i -> result_0


def confluence_check(G: Graph, trials: int, seed: int | None = None) -> ConfluenceReport:
    """Randomized policies must land on isomorphic stiff graphs.

    Pairwise isomorphism follows from comparing every run against the first
    (isomorphism composes).  Raises ConfluenceViolation with both sequences
    on a mismatch, which would indicate an implementation bug.
    """
    if trials < 2:
        raise BadParameter("confluence needs at least two trials")
    master = random.Random(seed)
    sequences = tuple(
        stiff_reduction(G, "random", seed=master.randrange(2**32)) for _ in range(trials)
    )
    witnesses = []
    for seq in sequences:
        iso = is_isomorphic(seq.result, sequences[0].result)
        if iso is None:
            raise ConfluenceViolation(
                f"non-isomorphic stiff results: {sequences[0].to_json()} vs {seq.to_json()}"
            )
        witnesses.append(iso)
    return ConfluenceReport(G, sequences, sequences[0].result, tuple(witnesses))


def is_unfold(incl: GraphMap) -> bool:
    """True when incl is, up to relabelling, the inclusion G - v into G
    for some fold (v, v'): one extra vertex, induced, and the extra vertex
    folds to a surviving one."""
    if not incl.is_injective():
        return False
    extra = sorted(incl.codomain.vertex_set - incl.image_vertices)
    if len(extra) != 1:
        return False
    if not incl.is_induced_inclusion():
        return False
    v = extra[0]
    nv = incl.codomain.neighbors(v)
    return any(
        nv <= incl.codomain.neighbors(w) for w in incl.codomain.vertices if w != v
    )


@dataclass(frozen=True)
class StageReport:
    """Available folds at one intermediate state, classified."""

    survivors: tuple[str, ...]
    relative: tuple[tuple[str, str], ...]
    restricted: tuple[tuple[str, str], ...]


RECONSTRUCTED_SEMANTICS = (
    "reconstructed: a relative fold removes a vertex outside the included image, "
    "a restricted fold removes an image vertex; the verdict is reachability of a "
    "stiff graph through relative folds only"
)


@dataclass(frozen=True)
class QuasiCofibrationTrace:
    verdict: bool
    semantics: str
    sequence: tuple[FoldStep, ...] | None
    stages: tuple[StageReport, ...]
    stuck: tuple[StageReport, ...]

    def __bool__(self) -> bool:
        return self.verdict

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "semantics": self.semantics,
            "sequence": None
            if self.sequence is None
            else [{"removed": s.removed, "target": s.target} for s in self.sequence],
            "stuck": [
                {
                    "survivors": list(st.survivors),
                    "relative": [list(p) for p in st.relative],
                    "restricted": [list(p) for p in st.restricted],
                }
                for st in self.stuck
            ],
        }


def _stage(B: Graph, survivors: frozenset[str], protected: set[str]) -> tuple[Graph, StageReport]:
    sub = induced_subgraph(B, [v for v in B.vertices if v in survivors])
    pairs = foldable_pairs(sub)
    relative = tuple(p for p in pairs if p[0] not in protected)
    restricted = tuple(p for p in pairs if p[0] in protected)
    return sub, StageReport(tuple(sorted(survivors)), relative, restricted)


def is_quasi_cofibration(incl: GraphMap) -> QuasiCofibrationTrace:
    """Exhaustive search for a relative-fold route to a stiff graph.

    The induced inclusion's image is protected: only folds removing other
    vertices may fire.  Because an intermediate graph is the induced
    subgraph on its survivors, states are memoized by survivor set.  On
    failure the trace lists the stuck states, where only restricted folds
    remain; on success it lists one witnessing sequence with the per-stage
    fold classification for audit.
    """
    if not incl.is_induced_inclusion():
        raise NotInducedInclusion("quasi-cofibration checking needs an induced inclusion")
    B = incl.codomain
    protected = set(incl.image_vertices)
    start = frozenset(B.vertex_set)
    parents: dict[frozenset[str], tuple[frozenset[str], FoldStep] | None] = {start: None}
    queue: list[frozenset[str]] = [start]
    stuck: list[StageReport] = []
    goal: frozenset[str] | None = None
    while queue:
        state = queue.pop(0)
        sub, report = _stage(B, state, protected)
        if not report.relative and not report.restricted:
            goal = state
            break
        if not report.relative:
            stuck.append(report)
            continue
        for removed, target in report.relative:
            nxt = state - {removed}
            if nxt not in parents:
                parents[nxt] = (state, FoldStep(removed, target))
                queue.append(nxt)
    if goal is None:
        return QuasiCofibrationTrace(False, RECONSTRUCTED_SEMANTICS, None, (), tuple(stuck))
    steps: list[FoldStep] = []
    state = goal
    while parents[state] is not None:
        prev, step = parents[state]  # type: ignore[misc]
        steps.append(step)
        state = prev
    steps.reverse()
    stages = []
    state = start
    for step in steps:
        _, report = _stage(B, state, protected)
        stages.append(report)
        state = state - {step.removed}
    _, final_report = _stage(B, state, protected)
    stages.append(final_report)
    return QuasiCofibrationTrace(
        True, RECONSTRUCTED_SEMANTICS, tuple(steps), tuple(stages), ()
    )
