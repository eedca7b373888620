"""Folds, stiff reduction with certificates, unfolds, quasi-cofibrations.

A vertex v folds to v' when N(v) is contained in N(v').  Removing v and
sending it to v' is a graph map, and repeating until no fold remains
reduces a graph to a stiff subgraph, unique up to isomorphism.

Every intermediate graph is the induced subgraph on the vertices not yet
removed, so the fold kernel works on the compiled graph (``Graph._compiled``)
and represents an intermediate graph by its survivor mask ``alive``: v'
is a fold target of v exactly when v' is adjacent to every surviving
neighbour of v, an AND of neighbour masks (``_targets``).  A fold-down
keeps one target mask per vertex and, after each removal, recomputes only
the masks of the removed vertex's surviving neighbours; every other mask
just loses the removed bit.  A graph's ``first`` fold-down is computed
once and stored on it; results are built from proven steps by one builder,
``_sequence``, without checking the steps again.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import (
    Graph,
    GraphError,
    GraphMap,
    UnknownVertex,
    BadParameter,
    _bits,
    _proven,
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


def _targets(adj: list[int], alive: int, v: int) -> int:
    """Mask of the fold targets of v in the induced subgraph on ``alive``:
    the other survivors adjacent to every surviving neighbour of v."""
    targets = alive & ~(1 << v)
    nbrs = adj[v] & alive
    while nbrs and targets:
        low = nbrs & -nbrs
        targets &= adj[low.bit_length() - 1]
        nbrs ^= low
    return targets


def _fold_pairs(adj: list[int], alive: int) -> Iterator[tuple[int, int]]:
    """Foldable index pairs (v, v') of the induced subgraph on ``alive``,
    in sorted-label order."""
    for v in _bits(alive):
        for w in _bits(_targets(adj, alive, v)):
            yield v, w


def _check_fold(G: Graph, alive: int, removed: str, target: str) -> int:
    """Index of ``removed`` once (removed, target) is checked to be a fold
    of the induced subgraph on ``alive``; the NotAFold witness is the least
    neighbour of ``removed`` that ``target`` misses."""
    labels, index, adj, _ = G._compiled
    for label in (removed, target):
        if not alive >> index.get(label, G.order) & 1:
            raise UnknownVertex(f"no vertex {label!r}")
    v, w = index[removed], index[target]
    if v == w:
        raise NotAFold("a vertex cannot fold to itself")
    missing = adj[v] & alive & ~adj[w]
    if missing:
        witness = labels[next(_bits(missing))]
        raise NotAFold(
            f"{removed!r} does not fold to {target!r}: neighbour {witness!r} is not shared",
            witness=witness,
        )
    return v


def _everything(G: Graph) -> int:
    return (1 << G.order) - 1


def foldable_pairs(G: Graph) -> list[tuple[str, str]]:
    """All ordered pairs (v, v') of distinct vertices with N(v) <= N(v')."""
    labels, _, adj, _ = G._compiled
    return [(labels[v], labels[w]) for v, w in _fold_pairs(adj, _everything(G))]


def is_stiff(G: Graph) -> bool:
    return next(_fold_pairs(G._compiled[2], _everything(G)), None) is None


def apply_fold(G: Graph, removed: str, target: str) -> tuple[Graph, GraphMap]:
    """Remove a foldable vertex; returns (G - v, fold map G -> G - v)."""
    _check_fold(G, _everything(G), removed, target)
    seq = _sequence(G, (FoldStep(removed, target),))
    return seq.result, seq.composite


@dataclass(frozen=True)
class FoldSequence:
    """Replayable certificate that ``start`` folds down to ``result``."""

    start: Graph
    steps: tuple[FoldStep, ...]
    result: Graph
    composite: GraphMap

    @classmethod
    def replay(cls, start: Graph, steps: Iterable[FoldStep | tuple[str, str]]) -> "FoldSequence":
        """Validate each step against the survivors of the steps before it,
        then build the result and the composite once from the given steps."""
        alive = _everything(start)
        done: list[FoldStep] = []
        for raw in steps:
            try:
                if isinstance(raw, str):  # FoldStep(*"ax") would read it as a pair
                    raise TypeError(raw)
                step = raw if isinstance(raw, FoldStep) else FoldStep(*raw)
                alive &= ~(1 << _check_fold(start, alive, step.removed, step.target))
            except TypeError:
                raise InvalidSequence(f"step {len(done)} ({raw!r}) is not a (removed, target) pair") from None
            except GraphError as exc:
                raise InvalidSequence(
                    f"step {len(done)} ({step.removed}->{step.target}) is not a legal fold: {exc}"
                ) from exc
            done.append(step)
        return _sequence(start, tuple(done))

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
    pairs = _first_folds(G) if policy == "first" else _fold_down(G, random.Random(seed))
    labels = G._compiled[0]
    return _sequence(G, tuple(FoldStep(labels[v], labels[w]) for v, w in pairs))


def _sequence(start: Graph, steps: tuple[FoldStep, ...]) -> FoldSequence:
    """The fold sequence of steps already proven to be successive folds of
    ``start``, built without checking them again."""
    labels, index, _, _ = start._compiled
    image = _composite(start.order, [(index[s.removed], index[s.target]) for s in steps])
    result = induced_subgraph(start, [labels[k] for k, s in enumerate(image) if s == k])
    composite = _proven(GraphMap, start, result, tuple((v, labels[k]) for v, k in zip(labels, image)))
    return FoldSequence(start, steps, result, composite)


def _first_folds(G: Graph) -> list[tuple[int, int]]:
    """The ``first`` fold-down of G, computed once per graph and stored on
    it next to ``_compiled``; every ``first`` core of G is read from here."""
    pairs = vars(G).get("_first_folds")
    if pairs is None:
        pairs = vars(G)["_first_folds"] = _fold_down(G)
    return pairs


def _fold_down(G: Graph, rng: random.Random | None = None) -> list[tuple[int, int]]:
    """Index pairs (removed, target) of a fold-down of G to a stiff graph:
    the least foldable pair at each step, or one drawn by ``rng`` from the
    sorted pair list.  The survivors are the vertices never removed.

    ``targets[v]`` is the target mask of v under the current survivors and
    ``movers`` the mask of vertices with a target.  Removing x changes the
    surviving neighbourhood only of x's surviving neighbours, so only their
    masks are recomputed.  Any other mask holding bit x belongs to a vertex
    whose surviving neighbours are all adjacent to x, so to a vertex two
    hops from x, or to one with no surviving neighbour; those masks lose
    bit x.  A vertex with no surviving neighbour is isolated in G, because
    every neighbour of a removed vertex stays adjacent to its target.
    A random draw takes k = ``rng.randrange(size)`` and reads the k-th pair
    of the sorted pair list without building it; ``rng.choice`` on the full
    list makes the same draw and picks the same pair.
    """
    adj = G._compiled[2]
    alive = _everything(G)
    targets = [_targets(adj, alive, v) for v in range(G.order)]
    movers = isolated = size = 0
    for v, t in enumerate(targets):
        if t:
            movers |= 1 << v
            size += t.bit_count()
        if not adj[v]:
            isolated |= 1 << v
    chosen: list[tuple[int, int]] = []
    while movers:
        if rng is None:
            x = (movers & -movers).bit_length() - 1
            pair = x, (targets[x] & -targets[x]).bit_length() - 1
        else:
            pair = _kth_pair(targets, movers, rng.randrange(size))
        chosen.append(pair)
        x = pair[0]
        bit = 1 << x
        alive ^= bit
        movers ^= bit
        size -= targets[x].bit_count()
        targets[x] = 0
        near = adj[x] & alive
        two_hop = 0
        for u in _bits(near):
            two_hop |= adj[u]
        for u in _bits((two_hop | isolated) & movers & ~near):
            if targets[u] & bit:
                targets[u] ^= bit
                size -= 1
                if not targets[u]:
                    movers ^= 1 << u
        for u in _bits(near):
            t = _targets(adj, alive, u)
            size += t.bit_count() - targets[u].bit_count()
            targets[u] = t
            movers = movers | 1 << u if t else movers & ~(1 << u)
    return chosen


def _kth_pair(targets: list[int], movers: int, k: int) -> tuple[int, int]:
    """Item k of the sorted foldable-pair list of ``targets`` over
    ``movers``, read by walking the movers' target counts."""
    for v in _bits(movers):
        t = targets[v]
        count = t.bit_count()
        if k < count:
            for _ in range(k):
                t &= t - 1
            return v, (t & -t).bit_length() - 1
        k -= count
    raise IndexError(k)


def _composite(n: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Composite of the folds (removed, target) of an n-vertex graph at
    index level: entry k is the index of the survivor that vertex k folds
    onto, so the survivors are the fixed points."""
    image = list(range(n))
    for v, w in reversed(pairs):
        image[v] = image[w]
    return image


def _retraction(G: Graph) -> list[int]:
    """The ``first`` stiff reduction's composite at index level."""
    return _composite(G.order, _first_folds(G))


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
    extra = sorted(incl.codomain.vertex_set - incl.image_vertices)
    if len(extra) != 1 or not incl.is_induced_inclusion():
        return False
    _, index, adj, _ = incl.codomain._compiled
    return _targets(adj, _everything(incl.codomain), index[extra[0]]) != 0


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


def _stage(B: Graph, alive: int, protected: int) -> StageReport:
    labels, _, adj, _ = B._compiled
    relative, restricted = [], []
    for v, w in _fold_pairs(adj, alive):
        (restricted if protected >> v & 1 else relative).append((labels[v], labels[w]))
    return StageReport(tuple(labels[k] for k in _bits(alive)), tuple(relative), tuple(restricted))


def is_quasi_cofibration(incl: GraphMap) -> QuasiCofibrationTrace:
    """Exhaustive search for a relative-fold route to a stiff graph.

    The induced inclusion's image is protected: only folds removing other
    vertices may fire.  Because an intermediate graph is the induced
    subgraph on its survivors, states are memoized by survivor mask.  On
    failure the trace lists the stuck states, where only restricted folds
    remain; on success it lists one witnessing sequence with the per-stage
    fold classification for audit.
    """
    if not incl.is_induced_inclusion():
        raise NotInducedInclusion("quasi-cofibration checking needs an induced inclusion")
    B = incl.codomain
    index = B._compiled[1]
    protected = sum(1 << index[v] for v in incl.image_vertices)
    start = _everything(B)
    parents: dict[int, tuple[int, FoldStep] | None] = {start: None}
    reports: dict[int, StageReport] = {}
    queue = deque([start])
    stuck: list[StageReport] = []
    goal: int | None = None
    while queue:
        state = queue.popleft()
        report = reports[state] = _stage(B, state, protected)
        if not report.relative and not report.restricted:
            goal = state
            break
        if not report.relative:
            stuck.append(report)
            continue
        for removed, target in report.relative:
            nxt = state & ~(1 << index[removed])
            if nxt not in parents:
                parents[nxt] = (state, FoldStep(removed, target))
                queue.append(nxt)
    if goal is None:
        return QuasiCofibrationTrace(False, RECONSTRUCTED_SEMANTICS, None, (), tuple(stuck))
    steps: list[FoldStep] = []
    stages = [reports[goal]]
    state = goal
    while parents[state] is not None:
        state, step = parents[state]  # type: ignore[misc]
        steps.append(step)
        stages.append(reports[state])
    return QuasiCofibrationTrace(
        True, RECONSTRUCTED_SEMANTICS, tuple(reversed(steps)), tuple(reversed(stages)), ()
    )
