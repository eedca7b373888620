"""Seeded inputs, operations and oracles for the four benchmark workloads.

A workload is an endless sequence of rounds.  Round ``i`` of workload ``w``
under seed ``s`` is generated from its own ``random.Random("w/s/i")``, so
any prefix of rounds is a pure function of (workload, seed) and does not
depend on how many rounds a run gets through.  Every round holds the same
op kinds, and input sizes cycle with ``i`` over short periods instead of
being drawn (stratified sampling), so the mix barely moves between seeds;
the seed picks the graphs themselves.

Each op is a zero-argument ``call`` into the library plus a ``check`` that
runs outside the timed region.  ``check`` returns ``(decided, key)``:
``decided`` is False for an ``unknown`` / budget verdict, and ``key`` is a
short canonical summary of the answer used for the verdict digest.  A
wrong answer raises ``OracleFailure``.

Library entry points are looked up as module attributes at call time
(``weq.in_W``, not a captured reference), so the tracer's rebinding applies.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from xhomotopy import cli, claims, constructions, core, folds, homotopy, search, weq
from xhomotopy.generators import random_equivalence, random_graph, random_unfold_map

GOLDEN_PATH = Path(__file__).with_name("golden_paper.json")
FIGURES_PATH = Path(claims.__file__).with_name("data") / "figures.graphs"


class OracleFailure(Exception):
    """An op's answer, certificate or witness did not re-check."""


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, str]]


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{index}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleFailure(message)


def _map_key(f: core.GraphMap) -> tuple[str, ...]:
    return tuple(f(v) for v in f.domain.sorted_vertices)


def _random_hom(rng: random.Random, A: core.Graph, B: core.Graph) -> core.GraphMap | None:
    """First hom found by a backtracking search that tries images in random
    order, or None when Hom(A, B) is empty."""
    order = list(A.sorted_vertices)
    images: dict[str, str] = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        a = order[i]
        candidates = list(B.sorted_vertices)
        rng.shuffle(candidates)
        for b in candidates:
            if all(u not in images or B.has_edge(images[u], b) for u in A.neighbors(a) if u != a) and (
                not A.is_looped(a) or B.is_looped(b)
            ):
                images[a] = b
                if extend(i + 1):
                    return True
                del images[a]
        return False

    return core.GraphMap(A, B, tuple(images.items())) if extend(0) else None


def _looped_random_graph(rng: random.Random, order: int, prefix: str) -> core.Graph:
    """Random graph with at least one loop, so every graph maps into it."""
    while True:
        G = random_graph(rng, order, prefix=prefix)
        if not G.is_simple():
            return G


def _random_hom_between(rng: random.Random, order_a: int, order_b: int) -> core.GraphMap:
    A = random_graph(rng, order_a, prefix="a")
    return _random_hom(rng, A, _looped_random_graph(rng, order_b, "b"))


def _grow(rng: random.Random, G: core.Graph, steps: int, tag: str) -> core.GraphMap:
    """Composite inclusion of G into G plus ``steps`` unfolded vertices."""
    incl = core.identity_map(G)
    for i in range(steps):
        incl = core.compose(random_unfold_map(rng, incl.codomain, f"{tag}{i}"), incl)
    return incl


def _grown_graph(rng: random.Random, G: core.Graph, steps: int, tag: str) -> core.Graph:
    """Same growth as ``_grow`` without composing the inclusions (cheaper)."""
    for i in range(steps):
        G = random_unfold_map(rng, G, f"{tag}{i}").codomain
    return G


# ---------------------------------------------------------------- strict

def _verify_equivalence(cert: homotopy.EquivalenceCertificate, f: core.GraphMap) -> None:
    _require(cert.forward == f, "certificate is for another map")
    _require(cert.verify(), "equivalence certificate does not verify")


def _class_index(G: core.Graph) -> dict[tuple[str, ...], int]:
    return {
        _map_key(m): idx
        for idx, cls in enumerate(homotopy.homotopy_classes(G, G))
        for m in cls
    }


def _confirm_not_equivalence(f: core.GraphMap) -> None:
    """Independent refutation: stiff comparison, else the class partition of
    both endomorphism monoids checked against every candidate inverse."""
    A, B = f.domain, f.codomain
    if not homotopy.graphs_equivalent(A, B).equivalent:
        return
    class_a, class_b = _class_index(A), _class_index(B)
    id_a = class_a[tuple(A.sorted_vertices)]
    id_b = class_b[tuple(B.sorted_vertices)]
    fa = f.mapping
    for key in search.enumerate_hom_assignments(B, A):
        g = dict(zip(B.sorted_vertices, key))
        gf = tuple(g[fa[v]] for v in A.sorted_vertices)
        fg = tuple(fa[g[v]] for v in B.sorted_vertices)
        _require(
            class_a[gf] != id_a or class_b[fg] != id_b,
            f"'out' verdict but {key} is a homotopy inverse",
        )


def _check_strict(f: core.GraphMap, must_be_in: bool):
    def check(v: weq.WxVerdict) -> tuple[bool, str]:
        if v.verdict == weq.UNKNOWN:
            return False, "unknown"
        if v.verdict == weq.IN:
            _verify_equivalence(v.certificate, f)
            return True, f"in:{_map_key(v.certificate.inverse)}"
        _require(v.verdict == weq.OUT, f"undocumented verdict {v.verdict!r}")
        _require(not must_be_in, "equivalence by construction reported 'out'")
        _confirm_not_equivalence(f)
        return True, "out"

    return check


def _check_identity(f: core.GraphMap):
    def check(cert) -> tuple[bool, str]:
        _require(cert is not None, "identity map reported as no equivalence")
        _verify_equivalence(cert, f)
        return True, f"in:{len(cert.hom_to_identity_domain)}"

    return check


def _count_homs(A: core.Graph, B: core.Graph) -> int:
    """Brute-force |Hom(A, B)| over all vertex functions."""
    edges = sorted(A.edges)
    verts = A.sorted_vertices
    count = 0
    for images in itertools.product(B.sorted_vertices, repeat=len(verts)):
        img = dict(zip(verts, images))
        if all(B.has_edge(img[u], img[v]) for u, v in edges):
            count += 1
    return count


def _check_classes(A: core.Graph, B: core.Graph):
    def check(classes) -> tuple[bool, str]:
        # the looped path is contractible, so all maps into it are homotopic
        _require(len(classes) == 1, f"{len(classes)} classes of maps into a looped path")
        _require(len(classes[0]) == _count_homs(A, B), "class misses some homs")
        return True, f"1x{len(classes[0])}"

    return check


def _check_homotopic(f: core.GraphMap, g: core.GraphMap):
    def check(cert) -> tuple[bool, str]:
        _require(cert is not None, "maps into a looped path reported non-homotopic")
        _require(cert.start == f and cert.end == g, "chain has the wrong endpoints")
        _require(bool(homotopy.verify_homotopy(cert)), "homotopy certificate does not verify")
        return True, f"chain:{len(cert)}"

    return check


def _contractible(rng: random.Random, order: int) -> core.Graph:
    return _grown_graph(rng, core.make_graph(["p"], [("p", "p")]), order - 1, "c")


def strict_round(rng: random.Random, i: int) -> list[Op]:
    while True:
        eq = random_equivalence(rng, random_graph(rng, 1 + i % 4), 3, "e")
        if max(eq.domain.order, eq.codomain.order) <= 5:
            break
    hom = _random_hom_between(rng, 3 + i % 3, 3 + i // 3 % 3)
    ident = core.identity_map(random_graph(rng, 4 + i % 2, prefix="r"))
    contractible = core.identity_map(_contractible(rng, 4 + i // 2 % 2))
    # classes on a fixed pair of looped paths: their cost would otherwise
    # swing with the random domain's hom count and dominate the seed variance
    A, path = core.interval(1 + i % 3), core.interval(3 + i // 3 % 3)
    B = random_graph(rng, 2 + i % 2, prefix="s")
    left, right = _random_hom(rng, B, path), _random_hom(rng, B, path)
    return [
        Op("in_W_times:composite", lambda: weq.in_W_times(eq), _check_strict(eq, True)),
        Op("in_W_times:random", lambda: weq.in_W_times(hom), _check_strict(hom, False)),
        Op("is_equivalence:identity", lambda: homotopy.is_equivalence(ident), _check_identity(ident)),
        Op(
            "in_W_times:contractible",
            lambda: weq.in_W_times(contractible),
            _check_strict(contractible, True),
        ),
        Op("homotopy_classes:interval", lambda: homotopy.homotopy_classes(A, path), _check_classes(A, path)),
        Op("are_homotopic:interval", lambda: homotopy.are_homotopic(left, right), _check_homotopic(left, right)),
    ]


# ---------------------------------------------------------------- folding

def _is_cycle(G: core.Graph, n: int) -> bool:
    if G.order != n or len(G.edges) != n or not G.is_simple():
        return False
    if any(G.degree(v) != 2 for v in G.vertices):
        return False
    seen, todo = set(), [G.vertices[0]]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(G.neighbors(v))
    return len(seen) == n


def _is_edge(G: core.Graph) -> bool:
    return G.order == 2 and len(G.edges) == 1 and G.is_simple()


def _is_looped_point(G: core.Graph) -> bool:
    return G.order == 1 and len(G.edges) == 1


CORES = {
    "C5": (lambda: constructions.cycle(5), lambda G: _is_cycle(G, 5)),
    "C7": (lambda: constructions.cycle(7), lambda G: _is_cycle(G, 7)),
    "point": (lambda: core.make_graph(["p"], [("p", "p")]), _is_looped_point),
    "K2": (lambda: core.make_graph(["0", "1"], [("0", "1")]), _is_edge),
}


def _random_tree(rng: random.Random, order: int) -> core.Graph:
    verts = [f"t{i}" for i in range(order)]
    return core.make_graph(verts, [(verts[i], verts[rng.randrange(i)]) for i in range(1, order)])


def _check_sequence(G: core.Graph, seq: folds.FoldSequence, is_core) -> None:
    _require(is_core(seq.result), "stiff result is not isomorphic to the known core")
    _require(folds.is_stiff(seq.result), "result is not stiff")
    replayed = folds.FoldSequence.replay(G, seq.steps)
    _require(
        replayed.result == seq.result and replayed.composite == seq.composite,
        "fold steps do not replay to the reported result",
    )


def _steps_key(seq: folds.FoldSequence) -> str:
    text = " ".join(f"{s.removed}>{s.target}" for s in seq.steps)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _check_reduction(G: core.Graph, is_core):
    def check(seq) -> tuple[bool, str]:
        _check_sequence(G, seq, is_core)
        return True, _steps_key(seq)

    return check


def _check_confluence(G: core.Graph, is_core):
    def check(report) -> tuple[bool, str]:
        for seq in report.sequences:
            _check_sequence(G, seq, is_core)
        for seq, iso in zip(report.sequences, report.witnesses):
            _require(
                iso.domain == seq.result and iso.codomain == report.stiff and iso.is_injective(),
                "confluence witness is not an isomorphism onto the first result",
            )
        return True, ",".join(_steps_key(s) for s in report.sequences)

    return check


def _check_qcof(incl: core.GraphMap):
    def check(trace) -> tuple[bool, str]:
        # reversing the unfolds is a relative-fold route, so the answer is yes
        _require(trace.verdict, "core inclusion reported as no quasi-cofibration")
        protected = incl.image_vertices
        _require(
            all(s.removed not in protected for s in trace.sequence),
            "witness sequence removes an included vertex",
        )
        replayed = folds.FoldSequence.replay(incl.codomain, trace.sequence)
        _require(folds.is_stiff(replayed.result), "witness sequence does not end stiff")
        return True, f"qcof:{len(trace.sequence)}"

    return check


def folding_round(rng: random.Random, i: int) -> list[Op]:
    cores = sorted(CORES)
    ops = []
    for j, (policy, steps) in enumerate((("first", 40), ("random", 40), ("first", 90))):
        build, is_core = CORES[cores[(i + j) % 4]]
        G = _grown_graph(rng, build(), steps, "u")
        fold_seed = rng.randrange(2**32)
        ops.append(
            Op(
                f"stiff_reduction:{policy}",
                lambda G=G, p=policy, s=fold_seed: folds.stiff_reduction(G, p, seed=s),
                _check_reduction(G, is_core),
            )
        )
    tree = _random_tree(rng, 60)
    ops.append(Op("stiff_reduction:tree", lambda: folds.stiff_reduction(tree), _check_reduction(tree, _is_edge)))
    build, is_core = CORES[cores[(i + 3) % 4]]
    G = _grown_graph(rng, build(), 20, "w")
    trial_seed = rng.randrange(2**32)
    ops.append(
        Op(
            "confluence_check",
            lambda: folds.confluence_check(G, 3, seed=trial_seed),
            _check_confluence(G, is_core),
        )
    )
    for j in range(2):
        build = CORES[cores[(i + j) % 4]][0]
        incl = _grow(rng, build(), 4 + (i + 2 * j) % 4, "q")
        ops.append(Op("is_quasi_cofibration", lambda incl=incl: folds.is_quasi_cofibration(incl), _check_qcof(incl)))
    return ops


# ---------------------------------------------------------------- relaxed

SEMANTICS = tuple(
    weq.WSemantics(copy, image)
    for copy in (weq.COPY_SUBGRAPH, weq.COPY_INDUCED)
    for image in (weq.IMAGE_SUBGRAPH, weq.IMAGE_INDUCED)
)


def _check_relaxed(f: core.GraphMap):
    def check(v: weq.WMembershipVerdict) -> tuple[bool, str]:
        if v.verdict == weq.UNKNOWN:
            return False, "unknown"
        if v.verdict == weq.OUT:
            _require(v.reverify_witness(), "'out' witness does not re-check")
            return True, f"out:{v.copies_checked}:{v.witness.failure}"
        _require(v.verdict == weq.IN, f"undocumented verdict {v.verdict!r}")
        # relaxed membership forces the two stiff graphs to be isomorphic
        stiff_dom = folds.stiff_reduction(f.domain).result
        stiff_cod = folds.stiff_reduction(f.codomain).result
        _require(search.is_isomorphic(stiff_dom, stiff_cod) is not None, "'in' but stiff graphs differ")
        return True, f"in:{v.copies_checked}"

    return check


def _count_copies(pattern: core.Graph, host: core.Graph, mode: str) -> int:
    """Brute-force count of injective embeddings over all vertex tuples."""
    pv, hv = pattern.sorted_vertices, host.sorted_vertices
    host_edges = {(a, b) for a in range(len(hv)) for b in range(len(hv)) if host.has_edge(hv[a], hv[b])}
    pairs = [(i, j) for i in range(len(pv)) for j in range(i, len(pv))]
    edges = [(i, j) for i, j in pairs if pattern.has_edge(pv[i], pv[j])]
    non_edges = [(i, j) for i, j in pairs if not pattern.has_edge(pv[i], pv[j])] if mode == core.MODE_INDUCED else []
    return sum(
        1
        for p in itertools.permutations(range(len(hv)), len(pv))
        if all((p[i], p[j]) in host_edges for i, j in edges)
        and not any((p[i], p[j]) in host_edges for i, j in non_edges)
    )


def _check_copies(pattern: core.Graph, host: core.Graph, mode: str):
    def check(copies) -> tuple[bool, str]:
        _require(len(copies) == _count_copies(pattern, host, mode), "copy count differs from brute force")
        return True, f"copies:{len(copies)}"

    return check


def _check_two_of_three(maps: dict[str, core.GraphMap]):
    def check(report: weq.ChainReport) -> tuple[bool, str]:
        members = {name: weq.in_W(m).verdict for name, m in maps.items()}
        _require(report.memberships == members, "memberships differ from direct in_W calls")
        for c in report.checks:
            values = [members[n] for n in c.hypothesis + c.conclusion]
            if weq.UNKNOWN in values:
                expected = "unknown"
            elif weq.OUT in (members[n] for n in c.hypothesis):
                expected = "vacuous"
            else:
                expected = "pass" if all(members[n] == weq.IN for n in c.conclusion) else "fail"
            _require(c.status == expected, f"implication {c.name} is {c.status}, expected {expected}")
        decided = all(c.status != "unknown" for c in report.checks)
        return decided, ",".join(c.status for c in report.checks)

    return check


def relaxed_round(rng: random.Random, i: int) -> list[Op]:
    f = _random_hom_between(rng, 4 + i % 5, 3 + i // 5 % 5)
    ops = [
        Op(f"in_W:{s.copy_mode}/{s.image_mode}", lambda s=s: weq.in_W(f, s), _check_relaxed(f))
        for s in SEMANTICS
    ]
    eq = random_equivalence(rng, random_graph(rng, 2 + i % 4), 3, "e")
    sem = SEMANTICS[i % 4]
    ops.append(Op("in_W:composite", lambda: weq.in_W(eq, sem), _check_relaxed(eq)))
    pattern = random_graph(rng, 3 + i % 2, prefix="p")
    host = random_graph(rng, 6 + i % 3, edge_prob=0.6, prefix="h")
    for mode in (core.MODE_SUBGRAPH, core.MODE_INDUCED):
        ops.append(
            Op(
                f"enumerate_copies:{mode}",
                lambda mode=mode: search.enumerate_copies(pattern, host, mode),
                _check_copies(pattern, host, mode),
            )
        )
    first = _random_hom_between(rng, 3 + i % 4, 3 + i // 4 % 4)
    second = _random_hom(rng, first.codomain, _looped_random_graph(rng, 3 + i // 2 % 4, "c"))
    maps = {"f": first, "g": second, "gf": core.compose(second, first)}
    ops.append(
        Op(
            "check_two_of_three:w",
            lambda: weq.check_two_of_three(first, second, "w"),
            _check_two_of_three(maps),
        )
    )
    return ops


# ---------------------------------------------------------------- paper

def paper_catalogue(figures: str) -> dict[str, list[list[str]]]:
    """CLI argument lists per command; each round runs all of them, shuffled."""
    graphs = ["fig1.A", "fig1.B", "fig2.A", "fig2.B", "fig3.D"]
    return {
        "verify-paper": [["verify-paper", "all", "--json"]],
        "parse": [["parse", figures], ["parse", figures, "--json"]],
        "stiff": [["stiff", figures, g] for g in graphs]
        + [["stiff", figures, "fig1.B", "--policy", "random", "--seed", str(s), "--json"] for s in range(4)],
        "iso": [["iso", figures, a, b] for a in graphs for b in graphs if a <= b],
        # the 15-30 ms variants fill the latency range around p90, so p90 does
        # not interpolate across an empty gap between op clusters
        "homs": [["homs", figures, a, b, "--count-only"] for a in ("fig2.A", "fig2.B") for b in ("fig2.B", "fig3.D")]
        + [["homs", figures, "fig1.A", b, "--count-only"] for b in ("fig1.B", "fig3.D")],
        "is-weq": [["is-weq", figures, m] for m in ("fig1.f", "fig2.f")] + [["is-weq", figures, "fig1.f", "--json"]],
        "in-w": [
            ["in-w", figures, m, "--copy-mode", c, "--image-mode", i]
            for m in ("fig1.f", "fig1.g", "fig2.f")
            for c in ("subgraph", "induced")
            for i in ("image", "induced")
        ],
        "pushout": [["pushout", figures, "fig1.f", "fig1.f"], ["pushout", figures, "fig2.f", "fig2.f", "--dot"]],
        "cylinder": [["cylinder", figures, m, "--json"] for m in ("fig1.f", "fig1.g", "fig2.f")],
        "counterexample": [["counterexample", figures, "fig1.g"]],
        "check-axiom": [["check-axiom", "2of3", figures, "fig1.f", "fig1.g", "--class", "w"]],
        "export-dot": [["export-dot", figures]] + [["export-dot", figures, g] for g in graphs],
    }


def cli_key(argv: list[str]) -> str:
    """Golden-file key: the argument list with the data path abstracted."""
    return " ".join("FIGURES" if a == str(FIGURES_PATH) else a for a in argv)


def run_cli_captured(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    return code, out.getvalue()


def claim_verdicts(reports) -> dict[str, str]:
    return {c.claim_id: c.verdict for r in reports for c in r.claims}


@functools.lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _check_cli(argv: list[str], golden: dict):
    want = golden["cli"][cli_key(argv)]

    def check(result) -> tuple[bool, str]:
        code, stdout = result
        _require(code in (0, 1, 2, 3), f"undocumented exit code {code}")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        _require(code == want["exit"], f"exit code {code}, expected {want['exit']}")
        _require(digest == want["stdout_sha256"], "stdout differs from the reference output")
        return code != 3, f"{code}:{digest[:12]}"

    return check


def _check_claims(golden: dict):
    def check(reports) -> tuple[bool, str]:
        verdicts = claim_verdicts(reports)
        _require(verdicts == golden["claims"], "claim verdicts differ from the reference run")
        return "unknown" not in verdicts.values(), f"claims:{len(verdicts)}"

    return check


def paper_round(rng: random.Random, i: int) -> list[Op]:
    golden = _golden()
    ops = [
        Op(f"cli:{command}", lambda argv=argv: run_cli_captured(argv), _check_cli(argv, golden))
        for command, variants in paper_catalogue(str(FIGURES_PATH)).items()
        for argv in variants
    ]
    rng.shuffle(ops)
    # verify_all first: as the warm-up op it fills the parsed-figures cache
    return [Op("claims.verify_all", lambda: claims.verify_all(), _check_claims(golden))] + ops


WORKLOADS: dict[str, Callable[[random.Random, int], list[Op]]] = {
    "strict-equivalence": strict_round,
    "stiff-folding": folding_round,
    "relaxed-membership": relaxed_round,
    "paper-suites": paper_round,
}


def build_round(workload: str, seed: int, index: int) -> list[Op]:
    return WORKLOADS[workload](round_rng(workload, seed, index), index)
