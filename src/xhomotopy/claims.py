"""Claim-by-claim verification suites over the bundled worked examples.

Each suite checks a catalogue of concrete constructions and produces a
structured report.  Claims are either ``asserted`` (a failure makes the
run fail) or ``informational`` (the outcome is recorded but never affects
the exit status).  Reports are deterministic for fixed budgets and seeds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

from . import __version__
from .constructions import (
    CounterexampleReport,
    complete,
    counterexample_pushout,
    cycle,
    looped_cycle_wedge,
    mapping_cylinder,
    NotNonInjective,
)
from .core import (
    BudgetExceeded,
    Graph,
    GraphMap,
    _norm_edge,
    compose,
    graph_map,
    induced_subgraph,
)
from .folds import is_quasi_cofibration, is_stiff, stiff_reduction
from .homotopy import graphs_equivalent, is_equivalence, one_step_homotopic
from .search import is_isomorphic
from .textio import parse_document, serialize_graph
from .weq import IN, OUT, check_two_of_six, check_two_of_three, in_W, in_W_times

ASSERTED = "asserted"
INFORMATIONAL = "informational"
PASS = "pass"
FAIL = "fail"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    location: str
    kind: str
    verdict: str
    evidence: dict

    def to_json(self) -> dict:
        return {
            "claimId": self.claim_id,
            "paperLocation": self.location,
            "kind": self.kind,
            "verdict": self.verdict,
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    claims: tuple[ClaimRecord, ...]
    environment: dict

    @property
    def failed_asserted(self) -> list[ClaimRecord]:
        return [c for c in self.claims if c.kind == ASSERTED and c.verdict == FAIL]

    @property
    def budget_hit(self) -> bool:
        return any(c.verdict == UNKNOWN for c in self.claims)

    def ok(self) -> bool:
        return not self.failed_asserted and not self.budget_hit

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "environment": self.environment,
            "claims": [c.to_json() for c in self.claims],
        }


def _environment(budget: int | None, seed: int | None) -> dict:
    return {
        "budget": "default" if budget is None else budget,
        "seed": "none" if seed is None else seed,
        "version": __version__,
    }


class _Recorder:
    def __init__(self) -> None:
        self.claims: list[ClaimRecord] = []

    def claim(self, claim_id: str, location: str, kind: str, check) -> None:
        """Run a check returning (bool | "unknown", evidence); blown budgets
        surface as unknown verdicts, never as failures."""
        try:
            ok, evidence = check()
            verdict = UNKNOWN if ok == "unknown" else (PASS if ok else FAIL)
        except BudgetExceeded as exc:
            verdict, evidence = UNKNOWN, {"budget": str(exc)}
        self.claims.append(ClaimRecord(claim_id, location, kind, verdict, evidence))

    def report(self, suite: str, budget: int | None, seed: int | None) -> VerificationReport:
        ordered = tuple(sorted(self.claims, key=lambda c: c.claim_id))
        return VerificationReport(suite, ordered, _environment(budget, seed))


def _expect(found: str, wanted: str):
    """Tri-state claim outcome from a membership verdict."""
    if found == "unknown":
        return "unknown"
    return found == wanted


def _iso_json(iso: GraphMap | None) -> dict | None:
    return None if iso is None else dict(iso.assignment)


@functools.lru_cache(maxsize=1)
def _figures():
    text = resources.files("xhomotopy.data").joinpath("figures.graphs").read_text()
    return parse_document(text)


@dataclass(frozen=True)
class Figure1:
    A: Graph
    B: Graph
    C: Graph
    f: GraphMap  # inclusion A -> B
    g: GraphMap  # collapse B -> C (= B)


def build_figure1() -> Figure1:
    doc = _figures()
    A, B = doc.graph("fig1.A"), doc.graph("fig1.B")
    return Figure1(A, B, B, doc.map("fig1.f"), doc.map("fig1.g"))


@dataclass(frozen=True)
class Figure2:
    A: Graph
    B: Graph
    f: GraphMap


def build_figure2() -> Figure2:
    doc = _figures()
    return Figure2(doc.graph("fig2.A"), doc.graph("fig2.B"), doc.map("fig2.f"))


@dataclass(frozen=True)
class Figure3:
    A: Graph
    B: Graph
    C: Graph
    D: Graph
    f: GraphMap  # A -> B
    g: GraphMap  # B -> C
    h: GraphMap  # C -> D


def build_figure3() -> Figure3:
    D = _figures().graph("fig3.D")
    A = induced_subgraph(D, ["1"])
    B = induced_subgraph(D, ["1", "2", "3"])
    C = induced_subgraph(D, ["1", "2", "3", "4"])
    inclusion = lambda dom, cod: GraphMap(dom, cod, tuple((v, v) for v in dom.vertices))
    return Figure3(A, B, C, D, inclusion(A, B), inclusion(B, C), inclusion(C, D))


FIGURE1_FOLDS = (("a", "x"), ("d", "x"), ("c", "y"), ("e", "y"), ("b", "z"))


def verify_figure1(budget: int | None = None, seed: int | None = None) -> VerificationReport:
    """Asserted: the collapse map breaks the two-out-of-three property for
    the relaxed class while the inclusion and its composite stay inside."""
    fig = build_figure1()
    rec = _Recorder()
    loc = "figure 1"

    rec.claim("fig1.A-stiff", loc, ASSERTED, lambda: (is_stiff(fig.A), {"graph": serialize_graph("A", fig.A)}))

    def folds_to_a():
        seq = stiff_reduction(fig.B, "given", steps=FIGURE1_FOLDS)
        iso = is_isomorphic(seq.result, fig.A)
        return iso is not None, {"folds": seq.to_json(), "isomorphism": _iso_json(iso)}

    rec.claim("fig1.B-folds-to-A", loc, ASSERTED, folds_to_a)

    def f_in():
        verdict = in_W(fig.f, budget=budget)
        return _expect(verdict.verdict, IN), {"verdict": verdict.verdict, "copies": verdict.copies_checked}

    rec.claim("fig1.f-in-relaxed-class", loc, ASSERTED, f_in)

    def gf_in():
        verdict = in_W(compose(fig.g, fig.f), budget=budget)
        return _expect(verdict.verdict, IN), {"verdict": verdict.verdict, "copies": verdict.copies_checked}

    rec.claim("fig1.gf-in-relaxed-class", loc, ASSERTED, gf_in)

    def g_out():
        verdict = in_W(fig.g, budget=budget)
        if verdict.verdict == "unknown":
            return "unknown", {"verdict": verdict.verdict, "detail": verdict.detail}
        if verdict.verdict != OUT or verdict.witness is None:
            return False, {"verdict": verdict.verdict}
        witness = verdict.witness
        return verdict.reverify_witness(), {
            "verdict": verdict.verdict,
            "witnessVertices": sorted(witness.embedding.image_vertex_set),
            "witnessEdges": [list(e) for e in sorted(witness.embedding.image_edges)],
            "failure": witness.failure,
            "reverified": True,
        }

    rec.claim("fig1.g-out-of-relaxed-class", loc, ASSERTED, g_out)

    def two_of_three():
        report = check_two_of_three(fig.f, fig.g, "in_w", budget=budget)
        if "unknown" in report.memberships.values():
            return "unknown", report.to_json()
        hypothesis_met = report.memberships["f"] == IN and report.memberships["gf"] == IN
        broken = report.memberships["g"] == OUT
        return hypothesis_met and broken and report.violated(), report.to_json()

    rec.claim("fig1.two-of-three-violated", loc, ASSERTED, two_of_three)

    stated = ["a", "b", "c", "d", "e", "x"]

    def stated_copy_iso():
        induced = induced_subgraph(fig.B, stated)
        target = stiff_reduction(fig.B).result
        iso = is_isomorphic(induced, target)
        return iso is not None, {
            "inducedEdges": [list(e) for e in induced.edge_list()],
            "inducedEdgeCount": len(induced.edges),
            "stiffEdgeCount": len(target.edges),
            "isomorphism": _iso_json(iso),
        }

    rec.claim("fig1.stated-witness-induced-copy-iso", loc, INFORMATIONAL, stated_copy_iso)

    def stated_copy_image():
        induced = induced_subgraph(fig.B, stated)
        images = sorted({fig.g(v) for v in stated})
        edges = frozenset(_norm_edge(fig.g(u), fig.g(v)) for u, v in induced.edges)
        image_graph = Graph(tuple(images), edges)
        iso = is_isomorphic(image_graph, complete(3))
        return iso is not None, {
            "imageVertices": images,
            "imageEdges": [list(e) for e in sorted(edges)],
            "isomorphicToTriangle": iso is not None,
        }

    rec.claim("fig1.stated-witness-image-is-triangle", loc, INFORMATIONAL, stated_copy_image)

    return rec.report("figure1", budget, seed)


def figure2_fold_comparator() -> GraphMap:
    """The map induced by folding 5 to 1 and 4 to 2, then renaming onto the
    triangle; differs from the bundled map only at vertex 5."""
    fig = build_figure2()
    return graph_map(fig.A, fig.B, {"1": "a", "2": "b", "3": "c", "4": "b", "5": "a"})


def verify_figure2(budget: int | None = None, seed: int | None = None) -> VerificationReport:
    """Asserted: membership in the relaxed class and graph-level equivalence.
    The strict-class verdict is recorded informationally, together with the
    one-step comparison against the fold-induced comparator."""
    fig = build_figure2()
    rec = _Recorder()
    loc = "figure 2"

    def f_in():
        verdict = in_W(fig.f, budget=budget)
        return _expect(verdict.verdict, IN), {"verdict": verdict.verdict, "copies": verdict.copies_checked}

    rec.claim("fig2.f-in-relaxed-class", loc, ASSERTED, f_in)

    def equivalent():
        comparison = graphs_equivalent(fig.A, fig.B)
        return comparison.equivalent, {
            "domainFolds": comparison.left_reduction.to_json(),
            "codomainFolds": comparison.right_reduction.to_json(),
            "stiffIso": _iso_json(comparison.stiff_iso),
        }

    rec.claim("fig2.graphs-equivalent", loc, ASSERTED, equivalent)

    def not_strict():
        comparator = figure2_fold_comparator()
        verdict = in_W_times(fig.f, budget=budget)
        return _expect(verdict.verdict, OUT), {
            "bruteForceVerdict": verdict.verdict,
            "oneStepToFoldComparator": one_step_homotopic(fig.f, comparator),
        }

    rec.claim("fig2.f-outside-strict-class", loc, INFORMATIONAL, not_strict)

    return rec.report("figure2", budget, seed)


FIGURE3_C_FOLDS = (("3", "4"), ("4", "1"), ("2", "1"))
FIGURE3_D_FOLDS = (("3", "4"), ("4", "1"))


def verify_figure3(budget: int | None = None, seed: int | None = None) -> VerificationReport:
    """Asserted: the inclusion chain whose outer composites sit in the
    relaxed class while the innermost map joins graphs with non-isomorphic
    stiff subgraphs."""
    fig = build_figure3()
    rec = _Recorder()
    loc = "figure 3"

    rec.claim("fig3.A-stiff", loc, ASSERTED, lambda: (is_stiff(fig.A), {"graph": serialize_graph("A", fig.A)}))
    rec.claim("fig3.B-stiff", loc, ASSERTED, lambda: (is_stiff(fig.B), {"graph": serialize_graph("B", fig.B)}))

    def c_folds():
        seq = stiff_reduction(fig.C, "given", steps=FIGURE3_C_FOLDS)
        iso = is_isomorphic(seq.result, fig.A)
        return iso is not None, {"folds": seq.to_json(), "isomorphism": _iso_json(iso)}

    rec.claim("fig3.C-folds-to-A", loc, ASSERTED, c_folds)

    def d_folds():
        seq = stiff_reduction(fig.D, "given", steps=FIGURE3_D_FOLDS)
        iso = is_isomorphic(seq.result, fig.B)
        return iso is not None, {"folds": seq.to_json(), "isomorphism": _iso_json(iso)}

    rec.claim("fig3.D-folds-to-B", loc, ASSERTED, d_folds)

    def gf_in():
        verdict = in_W(compose(fig.g, fig.f), budget=budget)
        return _expect(verdict.verdict, IN), {"verdict": verdict.verdict}

    rec.claim("fig3.gf-in-relaxed-class", loc, ASSERTED, gf_in)

    def hg_in():
        verdict = in_W(compose(fig.h, fig.g), budget=budget)
        return _expect(verdict.verdict, IN), {"verdict": verdict.verdict}

    rec.claim("fig3.hg-in-relaxed-class", loc, ASSERTED, hg_in)

    def f_out():
        verdict = in_W(fig.f, budget=budget)
        if verdict.verdict == "unknown":
            return "unknown", {"verdict": verdict.verdict}
        ok = verdict.verdict == OUT and verdict.reverify_witness()
        return ok, {
            "verdict": verdict.verdict,
            "failure": None if verdict.witness is None else verdict.witness.failure,
        }

    rec.claim("fig3.f-out-of-relaxed-class", loc, ASSERTED, f_out)

    def stiff_mismatch():
        return is_isomorphic(fig.A, fig.B) is None, {
            "domainStiffOrder": fig.A.order,
            "codomainStiffOrder": fig.B.order,
        }

    rec.claim("fig3.stiff-subgraphs-not-isomorphic", loc, ASSERTED, stiff_mismatch)

    def two_of_six():
        report = check_two_of_six(fig.f, fig.g, fig.h, "in_w", budget=budget)
        if "unknown" in report.memberships.values():
            return "unknown", report.to_json()
        hypothesis_met = report.memberships["gf"] == IN and report.memberships["hg"] == IN
        return hypothesis_met and report.violated(), report.to_json()

    rec.claim("fig3.two-of-six-hypothesis-met-conclusion-fails", loc, ASSERTED, two_of_six)

    return rec.report("figure3", budget, seed)


def _prop32_library() -> list[tuple[str, GraphMap]]:
    """Fold maps covering the three collision cases of the construction."""
    from .core import make_graph
    from .folds import apply_fold

    simple = make_graph("123", ["12", "23"])
    _, f_simple = apply_fold(simple, "3", "1")

    unlooped = make_graph("pqr", ["pq", "qq", "qr"])
    _, f_unlooped = apply_fold(unlooped, "r", "p")

    looped = make_graph("pqr", ["pp", "qq", "pq", "qr"])
    _, f_looped = apply_fold(looped, "r", "p")

    return [("simple", f_simple), ("unlooped-collision", f_unlooped), ("looped-collision", f_looped)]


def verify_prop32(budget: int | None = None, seed: int | None = None) -> VerificationReport:
    """Asserted: for each collision case the crafted cobase change changes
    the homotopy type (stiff subgraphs of C and of the pushout differ)."""
    rec = _Recorder()
    loc = "cobase-change counterexamples"
    reports: dict[str, CounterexampleReport] = {}

    for case_name, fold_map in _prop32_library():
        def not_equivalent(fold_map=fold_map, case_name=case_name):
            report = counterexample_pushout(fold_map, budget=budget)
            reports[case_name] = report
            return (not report.equivalent) and report.case == case_name, {
                "report": report.to_json(),
                "crafted": serialize_graph("C", report.crafted),
                "pushout": serialize_graph("P", report.square.apex),
            }

        rec.claim(f"prop32.{case_name}.not-equivalent", loc, ASSERTED, not_equivalent)

    def shape_of_apex():
        report = reports.get("unlooped-collision")
        if report is None:
            report = counterexample_pushout(_prop32_library()[1][1], budget=budget)
        stiff_apex = report.comparison.right_reduction.result
        iso = is_isomorphic(stiff_apex, looped_cycle_wedge(7, 0))
        return iso is not None, {
            "apexStiffVertices": list(stiff_apex.vertices),
            "isomorphicToLoopedSevenCycle": iso is not None,
        }

    rec.claim("prop32.unlooped-collision.apex-stiff-shape", loc, INFORMATIONAL, shape_of_apex)

    def rejects_injective():
        fig = build_figure3()
        try:
            counterexample_pushout(fig.f, budget=budget)
        except NotNonInjective:
            return True, {"error": "NotNonInjective"}
        return False, {}

    rec.claim("prop32.rejects-injective-input", loc, ASSERTED, rejects_injective)

    return rec.report("prop32", budget, seed)


def natural_two_coloring() -> GraphMap:
    """The parity map from the six-cycle onto the edge: i goes to i mod 2."""
    six, two = cycle(6), complete(2)
    return graph_map(six, two, {str(i): str(i % 2) for i in range(6)})


def verify_thm36(budget: int | None = None, seed: int | None = None) -> VerificationReport:
    """Asserted: the cylinder factorization of the parity map has an
    equivalence retract but its inclusion is not a quasi-cofibration.

    Only the canonical cylinder factorization is examined; quantifying
    over all factorizations is out of scope for a machine check.
    """
    rec = _Recorder()
    loc = "factorization obstruction"
    h = natural_two_coloring()
    cyl = mapping_cylinder(h)

    rec.claim("thm36.domain-stiff", loc, ASSERTED, lambda: (is_stiff(h.domain), {"order": h.domain.order}))
    rec.claim("thm36.codomain-stiff", loc, ASSERTED, lambda: (is_stiff(h.codomain), {"order": h.codomain.order}))
    rec.claim(
        "thm36.codomain-smaller",
        loc,
        ASSERTED,
        lambda: (h.codomain.order < h.domain.order, {"domain": h.domain.order, "codomain": h.codomain.order}),
    )

    def retract_equivalence():
        cert = is_equivalence(cyl.retract, budget=budget)
        if cert is None:
            return False, {"verdict": "no inverse found"}
        return cert.verify(), {
            "inverse": dict(cert.inverse.assignment),
            "chainLengthDomainSide": len(cert.hom_to_identity_domain),
            "chainLengthCodomainSide": len(cert.hom_to_identity_codomain),
        }

    rec.claim("thm36.cylinder-retract-is-equivalence", loc, ASSERTED, retract_equivalence)

    def inclusion_not_quasi_cofibration():
        trace = is_quasi_cofibration(cyl.incl)
        stuck_only_restricted = bool(trace.stuck) and all(
            not st.relative and st.restricted for st in trace.stuck
        )
        return (not trace.verdict) and stuck_only_restricted, {
            "trace": trace.to_json(),
            "scope": "canonical cylinder factorization only",
        }

    rec.claim("thm36.cylinder-inclusion-not-quasi-cofibration", loc, ASSERTED, inclusion_not_quasi_cofibration)

    def cylinder_equivalent():
        comparison = graphs_equivalent(cyl.cylinder, h.codomain)
        return comparison.equivalent, {
            "cylinderOrder": cyl.cylinder.order,
            "stiffIso": _iso_json(comparison.stiff_iso),
        }

    rec.claim("thm36.cylinder-equivalent-to-codomain", loc, ASSERTED, cylinder_equivalent)

    return rec.report("thm36", budget, seed)


SUITES = {
    "figure1": verify_figure1,
    "figure2": verify_figure2,
    "figure3": verify_figure3,
    "prop32": verify_prop32,
    "thm36": verify_thm36,
}


def verify_all(budget: int | None = None, seed: int | None = None) -> list[VerificationReport]:
    return [SUITES[name](budget=budget, seed=seed) for name in sorted(SUITES)]
