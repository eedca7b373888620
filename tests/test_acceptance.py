"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 1-4 are exact checks of the bundled suites; 5-9 are seeded random
sweeps at the stated sizes; 10 checks byte-level determinism of the CLI
report.  Certificates and witnesses produced along the way are pooled and
re-verified wholesale by criterion 8.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from conftest import bfs_classes
from xhomotopy import compose
from xhomotopy.claims import (
    verify_figure1,
    verify_figure3,
    verify_prop32,
    verify_thm36,
)
from xhomotopy.constructions import complete, cycle, mediating_map, pushout
from xhomotopy.core import interval, make_graph
from xhomotopy.folds import stiff_reduction
from xhomotopy.generators import random_equivalence_triple, random_graph
from xhomotopy.homotopy import (
    is_equivalence,
    graphs_equivalent,
    verify_homotopy,
)
from xhomotopy.search import enumerate_homs, is_isomorphic
from xhomotopy.weq import OUT, in_W


@pytest.fixture(scope="module")
def pool():
    """Certificates and witnesses accumulated across the criteria."""
    return {"homotopy": [], "witnessed_out": []}


def _stamp(number, elapsed, limit, detail):
    print(f"[criterion {number:2d}] PASS in {elapsed:6.2f}s (limit {limit}s): {detail}")


def _assert_suite_green(report):
    assert not report.failed_asserted, [c.claim_id for c in report.failed_asserted]
    assert not report.budget_hit


def test_criterion_01_figure3_suite(pool):
    started = time.monotonic()
    report = verify_figure3()
    _assert_suite_green(report)
    by_id = {c.claim_id: c for c in report.claims}
    for required in (
        "fig3.A-stiff",
        "fig3.B-stiff",
        "fig3.C-folds-to-A",
        "fig3.D-folds-to-B",
        "fig3.gf-in-relaxed-class",
        "fig3.hg-in-relaxed-class",
        "fig3.f-out-of-relaxed-class",
        "fig3.stiff-subgraphs-not-isomorphic",
    ):
        assert by_id[required].verdict == "pass"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _stamp(1, elapsed, 1, "figure-3 inclusion chain fully verified")


def test_criterion_02_figure1_suite(pool):
    started = time.monotonic()
    report = verify_figure1()
    _assert_suite_green(report)
    by_id = {c.claim_id: c for c in report.claims}
    assert by_id["fig1.B-folds-to-A"].verdict == "pass"
    witness_claim = by_id["fig1.g-out-of-relaxed-class"]
    assert witness_claim.verdict == "pass" and witness_claim.evidence["reverified"]
    assert by_id["fig1.two-of-three-violated"].verdict == "pass"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _stamp(2, elapsed, 30, "figure-1 two-out-of-three violation with re-verified witness")


def test_criterion_03_prop32_suite(pool):
    started = time.monotonic()
    report = verify_prop32()
    _assert_suite_green(report)
    cases = [c for c in report.claims if c.claim_id.endswith("not-equivalent")]
    assert len(cases) == 3 and all(c.verdict == "pass" for c in cases)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _stamp(3, elapsed, 5, "all three cobase-change cases break equivalence")


def test_criterion_04_thm36_suite(pool):
    started = time.monotonic()
    report = verify_thm36()
    _assert_suite_green(report)
    by_id = {c.claim_id: c for c in report.claims}
    assert by_id["thm36.cylinder-retract-is-equivalence"].verdict == "pass"
    obstruction = by_id["thm36.cylinder-inclusion-not-quasi-cofibration"]
    assert obstruction.verdict == "pass"
    assert obstruction.evidence["trace"]["stuck"]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _stamp(4, elapsed, 60, "cylinder retract certified, inclusion blocked with stuck trace")


def test_criterion_05_fold_confluence(pool):
    started = time.monotonic()
    rng = random.Random(1105)
    agreements = 0
    for index in range(200):
        g = random_graph(rng, rng.randint(0, 8), edge_prob=0.4, loop_prob=0.3)
        left = stiff_reduction(g, "random", seed=rng.randrange(2**32))
        right = stiff_reduction(g, "random", seed=rng.randrange(2**32))
        assert is_isomorphic(left.result, right.result) is not None, f"graph #{index}"
        agreements += 1
    assert agreements == 200
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _stamp(5, elapsed, 60, "200/200 independent fold policies landed on isomorphic stiff graphs")


def _exists_equivalence_brute_force(a, b):
    """Independent oracle: search every map pair for a two-sided inverse,
    composing raw assignments and deciding homotopy by lookup in the
    fold-free classes of ``bfs_classes``."""
    order_a, order_b = a.sorted_vertices, b.sorted_vertices
    homs_ab = enumerate_homs(a, b)
    homs_ba = enumerate_homs(b, a)
    if not homs_ab or not homs_ba:
        return a.order == 0 and b.order == 0
    class_a: dict[tuple, int] = {}
    for idx, cls in enumerate(bfs_classes(a, a)):
        for m in cls:
            class_a[tuple(m(v) for v in order_a)] = idx
    class_b: dict[tuple, int] = {}
    for idx, cls in enumerate(bfs_classes(b, b)):
        for m in cls:
            class_b[tuple(m(v) for v in order_b)] = idx
    id_a = class_a[order_a]
    id_b = class_b[order_b]
    maps_ab = [m.mapping for m in homs_ab]
    maps_ba = [m.mapping for m in homs_ba]
    for f in maps_ab:
        for g in maps_ba:
            gf = tuple(g[f[v]] for v in order_a)
            fg = tuple(f[g[v]] for v in order_b)
            if class_a[gf] == id_a and class_b[fg] == id_b:
                return True
    return False


def test_criterion_06_equivalence_matches_stiff_criterion(pool):
    started = time.monotonic()
    rng = random.Random(1106)
    agreements = 0
    for index in range(100):
        a = random_graph(rng, rng.randint(0, 5), prefix="a")
        b = random_graph(rng, rng.randint(0, 5), prefix="b")
        brute = _exists_equivalence_brute_force(a, b)
        comparison = graphs_equivalent(a, b)
        assert brute == comparison.equivalent, f"pair #{index}"
        agreements += 1
        if comparison.equivalent and a.order and b.order:
            # keep a certified instance for the soundness pool
            for f in enumerate_homs(a, b):
                cert = is_equivalence(f)
                if cert is not None:
                    pool["homotopy"].extend(
                        [cert.hom_to_identity_domain, cert.hom_to_identity_codomain]
                    )
                    break
    assert agreements == 100
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _stamp(6, elapsed, 120, "100/100 brute-force equivalence verdicts agree with stiff comparison")


def test_criterion_07_two_of_six_for_strict_class(pool):
    started = time.monotonic()
    rng = random.Random(1107)
    confirmed = 0
    for index in range(50):
        f, g, h = random_equivalence_triple(rng, max_start=4, steps=2)
        gf = compose(g, f)
        hg = compose(h, g)
        hgf = compose(h, gf)
        assert is_equivalence(gf) is not None, f"triple #{index}: gf"
        assert is_equivalence(hg) is not None, f"triple #{index}: hg"
        for name, m in (("f", f), ("g", g), ("h", h), ("hgf", hgf)):
            cert = is_equivalence(m)
            assert cert is not None, f"triple #{index}: {name}"
            pool["homotopy"].extend([cert.hom_to_identity_domain, cert.hom_to_identity_codomain])
        confirmed += 1
    assert confirmed == 50
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _stamp(7, elapsed, 120, "50/50 generated chains satisfy the two-out-of-six conclusion")


def test_criterion_08_certificate_soundness(pool):
    started = time.monotonic()
    # fresh out-verdicts so the criterion also stands alone
    rng = random.Random(1108)
    gathered = 0
    attempts = 0
    while gathered < 25 and attempts < 2000:
        attempts += 1
        a = random_graph(rng, rng.randint(1, 4), prefix="a")
        b = random_graph(rng, rng.randint(1, 4), prefix="b")
        homs = enumerate_homs(a, b)
        if not homs:
            continue
        verdict = in_W(homs[rng.randrange(len(homs))])
        if verdict.verdict == OUT:
            pool["witnessed_out"].append(verdict)
            gathered += 1
    assert gathered == 25
    certs = list(pool["homotopy"])
    if not certs:  # standalone run: build a small batch
        for _ in range(10):
            f, g, _ = random_equivalence_triple(rng, max_start=3, steps=2)
            cert = is_equivalence(compose(g, f))
            assert cert is not None
            certs.extend([cert.hom_to_identity_domain, cert.hom_to_identity_codomain])
    passed = sum(1 for cert in certs if verify_homotopy(cert).ok)
    assert passed == len(certs), "a homotopy certificate failed re-verification"
    reverified = sum(1 for v in pool["witnessed_out"] if v.reverify_witness())
    assert reverified == len(pool["witnessed_out"])
    elapsed = time.monotonic() - started
    _stamp(
        8,
        elapsed,
        120,
        f"{len(certs)}/{len(certs)} certificates and "
        f"{reverified}/{len(pool['witnessed_out'])} out-witnesses re-verified",
    )


def test_criterion_09_pushout_universal_property(pool):
    started = time.monotonic()
    rng = random.Random(1109)
    target_pool = [
        complete(2),
        cycle(3),
        interval(1),
        make_graph("stuv", ["st", "tu", "uv", "ss"]),
        make_graph("pq", ["pp", "qq", "pq"]),
    ]
    checked = 0
    cocones_seen = 0
    while checked < 50:
        a = random_graph(rng, rng.randint(1, 4), prefix="a")
        b = random_graph(rng, rng.randint(1, 4), prefix="b")
        c = random_graph(rng, rng.randint(1, 4), prefix="c")
        homs_ab = enumerate_homs(a, b)
        homs_ac = enumerate_homs(a, c)
        if not homs_ab or not homs_ac:
            continue
        f = homs_ab[rng.randrange(len(homs_ab))]
        g = homs_ac[rng.randrange(len(homs_ac))]
        square = pushout(f, g)
        assert square.commutes()
        covered = set(square.into_b.image_vertices) | set(square.into_c.image_vertices)
        assert covered == square.apex.vertex_set  # forces mediator uniqueness
        for target in target_pool:
            by_restriction: dict[tuple, list] = {}
            for v in enumerate_homs(c, target):
                by_restriction.setdefault(tuple(v(g(x)) for x in a.sorted_vertices), []).append(v)
            for u in enumerate_homs(b, target):
                key = tuple(u(f(x)) for x in a.sorted_vertices)
                for v in by_restriction.get(key, []):
                    cocones_seen += 1
                    mediator = mediating_map(square, u, v)
                    assert mediator is not None
                    assert compose(mediator, square.into_b) == u
                    assert compose(mediator, square.into_c) == v
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _stamp(9, elapsed, 60, f"50 cospans, {cocones_seen} cocones, unique mediator every time")


def test_criterion_10_determinism_of_reports(pool):
    started = time.monotonic()
    command = [
        sys.executable,
        "-m",
        "xhomotopy.cli",
        "verify-paper",
        "all",
        "--json",
        "--seed",
        "7",
    ]
    first = subprocess.run(command, capture_output=True, env=None)
    second = subprocess.run(command, capture_output=True, env=None)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)  # well-formed
    elapsed = time.monotonic() - started
    _stamp(10, elapsed, 60, "two seeded runs produced byte-identical reports")
