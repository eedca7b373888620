"""Command-line front end.

Exit codes: 0 success (and, for decision commands, a positive answer),
1 negative answer or failed asserted claim, 2 usage or input errors,
3 undecided: an exhausted search budget (with a partial report where
possible), or an input that ran the interpreter out of memory or recursion
depth (one "undecided:" line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .claims import SUITES, verify_all
from .constructions import counterexample_pushout, mapping_cylinder, pushout
from .core import BudgetExceeded, GraphError, product
from .folds import stiff_reduction
from .homotopy import are_homotopic, graphs_equivalent, is_equivalence
from .search import enumerate_hom_assignments, is_isomorphic
from .textio import Document, ParseError, parse_document, serialize_document, serialize_graph, to_dot
from .weq import WSemantics, check_two_of_six, check_two_of_three, in_W

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _load(path: str) -> Document:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not {exc.encoding} text") from None
    return parse_document(text)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif not args.quiet:
        print(text)


def _cmd_parse(args) -> int:
    doc = _load(args.file)
    out = serialize_document(doc)
    if args.json:
        print(json.dumps({"graphs": sorted(doc.graphs), "maps": sorted(doc.maps)}, indent=2, sort_keys=True))
    elif not args.quiet:
        print(out, end="")
    return EXIT_OK


def _cmd_stiff(args) -> int:
    doc = _load(args.file)
    names = [args.name] if args.name else list(doc.graphs)
    payload = {}
    lines = []
    for name in names:
        seq = stiff_reduction(doc.graph(name), policy=args.policy, seed=args.seed)
        payload[name] = seq.to_json()
        steps = ", ".join(f"{s.removed}->{s.target}" for s in seq.steps) or "(already stiff)"
        lines.append(f"{name}: {steps}")
        lines.append(f"  stiff on {{{' '.join(seq.result.vertices)}}}")
        if args.trace:
            lines.append("  " + serialize_graph(f"{name}.stiff", seq.result).replace("\n", "\n  ").rstrip())
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_iso(args) -> int:
    doc = _load(args.file)
    iso = is_isomorphic(doc.graph(args.first), doc.graph(args.second))
    _emit(
        args,
        {"isomorphic": iso is not None, "witness": None if iso is None else dict(iso.assignment)},
        "not isomorphic" if iso is None else "isomorphic: " + " ".join(f"{v}->{w}" for v, w in iso.assignment),
    )
    return EXIT_OK if iso is not None else EXIT_NO


def _cmd_homs(args) -> int:
    doc = _load(args.file)
    domain = doc.graph(args.domain)
    keys = enumerate_hom_assignments(domain, doc.graph(args.codomain), budget=args.budget)
    order = domain.sorted_vertices
    if args.json:
        _emit(args, {"count": len(keys), "maps": [dict(zip(order, key)) for key in keys]}, "")
        return EXIT_OK
    lines = [f"{len(keys)} maps"]
    if not args.count_only:
        lines.extend(" ".join(f"{v}->{w}" for v, w in zip(order, key)) for key in keys)
    _emit(args, {}, "\n".join(lines))
    return EXIT_OK


def _cmd_homotopic(args) -> int:
    doc = _load(args.file)
    cert = are_homotopic(doc.map(args.first), doc.map(args.second), budget=args.budget)
    _emit(
        args,
        {"homotopic": cert is not None, "certificate": None if cert is None else cert.to_json()},
        "not homotopic" if cert is None else f"homotopic via a chain of length {len(cert)}",
    )
    return EXIT_OK if cert is not None else EXIT_NO


def _cmd_is_weq(args) -> int:
    doc = _load(args.file)
    cert = is_equivalence(doc.map(args.map), budget=args.budget)
    _emit(
        args,
        {
            "equivalence": cert is not None,
            "inverse": None if cert is None else dict(cert.inverse.assignment),
        },
        "not an equivalence" if cert is None else "equivalence with inverse "
        + " ".join(f"{v}->{w}" for v, w in cert.inverse.assignment),
    )
    return EXIT_OK if cert is not None else EXIT_NO


def _cmd_equiv(args) -> int:
    doc = _load(args.file)
    comparison = graphs_equivalent(doc.graph(args.first), doc.graph(args.second))
    payload = {
        "equivalent": comparison.equivalent,
        "leftFolds": comparison.left_reduction.to_json(),
        "rightFolds": comparison.right_reduction.to_json(),
        "stiffIso": None if comparison.stiff_iso is None else dict(comparison.stiff_iso.assignment),
    }
    _emit(args, payload, "equivalent" if comparison.equivalent else "not equivalent")
    return EXIT_OK if comparison.equivalent else EXIT_NO


IMAGE_MODES = {"image": "image-subgraph", "induced": "induced-on-image"}


def _cmd_in_w(args) -> int:
    doc = _load(args.file)
    semantics = WSemantics(copy_mode=args.copy_mode, image_mode=IMAGE_MODES[args.image_mode])
    verdict = in_W(doc.map(args.map), semantics=semantics, budget=args.budget)
    payload = {
        "verdict": verdict.verdict,
        "copiesChecked": verdict.copies_checked,
        "semantics": {"copyMode": semantics.copy_mode, "imageMode": semantics.image_mode},
        "witness": None
        if verdict.witness is None
        else {
            "vertices": sorted(verdict.witness.embedding.image_vertex_set),
            "failure": verdict.witness.failure,
        },
    }
    _emit(args, payload, f"verdict: {verdict.verdict}")
    if verdict.verdict == "unknown":
        return EXIT_BUDGET
    return EXIT_OK if verdict.verdict == "in" else EXIT_NO


def _cmd_product(args) -> int:
    doc = _load(args.file)
    result = product(doc.graph(args.first), doc.graph(args.second))
    name = f"{args.first}x{args.second}"
    _emit(args, {"graph": serialize_graph(name, result)}, serialize_graph(name, result).rstrip())
    return EXIT_OK


def _cmd_pushout(args) -> int:
    doc = _load(args.file)
    square = pushout(doc.map(args.first), doc.map(args.second))
    payload = {
        "apex": serialize_graph("P", square.apex),
        "intoB": dict(square.into_b.assignment),
        "intoC": dict(square.into_c.assignment),
    }
    text = serialize_graph("P", square.apex).rstrip()
    if args.dot:
        text = to_dot("P", square.apex).rstrip()
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_cylinder(args) -> int:
    doc = _load(args.file)
    cyl = mapping_cylinder(doc.map(args.map))
    payload = {
        "cylinder": serialize_graph("M", cyl.cylinder),
        "inclusion": dict(cyl.incl.assignment),
        "retract": dict(cyl.retract.assignment),
    }
    _emit(args, payload, serialize_graph("M", cyl.cylinder).rstrip())
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    doc = _load(args.file)
    report = counterexample_pushout(doc.map(args.map), budget=args.budget)
    payload = {
        "report": report.to_json(),
        "crafted": serialize_graph("C", report.crafted),
        "pushout": serialize_graph("P", report.square.apex),
    }
    _emit(
        args,
        payload,
        f"case {report.case}: cobase change {'IS' if report.equivalent else 'is NOT'} an equivalence",
    )
    return EXIT_NO if report.equivalent else EXIT_OK


def _cmd_check_axiom(args) -> int:
    doc = _load(args.file)
    predicate = {"w": "in_w", "wx": "in_w_times"}[args.klass]
    if args.axiom == "2of3":
        report = check_two_of_three(doc.map(args.f), doc.map(args.g), predicate, budget=args.budget)
    else:
        if not args.h:
            print("2of6 needs three maps", file=sys.stderr)
            return EXIT_USAGE
        report = check_two_of_six(
            doc.map(args.f), doc.map(args.g), doc.map(args.h), predicate, budget=args.budget
        )
    payload = report.to_json()
    lines = [f"{name}: {verdict}" for name, verdict in sorted(report.memberships.items())]
    lines.extend(f"{c.name}: {c.status}" for c in report.checks)
    _emit(args, payload, "\n".join(lines))
    if any(c.status == "unknown" for c in report.checks):
        return EXIT_BUDGET
    return EXIT_NO if report.violated() else EXIT_OK


def _cmd_verify(args) -> int:
    if args.suite == "all":
        reports = verify_all(budget=args.budget, seed=args.seed)
    else:
        reports = [SUITES[args.suite](budget=args.budget, seed=args.seed)]
    if args.dot_dir:
        _write_suite_dots(args.dot_dir)
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True))
    elif not args.quiet:
        for report in reports:
            print(f"suite {report.suite}")
            for claim in report.claims:
                print(f"  [{claim.verdict.upper():7}] {claim.kind:13} {claim.claim_id}")
    budget_hit = any(r.budget_hit for r in reports)
    failed = any(r.failed_asserted for r in reports)
    if budget_hit:
        return EXIT_BUDGET
    return EXIT_NO if failed else EXIT_OK


def _write_suite_dots(directory: str) -> None:
    from .claims import build_figure1, build_figure2, build_figure3

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    fig1, fig2, fig3 = build_figure1(), build_figure2(), build_figure3()
    graphs = {
        "fig1.A": fig1.A,
        "fig1.B": fig1.B,
        "fig2.A": fig2.A,
        "fig2.B": fig2.B,
        "fig3.A": fig3.A,
        "fig3.B": fig3.B,
        "fig3.C": fig3.C,
        "fig3.D": fig3.D,
    }
    for name, graph in graphs.items():
        (out / f"{name}.dot").write_text(to_dot(name, graph))


def _cmd_export_dot(args) -> int:
    doc = _load(args.file)
    names = [args.name] if args.name else list(doc.graphs)
    chunks = [to_dot(name, doc.graph(name)) for name in names]
    text = "\n".join(chunks)
    if args.output:
        Path(args.output).write_text(text)
        if not args.quiet:
            print(f"wrote {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=None, help="search budget override")
    common.add_argument("--seed", type=int, default=None, help="seed for randomized policies")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--quiet", action="store_true", help="suppress non-essential output")

    parser = argparse.ArgumentParser(prog="xhomotopy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="validate and echo a graphs/maps file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("stiff", parents=[common], help="fold a graph down to a stiff subgraph")
    p.add_argument("file")
    p.add_argument("name", nargs="?")
    p.add_argument("--policy", choices=["first", "random"], default="first")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_stiff)

    p = sub.add_parser("iso", parents=[common], help="search for an isomorphism")
    p.add_argument("file")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("homs", parents=[common], help="enumerate edge-preserving maps")
    p.add_argument("file")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=_cmd_homs)

    p = sub.add_parser("homotopic", parents=[common], help="decide homotopy of two named maps")
    p.add_argument("file")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_homotopic)

    p = sub.add_parser("is-weq", parents=[common], help="decide homotopy equivalence of a map")
    p.add_argument("file")
    p.add_argument("map")
    p.set_defaults(fn=_cmd_is_weq)

    p = sub.add_parser("equiv", parents=[common], help="decide equivalence of two graphs")
    p.add_argument("file")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("in-w", parents=[common], help="relaxed-class membership of a map")
    p.add_argument("file")
    p.add_argument("map")
    p.add_argument("--copy-mode", choices=["subgraph", "induced"], default="subgraph")
    p.add_argument("--image-mode", choices=["image", "induced"], default="image")
    p.set_defaults(fn=_cmd_in_w)

    p = sub.add_parser("product", parents=[common], help="categorical product of two graphs")
    p.add_argument("file")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("pushout", parents=[common], help="pushout of two maps with shared domain")
    p.add_argument("file")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=_cmd_pushout)

    p = sub.add_parser("cylinder", parents=[common], help="mapping cylinder factorization")
    p.add_argument("file")
    p.add_argument("map")
    p.set_defaults(fn=_cmd_cylinder)

    p = sub.add_parser("counterexample", parents=[common], help="cobase-change counterexample")
    p.add_argument("file")
    p.add_argument("map")
    p.set_defaults(fn=_cmd_counterexample)

    p = sub.add_parser("check-axiom", parents=[common], help="two-out-of-three / two-out-of-six instance check")
    p.add_argument("axiom", choices=["2of3", "2of6"])
    p.add_argument("file")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("h", nargs="?")
    p.add_argument("--class", dest="klass", choices=["w", "wx"], default="w")
    p.set_defaults(fn=_cmd_check_axiom)

    p = sub.add_parser("verify-paper", parents=[common], help="run the bundled verification suites")
    p.add_argument("suite", nargs="?", default="all", choices=sorted(SUITES) + ["all"])
    p.add_argument("--dot-dir", default=None, help="write DOT files for the suite graphs")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("export-dot", parents=[common], help="export graphs as DOT")
    p.add_argument("file")
    p.add_argument("name", nargs="?")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_export_dot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def run_cli(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.budget is None and os.environ.get("XHOMOTOPY_BUDGET"):
        try:
            args.budget = int(os.environ["XHOMOTOPY_BUDGET"])
        except ValueError:
            print("error: XHOMOTOPY_BUDGET must be an integer", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (MemoryError, RecursionError) as exc:
        # the input outgrew the interpreter before an answer: undecided, not negative
        print(f"undecided: {type(exc).__name__} before an answer was reached", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
