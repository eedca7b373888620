"""Span tracing of the library's layers from outside the library.

``install`` wraps every public module-level function of each ``xhomotopy``
layer module (plus ``FoldSequence.replay``) and rebinds the wrapper wherever
an ``xhomotopy`` module binds the original, so calls made through imported
names are traced too.  No library source is edited.

A span is (name, start, end, parent span, op id), kept in flat arrays and
written out by ``write_spans``.  Spans are only recorded between
``begin_op`` and ``end_op``; input generation and oracle checks call the
same functions untraced.  A span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# generators is left out: it only runs while inputs are generated, outside every op
LAYERS = ("core", "search", "folds", "homotopy", "constructions", "weq", "claims", "textio", "cli")

# span names that differ from "<layer>.<function>"
RENAMED = {
    "core.find_map_violation": "core.map_validate",
    "search.enumerate_hom_assignments": "search.hom_enum",
    "search.enumerate_copies": "search.copies",
    "search.is_isomorphic": "search.iso",
    "folds.is_quasi_cofibration": "folds.qcof",
    "homotopy.homotopy_classes": "homotopy.classes",
    "constructions.mapping_cylinder": "constructions.cylinder",
    "constructions.counterexample_pushout": "constructions.counterexample",
    "textio.parse_document": "textio.parse",
    "textio.serialize_graph": "textio.serialize",
    "textio.serialize_map": "textio.serialize",
    "textio.serialize_document": "textio.serialize",
    "textio.to_dot": "textio.dot",
    "cli.run_cli": "cli.run",
}


def _hom_enum(tracer, args, kwargs, result):
    tracer.counts["search.hom_enum.results"] += len(result)
    stepped = kwargs.get("candidates", args[3] if len(args) > 3 else None) is not None
    if stepped and tracer.active["homotopy"]:
        # a one-step neighbourhood enumeration inside a homotopy search
        tracer.counts["homotopy.bfs_expansions"] += 1


def _compose(tracer, args, kwargs, result):
    if tracer.active["homotopy.is_equivalence"]:
        tracer.counts["homotopy.compose_in_is_equivalence"] += 1


HOOKS = {
    "search.hom_enum": _hom_enum,
    "search.copies": lambda t, a, k, r: t.counts.update({"search.copies.results": len(r)}),
    "search.iso": lambda t, a, k, r: t.counts.update({"search.iso.found": r is not None}),
    "folds.foldable_pairs": lambda t, a, k, r: t.counts.update({"folds.foldable_pairs.pairs": len(r)}),
    "weq.in_W": lambda t, a, k, r: t.counts.update({"weq.in_W.copies_checked": r.copies_checked}),
    "core.compose": _compose,
}


class Tracer:
    def __init__(self) -> None:
        self.recording = False
        self.op_id = -1
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.open: list[int] = []  # indices of open spans, innermost last
        self.child_time: list[float] = []  # time covered by children, per open span
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()  # open spans per layer and per span name
        self.bindings = 0

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.recording = True

    def end_op(self) -> None:
        self.recording = False

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer.open[-1] if tracer.open else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer.open.append(index)
            tracer.child_time.append(0.0)
            tracer.active[layer] += 1
            tracer.active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.active[layer] -= 1
                tracer.active[name] -= 1
                tracer.open.pop()
                covered = tracer.child_time.pop()
                duration = end - start
                if tracer.child_time:
                    tracer.child_time[-1] += duration
                tracer.span_start[index] = start
                tracer.span_end[index] = end
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - covered
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def write_spans(self, directory: Path) -> None:
        """Raw span columns plus a JSON header naming them."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {
            "name": self.span_name,
            "start": self.span_start,
            "end": self.span_end,
            "parent": self.span_parent,
            "op": self.span_op,
        }
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "columns": {key: {"file": f"{key}.bin", "typecode": col.typecode} for key, col in columns.items()},
            "byteorder": sys.byteorder,
        }
        for key, col in columns.items():
            with open(directory / f"{key}.bin", "wb") as fh:
                col.tofile(fh)
        (directory / "spans.json").write_text(json.dumps(header, indent=1) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions and rebind every reference to them."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"xhomotopy.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            qualified = f"{layer}.{attr}"
            wrappers[obj] = tracer.wrap(RENAMED.get(qualified, qualified), obj)
    folds = importlib.import_module("xhomotopy.folds")
    replay = folds.FoldSequence.__dict__["replay"].__func__
    folds.FoldSequence.replay = classmethod(tracer.wrap("folds.replay", replay))
    tracer.bindings = 1
    packages = [m for name, m in list(sys.modules.items()) if name == "xhomotopy" or name.startswith("xhomotopy.")]
    for module in packages:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                tracer.bindings += 1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, better, value function).  The README maps
# each one to the end-to-end metric and workload it should move.
PER_LAYER = {
    "core.map_validate.calls": ("count", "lower", lambda t: t.calls["core.map_validate"]),
    "core.map_validate.self_s": ("s", "lower", lambda t: t.self_s["core.map_validate"]),
    "core.induced_subgraph.calls": ("count", "lower", lambda t: t.calls["core.induced_subgraph"]),
    "core.induced_subgraph.self_s": ("s", "lower", lambda t: t.self_s["core.induced_subgraph"]),
    "core.product.self_s": ("s", "lower", lambda t: t.self_s["core.product"]),
    "core.compose.calls": ("count", "lower", lambda t: t.calls["core.compose"]),
    "search.hom_enum.calls": ("count", "lower", lambda t: t.calls["search.hom_enum"]),
    "search.hom_enum.self_s": ("s", "lower", lambda t: t.self_s["search.hom_enum"]),
    "search.hom_enum.results": ("count", "lower", lambda t: t.counts["search.hom_enum.results"]),
    "search.copies.calls": ("count", "lower", lambda t: t.calls["search.copies"]),
    "search.copies.self_s": ("s", "lower", lambda t: t.self_s["search.copies"]),
    "search.copies.results": ("count", "lower", lambda t: t.counts["search.copies.results"]),
    "search.iso.calls": ("count", "lower", lambda t: t.calls["search.iso"]),
    "search.iso.self_s": ("s", "lower", lambda t: t.self_s["search.iso"]),
    "search.iso.found_ratio": (
        "ratio", "higher", lambda t: _ratio(t.counts["search.iso.found"], t.calls["search.iso"])),
    "folds.foldable_pairs.calls": ("count", "lower", lambda t: t.calls["folds.foldable_pairs"]),
    "folds.foldable_pairs.self_s": ("s", "lower", lambda t: t.self_s["folds.foldable_pairs"]),
    "folds.foldable_pairs.pairs": ("count", "lower", lambda t: t.counts["folds.foldable_pairs.pairs"]),
    "folds.fold_steps": ("count", "lower", lambda t: t.calls["folds.apply_fold"]),
    "folds.useful_pair_ratio": (
        "ratio", "higher",
        lambda t: _ratio(t.calls["folds.apply_fold"], t.counts["folds.foldable_pairs.pairs"])),
    "folds.apply_fold.self_s": ("s", "lower", lambda t: t.self_s["folds.apply_fold"]),
    "folds.replay.self_s": ("s", "lower", lambda t: t.self_s["folds.replay"]),
    "folds.qcof.self_s": ("s", "lower", lambda t: t.self_s["folds.qcof"]),
    "homotopy.is_equivalence.calls": ("count", "lower", lambda t: t.calls["homotopy.is_equivalence"]),
    "homotopy.is_equivalence.self_s": ("s", "lower", lambda t: t.self_s["homotopy.is_equivalence"]),
    "homotopy.bfs_expansions": ("count", "lower", lambda t: t.counts["homotopy.bfs_expansions"]),
    "homotopy.inverse_candidates": (
        "count", "lower", lambda t: t.counts["homotopy.compose_in_is_equivalence"] // 2),
    "homotopy.classes.self_s": ("s", "lower", lambda t: t.self_s["homotopy.classes"]),
    "homotopy.are_homotopic.self_s": ("s", "lower", lambda t: t.self_s["homotopy.are_homotopic"]),
    "weq.in_W.calls": ("count", "lower", lambda t: t.calls["weq.in_W"]),
    "weq.in_W.self_s": ("s", "lower", lambda t: t.self_s["weq.in_W"]),
    "weq.in_W.copies_checked": ("count", "lower", lambda t: t.counts["weq.in_W.copies_checked"]),
    "weq.in_W_times.self_s": ("s", "lower", lambda t: t.self_s["weq.in_W_times"]),
    "constructions.pushout.self_s": ("s", "lower", lambda t: t.self_s["constructions.pushout"]),
    "constructions.cylinder.self_s": ("s", "lower", lambda t: t.self_s["constructions.cylinder"]),
    "constructions.counterexample.self_s": ("s", "lower", lambda t: t.self_s["constructions.counterexample"]),
    "claims.verify_all.self_s": ("s", "lower", lambda t: t.self_s["claims.verify_all"]),
    "textio.parse.calls": ("count", "lower", lambda t: t.calls["textio.parse"]),
    "textio.parse.self_s": ("s", "lower", lambda t: t.self_s["textio.parse"]),
    "textio.serialize.self_s": ("s", "lower", lambda t: t.self_s["textio.serialize"]),
    "textio.dot.self_s": ("s", "lower", lambda t: t.self_s["textio.dot"]),
    "cli.run.self_s": ("s", "lower", lambda t: t.self_s["cli.run"]),
}

for _layer in LAYERS:
    PER_LAYER[f"layer.{_layer}.self_s"] = (
        "s", "lower", lambda t, L=_layer: sum(v for k, v in t.self_s.items() if k.split(".", 1)[0] == L))

# counts and ratios of counts must repeat exactly between two traced runs of one seed
DETERMINISTIC = [name for name, (unit, _, _) in PER_LAYER.items() if unit in ("count", "ratio")]


def layer_values(tracer: Tracer) -> dict[str, float]:
    return {name: spec[2](tracer) for name, spec in PER_LAYER.items()}
