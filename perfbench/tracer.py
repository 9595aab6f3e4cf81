"""Outside-in tracer for the armould benchmark.

The tracer replaces each listed armould function by a wrapper at every
binding: every ``armould.*`` module attribute that *is* the original function
(``synthesis`` holds its own ``paralog_Ua_eval`` from ``from .monomials
import ...``, so patching only ``armould.monomials`` would miss its calls),
and the method on its class.  Nothing inside the package is edited.

Each wrapped call records one span (name, start, end, parent span) in
memory; the spans are written out when the job ends, and self times are
computed from them afterwards (``layer_metrics``).  Counts that spans cannot
carry are kept beside them: exceptions raised through the wrapper, the size
of the result and, for the calls that can repeat work, the number of
distinct argument keys.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array


def _word_length(args, kwargs):
    return f"r{len(args[0])}"


def _forest_nodes(args, kwargs):
    return f"n{args[0].node_count}"


def _organic_size(report):
    return sum(report.forest_counts.values())


# (module, function or Class.method, metric stem, options)
#   bucket: sub-span name from the arguments (word length, forest nodes)
#   key:    count distinct argument keys, for the unique/calls waste ratio
#   items:  size of the result
TRACED = [
    ("monomials", "paralog_Ua_eval", "monomials.paralog_Ua_eval", {"bucket": _word_length, "key": True}),
    ("monomials", "paralog_forest_eval", "monomials.paralog_forest_eval", {"bucket": _forest_nodes}),
    ("words", "forests_of_norm", "words.forests_of_norm", {"items": len}),
    ("words", "linear_extensions", "words.linear_extensions", {"items": len}),
    ("words", "contracting_covers", "words.contracting_covers", {"items": len}),
    ("words", "shuffle", "words.shuffle", {}),
    ("words", "contracting_shuffle", "words.contracting_shuffle", {}),
    ("moulds", "Mould.value", "moulds.Mould.value", {"key": True}),
    ("moulds", "ArMould.value", "moulds.ArMould.value", {}),
    ("moulds", "check_symmetry", "moulds.check_symmetry", {}),
    ("moulds", "organic_growth_report", "moulds.organic_growth_report", {"items": _organic_size}),
    ("operators", "coarborify_contracted", "operators.coarborify_contracted", {}),
    ("operators", "coarborify_homogeneous", "operators.coarborify_homogeneous", {}),
    ("operators", "op_compose_word", "operators.op_compose_word", {}),
    ("operators", "DiffOperator.compose", "operators.DiffOperator.compose", {}),
    ("operators", "DiffOperator.apply", "operators.DiffOperator.apply", {}),
    ("operators", "restricted_norm", "operators.restricted_norm", {}),
    ("series", "TruncatedSeries.__mul__", "series.TruncatedSeries.mul", {}),
    ("synthesis", "build_theta", "synthesis.build_theta", {}),
    ("synthesis", "conjugate_normal_field", "synthesis.conjugate_normal_field", {}),
    ("synthesis", "automorphism_defect", "synthesis.automorphism_defect", {}),
    ("synthesis", "NormalizerExpansion.inverse_operator", "synthesis.NormalizerExpansion.inverse_operator", {}),
    ("cli", "main", "cli.main", {}),
]

STEMS = {stem for _, _, stem, _ in TRACED}

# Per-layer metrics reported on every traced run: (metric, unit).
PER_LAYER = (
    [(f"monomials.paralog_Ua_eval.{k}", u) for k, u in (("calls", "count"), ("self_s", "s"), ("unique_frac", "ratio"), ("errors", "count"))]
    + [(f"monomials.paralog_Ua_eval.r{r}.{k}", u) for r in (1, 2, 3, 4) for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"monomials.paralog_forest_eval.{k}", u) for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"monomials.paralog_forest_eval.n{n}.{k}", u) for n in (1, 2, 3, 4) for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"words.{f}.{k}", u) for f in ("forests_of_norm", "linear_extensions", "contracting_covers") for k, u in (("calls", "count"), ("self_s", "s"), ("items", "count"))]
    + [(f"words.{f}.{k}", u) for f in ("shuffle", "contracting_shuffle") for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("moulds.Mould.value.calls", "count"), ("moulds.Mould.value.self_s", "s"), ("moulds.Mould.value.unique_frac", "ratio")]
    + [(f"moulds.{f}.{k}", u) for f in ("ArMould.value", "check_symmetry") for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("moulds.organic_growth_report.self_s", "s"), ("moulds.organic_growth_report.items", "count")]
    + [
        (f"{f}.{k}", u)
        for f in (
            "operators.coarborify_contracted",
            "operators.coarborify_homogeneous",
            "operators.op_compose_word",
            "operators.DiffOperator.compose",
            "operators.DiffOperator.apply",
            "operators.restricted_norm",
            "series.TruncatedSeries.mul",
        )
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [(f"synthesis.{f}.{k}", "s") for f in ("build_theta", "conjugate_normal_field") for k in ("s", "self_s")]
    + [
        (f"synthesis.{f}.{k}", u)
        for f in ("automorphism_defect", "NormalizerExpansion.inverse_operator")
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [("cli.main.s", "s"), ("cli.main.self_s", "s"), ("trace.overhead_s", "s")]
)

# Coverage self-test: the workloads on which each traced name must record at
# least one call at the benchmark's sizes.  A patch that misses a binding
# leaves a zero here and fails the traced run.
SYNTH = {"synth-c0", "synth-c2-wide"}
EXPECTED_CALLS = {
    "monomials.paralog_Ua_eval": SYNTH | {"scan"},
    "monomials.paralog_Ua_eval.r1": SYNTH | {"scan"},
    "monomials.paralog_Ua_eval.r2": SYNTH | {"scan"},
    "monomials.paralog_Ua_eval.r3": {"synth-c2-wide", "scan"},
    "monomials.paralog_Ua_eval.r4": {"synth-c2-wide"},
    "monomials.paralog_forest_eval": {"scan"},
    "monomials.paralog_forest_eval.n1": {"scan"},
    "monomials.paralog_forest_eval.n2": {"scan"},
    "monomials.paralog_forest_eval.n3": {"scan"},
    "words.forests_of_norm": SYNTH | {"scan", "exact"},
    "words.linear_extensions": SYNTH | {"exact"},
    "words.contracting_covers": {"exact"},
    "words.shuffle": {"exact"},
    "words.contracting_shuffle": {"exact"},
    "moulds.Mould.value": SYNTH | {"exact"},
    "moulds.ArMould.value": SYNTH | {"exact"},
    "moulds.check_symmetry": {"exact"},
    "moulds.organic_growth_report": {"exact"},
    "operators.coarborify_contracted": {"exact"},
    "operators.coarborify_homogeneous": SYNTH | {"exact"},
    "operators.op_compose_word": {"exact"},
    "operators.DiffOperator.compose": SYNTH | {"exact"},
    "operators.DiffOperator.apply": SYNTH,
    "operators.restricted_norm": SYNTH,
    "series.TruncatedSeries.mul": SYNTH,
    "synthesis.build_theta": SYNTH,
    "synthesis.conjugate_normal_field": SYNTH,
    "synthesis.automorphism_defect": SYNTH,
    "synthesis.NormalizerExpansion.inverse_operator": SYNTH,
    "cli.main": SYNTH | {"scan"},
}


def _freeze(x):
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in x.items()))
    return x


def replace_everywhere(original, replacement) -> int:
    """Rebind every ``armould.*`` module attribute that is ``original``."""
    replaced = 0
    for name, module in sorted(sys.modules.items()):
        if name == "armould" or name.startswith("armould."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    replaced += 1
    return replaced


class Tracer:
    """Spans in flat arrays (name index, start ns, end ns, parent index or -1)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.errors: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self._keep: dict = {}  # instances whose id() is part of a key stay alive

    def _index(self, name: str) -> int:
        i = self._name_index.get(name)
        if i is None:
            i = self._name_index[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, stem: str, bucket=None, key=False, items=None, method=False):
        index = self._index(stem)
        keys = self.keys.setdefault(stem, set()) if key else None
        clock = time.perf_counter_ns
        stack, name_of, start, end, parent = self._stack, self.name_of, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if bucket is None:
                i = index
            else:
                i = self._index(f"{stem}.{bucket(args[1:] if method else args, kwargs)}")
            if keys is not None:
                if method:
                    self._keep[id(args[0])] = args[0]
                    k = (id(args[0]), _freeze(args[1:]), _freeze(kwargs))
                else:
                    k = (_freeze(args), _freeze(kwargs))
                keys.add(k)
            sid = len(start)
            name_of.append(i)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[sid] = clock()
                stack.pop()
                self.errors[stem] = self.errors.get(stem, 0) + 1
                raise
            end[sid] = clock()
            stack.pop()
            if items is not None:
                self.items[stem] = self.items.get(stem, 0) + items(result)
            return result

        return traced

    def install(self):
        """Patch every binding of every traced function; returns the number
        of bindings replaced."""
        replaced = 0
        for modname, qualname, stem, opts in TRACED:
            module = importlib.import_module(f"armould.{modname}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self.wrap(cls.__dict__[attr], stem, method=True, **opts))
                replaced += 1
                continue
            original = getattr(module, qualname)
            replaced += replace_everywhere(original, self.wrap(original, stem, **opts))
        return replaced

    def dump(self, path: str):
        """Write spans and side counts: a JSON header line, then the arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "errors": self.errors,
            "items": self.items,
            "unique": {k: len(v) for k, v in self.keys.items()},
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.start, self.end, self.parent):
                arr.tofile(fh)


def layer_metrics(path: str) -> tuple[dict, dict]:
    """Per-name totals from a span file: (metrics, call counts).

    Self time of a span is its duration minus the durations of its direct
    traced children; calls are single-threaded, so children never overlap.
    A bucketed name (``...r2``) also adds into its stem.
    """
    import numpy as np

    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        name_of, start, end, parent = (np.fromfile(fh, dtype=t, count=n) for t in (np.int32, np.int64, np.int64, np.int32))
    names = header["names"]
    dur = (end - start).astype(np.float64) * 1e-9
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    k = len(names)
    calls = np.bincount(name_of, minlength=k)
    total_s = np.bincount(name_of, weights=dur, minlength=k)
    self_s = np.bincount(name_of, weights=self_time, minlength=k)
    per: dict[str, dict] = {}
    for i, name in enumerate(names):
        targets = [name] if name in STEMS else [name, name.rpartition(".")[0]]
        for t in targets:
            acc = per.setdefault(t, {"calls": 0, "s": 0.0, "self_s": 0.0})
            acc["calls"] += int(calls[i])
            acc["s"] += float(total_s[i])
            acc["self_s"] += float(self_s[i])
    metrics = {}
    for metric, _unit in PER_LAYER:
        stem, _, kind = metric.rpartition(".")
        if stem == "trace":
            continue
        acc = per.get(stem, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if kind == "errors":
            metrics[metric] = header["errors"].get(stem, 0)
        elif kind == "items":
            metrics[metric] = header["items"].get(stem, 0)
        elif kind == "unique_frac":
            metrics[metric] = header["unique"].get(stem, 0) / acc["calls"] if acc["calls"] else 0.0
        else:
            metrics[metric] = acc[kind]
    return metrics, {name: acc["calls"] for name, acc in per.items()}


def coverage_failures(workload: str, calls: dict) -> list[str]:
    return [
        f"{name}: no call recorded on {workload}"
        for name, expected in sorted(EXPECTED_CALLS.items())
        if workload in expected and calls.get(name, 0) < 1
    ]
