"""Span tracer that wraps the outerinv layers from outside the package.

The traced run replaces every public function of the layer modules (and
the ``Subspace`` constructor, and ``numpy.linalg.svd/solve/qr``) with a
wrapper that records one span per call: ``[name, start_ns, end_ns,
parent_index, item]``.  Every module attribute that refers to a wrapped
function is patched, so ``from .numlin import op_norm`` aliases are
traced too; calls made through references stored elsewhere (a dict of
functions, a default argument) are not.  ``restore`` puts every original
back.  Spans stay in memory and are written once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("harness_cli", "instance_gen", "perturbation", "outer_inverse", "subspace", "numlin")
LAPACK = ("svd", "solve", "qr")

# The seven theorem evaluators, reported together as ``perturbation.evaluate``.
EVALUATORS = frozenset(
    f"perturbation.{name}"
    for name in (
        "stable_bounds",
        "gap_propagation",
        "perturb_T",
        "perturb_S",
        "perturb_TS",
        "perturb_A",
        "perturb_all",
    )
)
EVALUATE = "perturbation.evaluate"

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "item")


def _svd_work(a) -> int:
    """m * n * min(m, n), summed over any leading batch axes."""
    shape = getattr(a, "shape", None) or (0, 0)
    m, n = shape[-2], shape[-1]
    return math.prod(shape[:-2]) * m * n * min(m, n)


def _trial_item(config, theorem, trial_id, *rest, **kwargs) -> str:
    return f"{theorem}/{trial_id}"


class Tracer:
    """Install span wrappers with ``install()``; undo them with ``restore()``."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self.svd_work_mnk = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name: str, fn, item_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if item_of is not None:
                self.item = item_of(*args, **kwargs)
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        import numpy.linalg

        from outerinv import harness_cli, subspace

        package = [m for n, m in sorted(sys.modules.items()) if n == "outerinv" or n.startswith("outerinv.")]
        wrappers = {}
        for short in LAYERS:
            module = sys.modules[f"outerinv.{short}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                item_of = _trial_item if value is harness_cli.run_trial else None
                wrappers[value] = self._wrap(f"{short}.{attr}", value, item_of)
        for module in package:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

        self._patch(
            subspace.Subspace, "__init__", self._wrap("subspace.Subspace", subspace.Subspace.__init__)
        )

        svd = numpy.linalg.svd

        def counted_svd(a, *args, **kwargs):
            self.svd_work_mnk += _svd_work(a)
            return svd(a, *args, **kwargs)

        functools.update_wrapper(counted_svd, svd)
        self._patch(numpy.linalg, "svd", self._wrap("lapack.svd", counted_svd))
        for attr in LAPACK[1:]:
            self._patch(numpy.linalg, attr, self._wrap(f"lapack.{attr}", getattr(numpy.linalg, attr)))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as gzipped JSON lines: a header naming the fields, then one array per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def _covered(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of the given intervals."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        (end - start) - _covered(start, end, children.get(i, ()))
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def _group(name: str) -> str:
    return EVALUATE if name in EVALUATORS else name


def outermost(spans) -> list[bool]:
    """True where no ancestor span belongs to the same group (no double counting)."""
    flags = []
    for span in spans:
        group, parent, outer = _group(span[0]), span[3], True
        while parent >= 0:
            if _group(spans[parent][0]) == group:
                outer = False
                break
            parent = spans[parent][3]
        flags.append(outer)
    return flags


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per name and group: calls, inclusive ns (outermost calls only) and self ns.

    Layer entries (``numlin``, ``lapack``, ...) carry the self time of every
    span in that layer.
    """
    totals = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
    for span, own, outer in zip(spans, self_times(spans), outermost(spans)):
        name = span[0]
        keys = {name, _group(name)}
        for key in keys:
            entry = totals[key]
            entry["calls"] += 1
            entry["self_ns"] += own
            if outer:
                entry["ns"] += span[2] - span[1]
        totals[name.split(".", 1)[0]]["self_ns"] += own
    return dict(totals)
