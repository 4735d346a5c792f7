"""Span recording around the public calls of every ``qwscatter`` module.

The tracer wraps each public function of each module from outside, in
every namespace of the package that binds it (``scattering_matrix`` is
bound in ``qwscatter.scattering``, ``qwscatter.asymptotics`` and
``qwscatter.cli``), plus ``ModelFamily.walk`` and its ``__call__`` alias
on the class.  Each call records a span (name, start, end, parent span,
operation id, raised) in memory; nothing is written until the run ends.
An untraced run never calls :func:`install`, so it pays nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

import numpy as np

MODULES = (
    "coins",
    "graph",
    "walk",
    "models",
    "modelfile",
    "line",
    "spectral",
    "scattering",
    "asymptotics",
    "cli",
)

# span record fields
NAME, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    """In-memory span store; ``recording`` gates what the wrappers keep."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.recording = False
        self.diagnose = False
        self.n0_max = 0
        self.biorth_resid_max = 0.0
        self.eig_cond_max = 0.0
        self.unitarity_resid_max = 0.0

    def reset(self):
        self.spans = []
        self.stack = []

    def wrap(self, fn, name, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            record = [label, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                      tracer.op, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                record[END] = perf_counter()
                tracer.stack.pop()
            if post is not None:
                post(args, kwargs, out)
            return out

        return traced

    # -- hooks run after a span closes; their cost lands in the parent's
    # self time, so the expensive diagnostics only run when ``diagnose``
    # is set (during the untimed warm-up pass)

    def _after_decompose(self, args, kwargs, system):
        self.n0_max = max(self.n0_max, int(np.asarray(system.matrix).shape[0]))
        if not self.diagnose or not system.clusters:
            return
        right = np.concatenate([c.right_basis() for c in system.clusters], axis=1)
        left = np.concatenate([c.left_basis() for c in system.clusters], axis=1)
        gram = left.conj().T @ right
        self.biorth_resid_max = max(
            self.biorth_resid_max,
            float(np.linalg.norm(gram - np.eye(gram.shape[0]), 2)),
        )
        for c in system.clusters:
            if c.is_simple:
                v, w = c.chains[0][0], c.co_chains[0][0]
                pairing = abs(np.vdot(w, v)) / (np.linalg.norm(v) * np.linalg.norm(w))
                self.eig_cond_max = max(self.eig_cond_max, 1.0 / pairing)

    def _after_smatrix(self, args, kwargs, report):
        if self.diagnose and report.unitarity_residual is not None:
            self.unitarity_resid_max = max(
                self.unitarity_resid_max, float(report.unitarity_residual)
            )


def _smatrix_name(args, kwargs):
    route = kwargs.get("route", args[2] if len(args) > 2 else "resolvent")
    return f"scattering.scattering_matrix.{route}"


def install(tracer: Tracer) -> None:
    """Wrap every public function of the package, wherever it is bound."""
    import qwscatter

    modules = {m: sys.modules[f"qwscatter.{m}"] for m in MODULES}
    namespaces = [qwscatter, *modules.values()]
    for short, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            if attr == "scattering_matrix":
                wrapper = tracer.wrap(fn, _smatrix_name, tracer._after_smatrix)
            elif attr == "eigen_decompose":
                wrapper = tracer.wrap(fn, f"{short}.{attr}", tracer._after_decompose)
            else:
                wrapper = tracer.wrap(fn, f"{short}.{attr}")
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, bound, wrapper)
    family = modules["models"].ModelFamily
    walk = tracer.wrap(family.walk, "models.ModelFamily.walk")
    family.walk = walk
    family.__call__ = walk


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list:
    """Self time per span: duration minus what its child spans cover.

    Spans come from one thread and nest, so a span's children cover
    disjoint parts of it and their union is the sum of their durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def inside(spans, ancestor: str) -> list:
    """For each span, whether some ancestor span is named ``ancestor``."""
    flags = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            flags[i] = flags[p] or spans[p][NAME] == ancestor
    return flags


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as handle:
        for i, s in enumerate(spans):
            handle.write(json.dumps({
                "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                "parent": s[PARENT], "op": s[OP], "raised": s[RAISED],
            }) + "\n")
