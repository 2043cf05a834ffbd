"""In-memory span tracing of pairvis, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in *every*
pairvis module that binds it, so names bound by ``from .x import y`` (such as
``density_at`` in ``radon`` and ``corrected``) are traced as well.  A span is
(name, start, end, parent, op); spans of one benchmark op share ``op``.
Counts are recorded at the same boundaries.  Self time is a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

import mpmath
import numpy as np


def _size(*arrays) -> int:
    return int(np.broadcast(*arrays).size)


# Hooks run before a traced call get its bound arguments and may wrap one of
# them to count the work done through it; hooks run after it get its result.
def _count_points(*names):
    def hook(tracer, name, args):
        tracer.counts[f"{name}.points"] += _size(*(args[n] for n in names))
    return hook


def _count_nodes(per_call):
    def hook(tracer, name, args):
        f = args["f"]
        key = f"{name}.nodes"

        def counted(*xs):
            tracer.counts[key] += per_call(*xs)
            return f(*xs)

        args["f"] = counted
    return hook


def _count_cells(tracer, name, args):
    grid = args["grid"]
    tracer.counts[f"{name}.cells"] += grid.n_u * grid.n_v


def _count_bytes(tracer, name, text):
    tracer.counts[f"{name}.bytes"] += len(text)


def _check_seconds(tracer, name, results):
    for res in results:
        tracer.counts[f"validation.{res.name}.s"] += res.seconds


# (module, attribute, class or None, before hook, after hook)
TRACED = (
    ("state", "psi", None, _count_points("u", "v"), None),
    ("density", "density_at", None, _count_points("u", "v"), None),
    ("density", "quadrature_2d", None, _count_nodes(_size), None),
    ("density", "integrate_1d_batch", None, _count_nodes(len), None),
    ("density", "normalization_mass", None, None, None),
    ("density", "evaluate", "Density2D", _count_cells, None),
    ("density", "to_csv_text", "Density2D", None, _count_bytes),
    ("density", "to_json_text", "Density2D", None, _count_bytes),
    ("radon", "radon_numeric", None, None, None),
    ("visibility", "visibility_report", None, None, None),
    ("visibility", "epsilon_and_bound", None, None, None),
    ("visibility", "single_particle_v_mp", None, None, None),
    ("corrected", "corrected_f", None, None, None),
    ("corrected", "corrected_density", None, _count_points("k1", "k2"), None),
    ("correlation", "complementarity_sums", None, None, None),
    ("validation", "run_validation", None, None, _check_seconds),
    ("cli", "main", None, None, None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op index]
        self.counts = defaultdict(float)
        self.dps = []  # working precision of each mpmath scope entered
        self.enabled = False
        self.op = -1
        self._stack = []
        self._restore = []

    # -- recording -----------------------------------------------------------

    def begin_op(self) -> None:
        self.op += 1
        self.enabled = True

    def end_op(self) -> None:
        self.enabled = False

    def _wrap(self, name, fn, before, after):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                before(self, name, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if after is not None:
                after(self, name, result)
            return result

        return traced

    def _wrap_workdps(self, fn):
        tracer = self

        class Scope:
            def __init__(self, manager):
                self.manager = manager

            def __enter__(self):
                entered = self.manager.__enter__()
                if tracer.enabled:
                    tracer.dps.append(mpmath.mp.dps)
                return entered

            def __exit__(self, *exc):
                return self.manager.__exit__(*exc)

        @functools.wraps(fn)
        def workdps(params=None):
            return Scope(fn(params))

        return workdps

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every pairvis module attribute and class that binds a traced function."""
        modules = [m for key, m in sys.modules.items() if key == "pairvis" or key.startswith("pairvis.")]
        for mod_name, attr, cls_name, before, after in TRACED:
            owner = sys.modules[f"pairvis.{mod_name}"]
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                name = f"{mod_name}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__, before, after))
                else:
                    replacement = self._wrap(name, raw, before, after)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, replacement)
                continue
            self._patch_all(modules, getattr(owner, attr),
                            self._wrap(f"{mod_name}.{attr}", getattr(owner, attr), before, after))
        mpcore = sys.modules["pairvis._mpcore"]
        self._patch_all(modules, mpcore.workdps, self._wrap_workdps(mpcore.workdps))

    def _patch_all(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """calls, inclusive s and self_s per traced name, plus the recorded counts."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        out = defaultdict(float)
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += (end - start) - _covered(children.get(index, ()))
        out.update(self.counts)
        out["mpcore.workdps.calls"] = len(self.dps)
        out["mpcore.workdps.dps_p50"] = statistics.median(self.dps) if self.dps else 0
        out["mpcore.workdps.dps_max"] = max(self.dps, default=0)
        if out["density.density_at.s"] > 0:
            out["density.density_at.points_per_s"] = out["density.density_at.points"] / out["density.density_at.s"]
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
