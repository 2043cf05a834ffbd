"""Running one benchmark operation and checking its output.

Every op goes through the package's public entry points: ``pairvis.cli.main``
with ``--out`` in a scratch directory, or the oracle functions.  Only the call
itself is timed; parsing and checking the output happen afterwards.  A check
that fails marks the op failed and never aborts the run.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from workloads import Op, RADON_POINTS

REL = 1e-12  # stored-reference tolerance for report, sweep and grid outputs
ORACLE_TOL = 1e-8  # acceptance tolerance for mass, radon and moments
# grid values far below the grid's peak may come from cancelling terms, so they
# are compared on this floor (a share of the peak) instead of their own size
GRID_VALUE_FLOOR = 1e-6

try:  # glibc only; elsewhere the heap is left as it is
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):
    _malloc_trim = None


class CheckFailed(Exception):
    pass


@dataclass
class OpResult:
    latency: float
    ok: bool
    error: str = ""
    cells: int = 0  # output values evaluated and serialized
    out_bytes: int = 0


def close(x, ref, scale: float = 0.0) -> bool:
    return x == ref or abs(x - ref) <= REL * max(abs(ref), scale)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _same(got, ref, where: str) -> None:
    """Compare one output value with its reference (floats within REL)."""
    if isinstance(ref, float):
        _expect(isinstance(got, (int, float)) and not isinstance(got, bool) and close(float(got), ref),
                f"{where}: {got!r} != {ref!r}")
    else:
        _expect(got == ref and type(got) is type(ref), f"{where}: {got!r} != {ref!r}")


def _csv_value(text: str, ref):
    """Parse a CSV field the way its reference type was written."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return ref if text == str(ref) else text
    if isinstance(ref, int):
        return int(text)
    return float(text)


def _read_json_grid(path: str, n: int, wanted: set) -> tuple[dict, dict]:
    """The fields before ``values`` of a JSON grid file, and its ``wanted`` rows.

    Checks that ``values`` is n rows of n numbers but parses only the wanted
    rows: ``json.load`` of a 1024^2 grid would make a million floats whose
    freed arenas stay in the process and raise the next op's peak RSS.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    cut = text.find(', "values": [')
    _expect(cut > 0, "no values array")
    head = json.loads(text[:cut] + "}")
    rows = {}
    pos = cut + len(', "values": [')
    for i in range(n):
        end = text.find("]", pos)
        _expect(text.startswith("[", pos) and end > 0 and text.count(",", pos, end) == n - 1, f"values row {i}")
        if i in wanted:
            rows[i] = [float(x) for x in text[pos + 1:end].split(",")]
        pos = end + 1
        sep = ", " if i < n - 1 else "]}\n"
        _expect(text.startswith(sep, pos), f"after values row {i}")
        pos += len(sep)
    _expect(pos == len(text), "data after the values array")
    return head, rows


class Runner:
    """Executes ops in-process and checks them against references or closed forms."""

    def __init__(self, modules: dict, refs: dict, tmp_dir: str):
        self.m = modules  # pairvis submodules, looked up at call time so tracing patches apply
        self.refs = refs
        self.tmp_dir = tmp_dir
        self.tracer = None  # set while a traced pass runs

    def run(self, op: Op) -> OpResult:
        out = os.path.join(self.tmp_dir, f"out.{op.meta.get('format', 'txt')}")
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            value = self._invoke(op, out)
        except (Exception, SystemExit) as exc:  # argparse exits; the run keeps going
            return OpResult(time.perf_counter() - start, False, f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.end_op()
        latency = time.perf_counter() - start
        try:
            cells, out_bytes = self._check(op, value, out)
        except CheckFailed as exc:
            return OpResult(latency, False, f"check: {exc}")
        except Exception as exc:  # malformed output counts as a failed op
            return OpResult(latency, False, f"check: {type(exc).__name__}: {exc}")
        finally:
            if os.path.exists(out):
                os.remove(out)
            if _malloc_trim is not None:
                # hand the freed heap back to the OS, so that each op's peak RSS
                # starts from the same state and not from what earlier ops left
                _malloc_trim(0)
        return OpResult(latency, True, "", cells, out_bytes)

    # -- invoking ------------------------------------------------------------

    def _params(self, op: Op):
        c = op.meta
        return self.m["state"].SetupParams(c["a"], c["h1"], c["h2"], c["xi"])

    def _invoke(self, op: Op, out: str):
        if op.argv:
            argv = op.argv if op.kind == "validate" else op.argv + ["--out", out]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = self.m["cli"].main(argv)
            return code, stdout.getvalue()
        density, params = self.m["density"], self._params(op)
        basis = self.m["state"].BasisPair.from_token(op.meta.get("basis", "kk"))
        if op.kind == "mass":
            return density.normalization_mass(params, basis)
        if op.kind == "radon":
            radon = self.m["radon"]
            half = 8.0 * math.sqrt(params.a)
            s = np.linspace(-half, half, RADON_POINTS)
            angle = {
                "k1": radon.RadonAngle.k1, "k2": radon.RadonAngle.k2,
                "k+": radon.RadonAngle.kplus, "k-": radon.RadonAngle.kminus,
                "s+": lambda: radon.RadonAngle.splus(params), "s-": lambda: radon.RadonAngle.sminus(params),
            }[op.meta["angle"]]()
            return s, radon.radon_numeric(params, angle, s, tol=1e-10).values
        i, j = op.meta["i"], op.meta["j"]
        ub, vb = density.basis_domains(params, basis)
        hints = density.basis_panel_hints(params, basis)
        return density.quadrature_2d(
            lambda u, v: u**i * v**j * density.density_at(params, basis, u, v),
            ub, vb, tol=1e-9, min_panels=hints,
        )

    # -- checking ------------------------------------------------------------

    def _check(self, op: Op, value, out: str) -> tuple[int, int]:
        if op.argv:
            code, stdout = value
            _expect(code == 0, f"exit code {code}")
            if op.kind == "validate":
                return self._check_validate(stdout), len(stdout)
            size = os.path.getsize(out)
            if op.kind == "grid":
                return self._check_grid(op, out), size
            with open(out, encoding="utf-8") as handle:
                text = handle.read()
            check = self._check_report if op.kind == "report" else self._check_sweep
            return check(op, text), size
        params = self._params(op)
        if op.kind == "mass":
            _expect(abs(value - 1.0) <= ORACLE_TOL, f"|mass - 1| = {abs(value - 1.0):.3e}")
            return 1, 0
        if op.kind == "radon":
            s, numeric = value
            radon = self.m["radon"]
            closed = {
                "k1": lambda: radon.marginal_k1(params, s), "k2": lambda: radon.marginal_k2(params, s),
                "k+": lambda: radon.marginal_kpm(params, 1, s), "k-": lambda: radon.marginal_kpm(params, -1, s),
                "s+": lambda: radon.marginal_spm(params, 1, s), "s-": lambda: radon.marginal_spm(params, -1, s),
            }[op.meta["angle"]]()
            dev = float(np.max(np.abs(numeric - closed)))
            _expect(dev <= ORACLE_TOL, f"radon deviation {dev:.3e}")
            return len(s), 0
        corr = self.m["correlation"]
        moments = corr.moments_x(params) if op.meta["basis"] == "xx" else corr.moments_k(params)
        closed = {(2, 0): moments.var1, (0, 2): moments.var2, (1, 1): moments.cov}[(op.meta["i"], op.meta["j"])]
        dev = abs(value - closed) / max(abs(closed), 1e-30)
        _expect(dev <= ORACLE_TOL, f"moment relative deviation {dev:.3e}")
        return 1, 0

    def _check_validate(self, stdout: str) -> int:
        lines = stdout.splitlines()
        _expect(len(lines) == 8, f"validate printed {len(lines)} lines, expected 8")
        failed = [line for line in lines if not line.startswith("PASS")]
        _expect(not failed, "; ".join(failed))
        return len(lines)

    def _check_report(self, op: Op, text: str) -> int:
        ref = self.refs[op.ref]
        expected = dict(ref["payload"])
        if op.meta["convention"] == "b4_pi4":
            expected["corrected"] = ref["corrected_b4_pi4"]
        if op.meta["format"] == "json":
            got = json.loads(text)
        else:
            lines = text.splitlines()
            _expect(lines[0] == "section,key,value", f"csv header {lines[0]!r}")
            got = {}
            for line in lines[1:]:
                section, key, field = line.split(",")
                got.setdefault(section, {})[key] = _csv_value(field, expected[section][key])
        _expect(got.keys() == expected.keys(), f"sections {sorted(got)}")
        cells = 0
        for section, body in expected.items():
            _expect(got[section].keys() == body.keys(), f"{section} keys {sorted(got[section])}")
            for key, ref_value in body.items():
                _same(got[section][key], ref_value, f"{section}.{key}")
                cells += 1
        eps, bound = got["visibility"]["epsilon"], got["visibility"]["bound"]
        # deep points take both below the binary64 range; 0.0 == 0.0 is then in bound
        _expect(abs(eps) < bound or eps == bound == 0.0, f"|eps| = {abs(eps):.3e} not below bound {bound:.3e}")
        return cells

    def _check_sweep(self, op: Op, text: str) -> int:
        rows = self.refs[op.ref]["rows"]
        keys = list(rows[0])
        if op.meta["format"] == "json":
            got = json.loads(text)
        else:
            lines = text.splitlines()
            _expect(lines[0] == ",".join(keys), f"csv header {lines[0]!r}")
            got = [dict(zip(keys, map(float, line.split(",")))) for line in lines[1:]]
        _expect(len(got) == len(rows), f"{len(got)} rows, expected {len(rows)}")
        for n, (row, ref_row) in enumerate(zip(got, rows)):
            _expect(list(row) == keys, f"row {n} keys {list(row)}")
            for key in keys:
                _same(row[key], ref_row[key], f"row {n} {key}")
        return len(rows) * len(keys)

    def _check_grid(self, op: Op, out: str) -> int:
        ref = self.refs[op.ref]
        n = ref["n"]
        g = ref["grid"]
        u_scale = max(abs(g["u_min"]), abs(g["u_max"]))
        v_scale = max(abs(g["v_min"]), abs(g["v_max"]))
        floor = GRID_VALUE_FLOOR * ref["peak"]
        if op.meta["format"] == "json":
            got, rows = _read_json_grid(out, n, {cell[0] for cell in ref["cells"]})
            _expect(list(got) == ["grid", "basis", "params"], f"json keys {list(got)} before values")
            for key, ref_value in g.items():
                _same(got["grid"][key], ref_value, f"grid.{key}")
            _expect(got["basis"] == ref["basis"], f"basis {got['basis']!r}")
            for key, ref_value in ref["params"].items():
                _same(got["params"][key], ref_value, f"params.{key}")
            for i, j, _u, _v, value in ref["cells"]:
                _expect(close(rows[i][j], value, floor), f"value[{i}][{j}] {rows[i][j]!r} != {value!r}")
            return n * n
        wanted = {1 + i * n + j: (u, v, value) for i, j, u, v, value in ref["cells"]}
        count = 0
        with open(out, encoding="utf-8") as handle:
            for count, line in enumerate(handle):
                if count == 0:
                    _expect(line == "u,v,value\n", f"csv header {line!r}")
                elif count in wanted:
                    u, v, value = map(float, line.split(","))
                    ru, rv, rvalue = wanted[count]
                    _expect(close(u, ru, u_scale) and close(v, rv, v_scale) and close(value, rvalue, floor),
                            f"line {count}: {line.strip()!r} != {ru!r},{rv!r},{rvalue!r}")
        _expect(count == n * n, f"{count} data lines, expected {n * n}")
        return n * n
