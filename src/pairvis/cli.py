"""Command-line interface: density grids, scalar reports, sweeps, validation.

Exit codes: 0 success, 1 validation failure, 2 configuration error (including
an unwritable --out path).
All numeric CSV output uses 17 significant digits so values round-trip
exactly; outputs are byte-identical regardless of the --threads hint
(evaluation is deterministic single-stream numpy).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Callable, Optional, TextIO

import numpy as np

from . import corrected, correlation, density, validation, visibility
from .state import PI, BasisPair, ParameterDomainError, SetupParams, UnsupportedBasisError

__all__ = ["main"]


class ConfigError(ValueError):
    pass


_ANGLE_RE = re.compile(r"^(?P<num>\d+)?pi(?:/(?P<den>\d+))?$")


def parse_angle(token: str) -> float:
    """Accept symbolic multiples of pi ('3pi/8') or plain float literals."""
    text = token.strip().lower().replace(" ", "")
    match = _ANGLE_RE.match(text)
    if match:
        num = int(match.group("num") or 1)
        den = int(match.group("den") or 1)
        if den == 0:
            raise ConfigError(f"invalid angle {token!r}")
        return num * PI / den
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse angle {token!r}") from None


def parse_grid_shape(token: str) -> tuple[int, int]:
    match = re.match(r"^(\d+)x(\d+)$", token.strip().lower())
    if not match:
        raise ConfigError(f"grid shape must look like 512x512, got {token!r}")
    n_u, n_v = int(match.group(1)), int(match.group(2))
    if n_u < 2 or n_v < 2:
        raise ConfigError("grids need at least 2 points per axis")
    return n_u, n_v


# parameter presets mirroring the standard demonstration setups
_GRID_FIGURES = {
    "fig2": {"basis": "kk", "a": 30.0, "h1": 1.0, "h2": 2.0, "corrected": False},
    "fig3": {"basis": "kk", "a": 30.0, "h1": 1.0, "h2": 2.0, "corrected": True},
    "fig5": {"basis": "xx", "a": 30.0, "h1": 1.0, "h2": 1.0, "corrected": False},
    "fig6": {"basis": "kx", "a": 30.0, "h1": 1.0, "h2": 1.0, "corrected": False},
}
_SWEEP_FIGURES = {
    "fig4": {"h1": 1.0, "h2": 1.0, "start": 2.0, "stop": 8.0, "count": 121},
    "fig7": {"h1": 1.0, "h2": 1.0, "start": 2.0, "stop": 8.0, "count": 121},
}
# the sweep's columns: its CSV header and the keys of each JSON row
_SWEEP_COLUMNS = ("a", "V2_plus_D2", "V2_plus_F2", "V2_plus_R2", "bound")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_with(path: Optional[str], write: Callable[[TextIO], None]) -> None:
    """Run ``write`` on stdout, or on the file at ``path``; an unwritable path is a usage error."""
    if path is None or path == "-":
        write(sys.stdout)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                write(handle)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_text(path: Optional[str], text: str) -> None:
    _write_with(path, lambda handle: handle.write(text))


def _params_from_args(args) -> SetupParams:
    if args.xi is None:
        raise ConfigError("--xi is required (figure presets fix geometry, not the angle)")
    try:
        return SetupParams(args.a, args.h1, args.h2, parse_angle(args.xi))
    except ParameterDomainError as exc:
        raise ConfigError(str(exc)) from None


def cmd_grid(args) -> int:
    settings = {"basis": args.basis, "a": args.a, "h1": args.h1, "h2": args.h2, "corrected": args.corrected}
    if args.figure is not None:
        preset = _GRID_FIGURES.get(args.figure)
        if preset is None:
            raise ConfigError(
                f"unknown grid figure {args.figure!r}; expected one of {sorted(_GRID_FIGURES)}"
            )
        settings.update(preset)
        settings["corrected"] = settings["corrected"] or args.corrected
    args.a, args.h1, args.h2 = settings["a"], settings["h1"], settings["h2"]
    params = _params_from_args(args)
    basis = BasisPair.from_token(settings["basis"])
    n_u, n_v = parse_grid_shape(args.grid)
    try:
        grid = density.default_grid(params, basis, n_u, n_v)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    fn = None
    if settings["corrected"]:
        if basis.token != "kk":
            raise ConfigError("the corrected density is defined in the kk basis only")
        fn = lambda u, v: corrected.corrected_density(params, u, v, convention=args.convention)
    field = density.Density2D.evaluate(params, basis, grid, fn=fn)
    # the text goes out row by row, so no copy of the whole of it is ever held
    _write_with(args.out, field.write_csv if args.format == "csv" else field.write_json)
    return 0


def cmd_report(args) -> int:
    params = _params_from_args(args)
    vis = visibility.visibility_report(params)
    corr = corrected.corrected_f(params, convention=args.convention)
    comp = correlation.complementarity_sums(params)
    payload = {
        "visibility": vis.to_dict(),
        "corrected": corr.to_dict(),
        "correlation": comp.to_dict(),
    }
    if args.format == "csv":
        lines = ["section,key,value"]
        for section, body in payload.items():
            for key, value in body.items():
                value = _fmt(value) if isinstance(value, float) else value
                lines.append(f"{section},{key},{value}")
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_sweep(args) -> int:
    start, stop, count = args.sweep_start, args.sweep_stop, args.sweep_count
    h1, h2 = args.h1, args.h2
    if args.figure is not None:
        preset = _SWEEP_FIGURES.get(args.figure)
        if preset is None:
            raise ConfigError(
                f"unknown sweep figure {args.figure!r}; expected one of {sorted(_SWEEP_FIGURES)}"
            )
        h1, h2 = preset["h1"], preset["h2"]
        start, stop, count = preset["start"], preset["stop"], preset["count"]
    if args.xi is None:
        raise ConfigError("--xi is required for sweeps")
    xi = parse_angle(args.xi)
    if count < 2:
        raise ConfigError("sweep count must be at least 2")
    if not (0 < start < stop):
        raise ConfigError("sweep bounds must satisfy 0 < start < stop")
    rows = [correlation._sweep_row(SetupParams(float(a), h1, h2, xi), args.convention)
            for a in np.linspace(start, stop, count)]
    if args.format == "json":
        _write_text(args.out, json.dumps([dict(zip(_SWEEP_COLUMNS, row)) for row in rows]) + "\n")
    else:
        lines = [",".join(_SWEEP_COLUMNS)] + [",".join(map(_fmt, row)) for row in rows]
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_validate(args) -> int:
    if args.tol_quad < 0:
        raise ConfigError("--tol-quad must be non-negative")
    results = validation.run_validation(quick=args.quick, tol_quad=args.tol_quad)
    lines = [
        f"{'PASS' if res.passed else 'FAIL'}  {res.name:<28} max_dev={res.max_deviation:.3e} "
        f"tol={res.tolerance:.1e} ({res.seconds:.2f}s)\n"
        for res in results
    ]
    _write_text(args.out, "".join(lines))
    return 0 if all(res.passed for res in results) else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pairvis",
        description="Visibility and complementarity measures for bipartite Gaussian double-slit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", type=str, default=None, help="output path ('-' or omitted: stdout)")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--a", type=float, default=30.0, help="squeezing parameter a = 1/(4 sigma^2)")
        p.add_argument("--h1", type=float, default=1.0, help="first slit half-separation")
        p.add_argument("--h2", type=float, default=1.0, help="second slit half-separation")
        p.add_argument("--xi", type=str, default=None, help="entanglement angle (e.g. 0.3, pi/8, 3pi/8)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        add_out(p)
        p.add_argument("--threads", type=int, default=1, help="worker hint; results are identical for any value")
        p.add_argument(
            "--convention",
            choices=("b4_xi", "b4_pi4"),
            default="b4_xi",
            help="coefficient convention for the corrected density's added term",
        )

    p_grid = sub.add_parser("grid", help="evaluate a density grid")
    add_common(p_grid)
    p_grid.add_argument("--basis", choices=("xx", "kk", "kx", "xk"), default="kk")
    p_grid.add_argument("--grid", type=str, default="512x512", help="grid shape NxM")
    p_grid.add_argument("--figure", type=str, default=None, help="preset geometry: fig2/fig3/fig5/fig6")
    p_grid.add_argument("--corrected", action="store_true", help="emit the corrected kk density")

    p_report = sub.add_parser("report", help="scalar visibility/corrected/correlation report")
    add_common(p_report)
    p_report.set_defaults(format="json")

    p_sweep = sub.add_parser("sweep", help="sweep the squeezing parameter")
    add_common(p_sweep)
    p_sweep.add_argument("--figure", type=str, default=None, help="preset sweep: fig4/fig7")
    p_sweep.add_argument("--sweep-start", type=float, default=2.0)
    p_sweep.add_argument("--sweep-stop", type=float, default=8.0)
    p_sweep.add_argument("--sweep-count", type=int, default=121)

    # validate runs a fixed suite of checks, so it takes none of the common options but --out
    p_val = sub.add_parser("validate", help="run the built-in self checks")
    p_val.add_argument("--quick", action="store_true", help="reduced lattice, a few seconds")
    p_val.add_argument("--tol-quad", dest="tol_quad", type=float, default=1e-9, help="quadrature tolerance")
    add_out(p_val)

    return parser


_COMMANDS = {"grid": cmd_grid, "report": cmd_report, "sweep": cmd_sweep, "validate": cmd_validate}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParameterDomainError, UnsupportedBasisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
