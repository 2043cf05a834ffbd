"""Regenerate the stored references in refs/ from the current pairvis sources.

    python3 bench/make_refs.py

Each pool entry (workloads.scalar_pool / grid_pool) is run once through
``pairvis.cli.main`` with JSON output and the parsed result is stored.  Report
entries store the full payload for ``b4_xi`` plus the ``corrected`` section for
``b4_pi4``; sweep entries store every row; grid entries store the header
fields, the shape, the peak value and sixteen sampled cells (corners plus
twelve seeded ones).  Run it only when a change is meant to alter the
outputs, or after changing the pools.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from workloads import POOL_SEED, grid_argv, grid_pool, report_argv, scalar_pool, sweep_argv

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from pairvis import cli  # noqa: E402

SAMPLED_CELLS = 12


def _run_json(argv: list, tmp: str):
    out = str(Path(tmp) / "out.json")
    code = cli.main(argv + ["--out", out])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def scalar_refs(tmp: str) -> dict:
    entries = {}
    for slot, pool in scalar_pool().items():
        for i, entry in enumerate(pool):
            if slot == "preset":
                ref = {"rows": _run_json(sweep_argv(entry, "json", "fig4"), tmp)}
            elif slot == "short":
                ref = {"rows": _run_json(sweep_argv(entry, "json"), tmp)}
            else:
                ref = {"payload": _run_json(report_argv(entry, "json", "b4_xi"), tmp),
                       "corrected_b4_pi4": _run_json(report_argv(entry, "json", "b4_pi4"), tmp)["corrected"]}
            entries[f"{slot}/{i}"] = {"input": entry, **ref}
    return entries


def grid_refs(tmp: str) -> dict:
    entries = {}
    for slot, pool in grid_pool().items():
        rng = random.Random(f"pool/{POOL_SEED}/{slot}/cells")
        for i, entry in enumerate(pool):
            got = _run_json(grid_argv(entry, "json"), tmp)
            g, n = got["grid"], entry["n"]
            values = np.asarray(got["values"])
            u = np.linspace(g["u_min"], g["u_max"], g["n_u"])
            v = np.linspace(g["v_min"], g["v_max"], g["n_v"])
            picks = [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)]
            picks += [(rng.randrange(n), rng.randrange(n)) for _ in range(SAMPLED_CELLS)]
            entries[f"{slot}/{i}"] = {
                "input": entry, "n": n, "grid": g, "basis": got["basis"], "params": got["params"],
                "peak": float(values.max()),
                "cells": [[r, c, float(u[r]), float(v[c]), float(values[r, c])] for r, c in picks],
            }
    return entries


def write(name: str, entries: dict) -> None:
    """One entry per line, so a regenerated file diffs by entry."""
    meta = {"generated_by": "python3 bench/make_refs.py", "pool_seed": POOL_SEED}
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in entries.items()]
    with open(BENCH_DIR / "refs" / f"{name}.json", "w", encoding="utf-8") as handle:
        handle.write('{"meta": ' + json.dumps(meta) + ',\n"entries": {\n' + ",\n".join(lines) + "\n}}\n")


def main() -> int:
    (BENCH_DIR / "refs").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in (("scalar", scalar_refs), ("grid", grid_refs)):
            write(name, make(tmp))
            print(f"wrote refs/{name}.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
