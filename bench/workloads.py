"""Seeded operation streams for the three benchmark workloads.

A workload is an endless sequence of *blocks*.  Every block has the same
composition (the same slots, each with its cost class fixed), so throughput
and latency percentiles depend on how many whole blocks a run completes, not
on which seed chose the parameters.  The seed picks, per slot and block, the
pool entry or angle (through a randomly shifted golden-ratio sequence, so a
run visits a slot's pool evenly) and shuffles the order inside each block.

``scalar`` and ``grid`` draw their parameter points from pools stored with
reference outputs in ``refs/`` (see ``make_refs.py``); ``oracle`` runs on the
fixed lattice and is checked against closed forms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("scalar", "grid", "oracle")

# Pools behind the stored references.  Changing anything here changes the
# inputs, so the references must be regenerated (make_refs.py).
POOL_SEED = 201212338
POOL_SIZE = 8
NORMAL_STRATA = 16  # report slots with a in [2, 60], one per a-stratum
DEEP_STRATA = 4  # report slots with a*(h1^2+h2^2) in [500, 1e4], log strata
DEEP_SCALE = (500.0, 1.0e4)
SHORT_SWEEP_COUNT = 16
GRID_SLOTS = (
    # (slot id, n, format, kind); kind "basis" = plain density in a seeded
    # basis, "kk" = plain density in the kk basis.
    # CSV stops at 768^2: one 1024^2 CSV takes ~5 s and would leave a 25 s run
    # with about two blocks.  The 768^2 CSV ops set the run's peak RSS (above
    # the 1024^2 JSON), so peak_rss_mb judges the CSV writer.  They are plain
    # densities, whose text takes the same memory in every basis; a corrected
    # preset (fig3) would take more, and the peak would depend on the seed.
    # The slots' costs are spread so that each percentile falls inside one
    # cost class, not on the edge between two: op_p50_ms inside the three
    # 512^2 JSON ops (three 256^2 JSON ops below them, four of 0.7 s or more
    # above), op_p90_ms inside the two 768^2 CSV ops (1.5-2 s; the 1024^2 JSON
    # takes 1.1 s).  The 512^2 JSON basis is fixed, since one takes 0.25 s in
    # kk and 0.45 s in kx, and op_p50_ms would otherwise follow which bases
    # the seed visits.
    ("g256j", 256, "json", "basis"),
    ("g256jp", 256, "json", "preset"),
    ("g256jc", 256, "json", "corrected"),
    ("g512j1", 512, "json", "kk"),
    ("g512j2", 512, "json", "kk"),
    ("g512j3", 512, "json", "kk"),
    ("g512cc", 512, "csv", "corrected"),
    ("g768c1", 768, "csv", "basis"),
    ("g768c2", 768, "csv", "basis"),
    ("g1024j", 1024, "json", "basis"),
)
GRID_PRESETS = ("fig2", "fig3", "fig5", "fig6")
BASES = ("xx", "kk", "kx", "xk")
CONVENTIONS = ("b4_xi", "b4_pi4")

# The oracle lattice (a subset of the acceptance lattice) and its op kinds.
LATTICE_A = (2.0, 5.0, 10.0, 30.0)
LATTICE_H = ((1.0, 1.0), (1.0, 2.0))
RADON_ANGLES = ("k1", "k2", "k+", "k-", "s+", "s-")
RADON_POINTS = 51
MOMENTS = (("xx", 1, 1), ("kk", 2, 0))  # (basis, i, j): weight u^i v^j

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Op:
    """One operation: a CLI invocation (``argv``) or an oracle call (``meta``)."""

    slot: str
    kind: str  # report | sweep | grid | mass | radon | moment | validate
    argv: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)  # format/convention, or the oracle call
    ref: str = ""  # key of the stored reference, if any
    points: int = 1  # parameter points evaluated

    def describe(self) -> str:
        return " ".join(self.argv) if self.argv else f"{self.kind} {self.meta}"


def _pool_rng(name: str) -> random.Random:
    return random.Random(f"pool/{POOL_SEED}/{name}")


def _r6(x: float) -> float:
    return round(x, 6)


def scalar_pool() -> dict:
    """Parameter points behind the ``scalar`` references, keyed by slot."""
    pool = {}
    for k in range(NORMAL_STRATA):
        rng = _pool_rng(f"normal{k}")
        lo = 2.0 + 58.0 * k / NORMAL_STRATA
        hi = 2.0 + 58.0 * (k + 1) / NORMAL_STRATA
        pool[f"n{k}"] = [
            {"a": _r6(rng.uniform(lo, hi)), "h1": _r6(rng.uniform(1, 2)),
             "h2": _r6(rng.uniform(1, 2)), "xi": _r6(rng.uniform(0, math.pi))}
            for _ in range(POOL_SIZE)
        ]
    lo_log, hi_log = math.log(DEEP_SCALE[0]), math.log(DEEP_SCALE[1])
    for k in range(DEEP_STRATA):
        rng = _pool_rng(f"deep{k}")
        entries = []
        for _ in range(POOL_SIZE):
            scale = math.exp(rng.uniform(lo_log + (hi_log - lo_log) * k / DEEP_STRATA,
                                         lo_log + (hi_log - lo_log) * (k + 1) / DEEP_STRATA))
            h1, h2 = _r6(rng.uniform(1, 2)), _r6(rng.uniform(1, 2))
            a = math.floor(scale / (h1 * h1 + h2 * h2) * 1e6) / 1e6  # keeps a(h1^2+h2^2) <= 1e4
            entries.append({"a": a, "h1": h1, "h2": h2, "xi": _r6(rng.uniform(0, math.pi))})
        pool[f"d{k}"] = entries
    rng = _pool_rng("preset")
    pool["preset"] = [{"xi": _r6(rng.uniform(0, math.pi))} for _ in range(POOL_SIZE)]
    rng = _pool_rng("short")
    short = []
    for _ in range(POOL_SIZE):
        start = _r6(rng.uniform(2, 30))
        short.append({"h1": _r6(rng.uniform(1, 2)), "h2": _r6(rng.uniform(1, 2)), "start": start,
                      "stop": _r6(start + rng.uniform(5, 30)), "count": SHORT_SWEEP_COUNT,
                      "xi": _r6(rng.uniform(0, math.pi))})
    pool["short"] = short
    return pool


def grid_pool() -> dict:
    """Grid settings behind the ``grid`` references, keyed by slot."""
    pool = {}
    for slot, n, _fmt, kind in GRID_SLOTS:
        rng = _pool_rng(slot)
        entries = []
        for _ in range(POOL_SIZE):
            entry = {"n": n, "xi": _r6(rng.uniform(0, math.pi))}
            if kind == "preset":
                entry["figure"] = rng.choice(GRID_PRESETS)
            else:
                entry.update(a=_r6(rng.uniform(2, 60)), h1=_r6(rng.uniform(1, 2)), h2=_r6(rng.uniform(1, 2)))
                if kind == "corrected":
                    entry.update(basis="kk", convention=rng.choice(CONVENTIONS))
                elif kind == "kk":
                    entry["basis"] = "kk"
                else:
                    entry["basis"] = rng.choice(BASES)
            entries.append(entry)
        pool[slot] = entries
    return pool


def report_argv(entry: dict, fmt: str, convention: str) -> list:
    return ["report", "--a", repr(entry["a"]), "--h1", repr(entry["h1"]), "--h2", repr(entry["h2"]),
            "--xi", repr(entry["xi"]), "--format", fmt, "--convention", convention]


def sweep_argv(entry: dict, fmt: str, figure: str | None = None) -> list:
    if figure is not None:
        return ["sweep", "--figure", figure, "--xi", repr(entry["xi"]), "--format", fmt]
    return ["sweep", "--h1", repr(entry["h1"]), "--h2", repr(entry["h2"]), "--xi", repr(entry["xi"]),
            "--sweep-start", repr(entry["start"]), "--sweep-stop", repr(entry["stop"]),
            "--sweep-count", str(entry["count"]), "--format", fmt]


def grid_argv(entry: dict, fmt: str) -> list:
    n = entry["n"]
    argv = ["grid", "--xi", repr(entry["xi"]), "--grid", f"{n}x{n}", "--format", fmt]
    if "figure" in entry:
        return argv + ["--figure", entry["figure"]]
    argv += ["--a", repr(entry["a"]), "--h1", repr(entry["h1"]), "--h2", repr(entry["h2"]),
             "--basis", entry["basis"]]
    if "convention" in entry:
        argv += ["--corrected", "--convention", entry["convention"]]
    return argv


class Stream:
    """The seeded block sequence of one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._pool = scalar_pool() if workload == "scalar" else grid_pool() if workload == "grid" else None

    def _pick(self, slot: str, block: int) -> float:
        """Seeded point in [0, 1) for ``slot`` in ``block``; evenly spread over blocks."""
        shift = random.Random(f"{self.workload}/{self.seed}/{slot}").random()
        return (shift + block * _GOLDEN) % 1.0

    def _entry(self, slot: str, block: int) -> tuple[dict, str]:
        index = int(self._pick(slot, block) * POOL_SIZE)
        return self._pool[slot][index], f"{slot}/{index}"

    def block(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.workload}/{self.seed}/block{index}")
        ops = getattr(self, f"_{self.workload}_block")(index, rng)
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        """The ops of block 0 that run untimed, so caches and lazy set-up are warm.

        Timing starts at block 1.  ``scalar`` warms with all of block 0 so that
        mpmath's constants exist at the deepest precision; ``grid`` and
        ``oracle`` warm with their cheapest slots.
        """
        ops = self.block(0)
        if self.workload == "grid":
            return [op for op in ops if op.slot.startswith("g256")]
        if self.workload == "oracle":
            return [op for op in ops if op.meta["a"] == LATTICE_A[0]]
        return ops

    def _scalar_block(self, b: int, rng: random.Random) -> list[Op]:
        ops = []
        for slot in [f"n{k}" for k in range(NORMAL_STRATA)] + [f"d{k}" for k in range(DEEP_STRATA)]:
            entry, ref = self._entry(slot, b)
            meta = {"format": rng.choice(("json", "csv")), "convention": rng.choice(CONVENTIONS)}
            ops.append(Op(slot, "report", report_argv(entry, meta["format"], meta["convention"]), meta, ref))
        entry, ref = self._entry("preset", b)
        meta = {"format": rng.choice(("json", "csv"))}
        figure = "fig4" if b % 2 == 0 else "fig7"  # the two presets share their parameters
        ops.append(Op("preset", "sweep", sweep_argv(entry, meta["format"], figure), meta, ref, points=121))
        entry, ref = self._entry("short", b)
        meta = {"format": rng.choice(("json", "csv"))}
        ops.append(Op("short", "sweep", sweep_argv(entry, meta["format"]), meta, ref, points=entry["count"]))
        return ops

    def _grid_block(self, b: int, rng: random.Random) -> list[Op]:
        ops = []
        for slot, _n, fmt, _kind in GRID_SLOTS:
            entry, ref = self._entry(slot, b)
            ops.append(Op(slot, "grid", grid_argv(entry, fmt), {"format": fmt}, ref))
        return ops

    def _oracle_block(self, b: int, rng: random.Random) -> list[Op]:
        ops = []
        for a in LATTICE_A:
            for h1, h2 in LATTICE_H:
                point = f"a{a:g}h{h1:g}{h2:g}"
                kinds = [("mass", {"basis": basis}) for basis in BASES]
                kinds += [("radon", {"angle": angle}) for angle in RADON_ANGLES]
                kinds += [("moment", {"basis": basis, "i": i, "j": j}) for basis, i, j in MOMENTS]
                for kind, meta in kinds:
                    slot = f"{point}/{kind}/{'/'.join(map(str, meta.values()))}"
                    meta.update(a=a, h1=h1, h2=h2, xi=self._xi(slot, b))
                    ops.append(Op(slot, kind, meta=meta))
        return ops

    def _xi(self, slot: str, block: int) -> float:
        return math.pi * self._pick(slot, block)


def validate_op() -> Op:
    return Op("validate", "validate", ["validate", "--quick"])
