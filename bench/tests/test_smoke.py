"""Smoke tests of the benchmark harness (about a minute).

    python3 -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _ops(workload, seed):
    stream = workloads.Stream(workload, seed)
    return [(op.kind, op.describe(), op.ref) for block in range(3) for op in stream.block(block)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert _ops(workload, 5) == _ops(workload, 5)
    assert _ops(workload, 5) != _ops(workload, 6)


def test_metric_names_match_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in list(run.END_TO_END) + list(run.PER_LAYER) + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_has_no_failed_ops(workload):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
                           "--seconds", "0.01"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_failed_check_is_counted_not_raised(tmp_path):
    from checks import Runner

    op = workloads.Stream("scalar", 1).block(1)[0]
    refs = run.load_refs("scalar")
    bad = json.loads(json.dumps(refs[op.ref]))
    bad["payload"]["visibility"]["V"] *= 1.0 + 1e-9
    bad["payload"]["correlation"]["R"] *= 1.0 + 1e-9
    runner = Runner(run.import_pairvis(), {op.ref: bad}, str(tmp_path))
    result = runner.run(op)
    assert not result.ok and result.error.startswith("check:")


def test_tracer_patches_every_binding():
    run.import_pairvis()
    from pairvis import corrected, correlation, density, radon, visibility
    from pairvis.state import SetupParams
    from tracer import Tracer

    originals = (density.density_at, visibility.single_particle_v_mp)
    tracer = Tracer()
    tracer.install()
    try:
        for module in (density, radon, corrected):
            assert module.density_at is not originals[0]
        assert correlation.single_particle_v_mp is not originals[1]
        tracer.begin_op()
        radon.radon_numeric(SetupParams(2.0, 1.0, 1.0, 0.3), radon.RadonAngle.k1(), [0.0, 1.0])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert (density.density_at, visibility.single_particle_v_mp) == originals
    assert radon.density_at is originals[0]
    names = [span[0] for span in tracer.spans]
    assert names[0] == "radon.radon_numeric" and "density.density_at" in names
    summary = tracer.summary()
    assert summary["density.integrate_1d_batch.nodes"] > 0
    assert 0 <= summary["radon.radon_numeric.self_s"] < summary["radon.radon_numeric.s"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scalar", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
