"""Smoke self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

It lives outside the tier-1 ``testpaths``, so the main suite does not grow.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import polsardr  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7
NAMES = sorted(workloads.WORKLOADS)


def _tiny(name, wd):
    wl = workloads.WORKLOADS[name]
    wl.setup(wd, SEED, small=True)
    return wl, wl.run(wd)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_passes_its_checks(name, tmp_path):
    wl, result = _tiny(name, tmp_path)
    errors, accuracy = wl.verify(tmp_path, SEED, result, None)
    assert errors == []
    assert 50.0 < accuracy <= 100.0


@pytest.mark.parametrize("name", NAMES)
def test_doctored_class_map_is_flagged(name, tmp_path):
    wl, result = _tiny(name, tmp_path)
    golden = wl.outputs(tmp_path, result)
    assert wl.verify(tmp_path, SEED, result, golden)[0] == []
    target = next(p for p in tmp_path.rglob("*.dat") if p.name.endswith("map_KL.dat"))
    labels = np.fromfile(target, dtype=np.uint8)
    n_classes = int(labels.max())
    (labels % n_classes + 1).astype(np.uint8).tofile(target)
    errors = wl.verify(tmp_path, SEED, result, golden)[0]
    assert any("golden" in e for e in errors), errors
    assert any("reference KL rule" in e for e in errors), errors


def test_configured_distance_maps_pass_on_multiclass(tmp_path):
    """KL+OW and DR maps made with HD and the trained weights are not a failure."""
    wl, result = _tiny("pipeline_hd_multiclass", tmp_path)
    golden = wl.outputs(tmp_path, result)
    out = tmp_path / "out"
    model = workloads.read_model(out / "model.txt")
    changed = 0
    for tag, base in (("KL_OW", "image"), ("DR", "evolved")):
        field = workloads.read_field(out / base).reshape(-1, 3, 3)
        scores = workloads.reference_scores(field, model, "HD", True) * model["weights"]
        target = out / f"classmap_{tag}.dat"
        labels = (scores.argmin(axis=1) + 1).astype(np.uint8)
        changed += int(np.sum(labels != np.fromfile(target, dtype=np.uint8)))
        labels.tofile(target)
    assert changed > 0
    assert wl.verify(tmp_path, SEED, result, golden)[0] == []


def test_doctored_map_counts_as_a_failed_iteration(tmp_path):
    args = run.parse_args(["--workload", "classify_large", "--seed", str(SEED)])
    runner = run.Runner(args, workloads)
    wl = runner.wl
    wl.setup(tmp_path, SEED, small=True)

    class Doctored:
        def run(self, wd):
            wl.run(wd)
            (wd / "map_KL.dat").write_bytes(bytes(len((wd / "map_KL.dat").read_bytes())))

        def verify(self, *a):
            return wl.verify(*a)

    runner.iteration(tmp_path)
    runner.wl = Doctored()
    runner.iteration(tmp_path)
    assert runner.attempted == 2
    assert len(runner.failures) == 1


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    from polsardr import classify, cli, evolution
    original = classify.distance_stack
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert evolution.distance_stack is classify.distance_stack is not original
        assert cli.evolve is evolution.evolve
        assert polsardr.classify_image is classify.classify_image
        wl, _ = _tiny("pipeline_default", tmp_path)
        first = tracer.layer_metrics()
        tracer.reset()
        wl.run(tmp_path)
        second = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert classify.distance_stack is original is evolution.distance_stack
    for metric in spans.CALLS:
        assert first[metric] == second[metric]
    for metric in ("hermitian.inv3_calls", "evolution.reaction_step_calls",
                   "evolution.evolve_s", "classify.rule.KL_OW_s", "weights.iterations"):
        assert second[metric] > 0, metric
    assert set(second) == set(spans.PER_LAYER) - {"trace.overhead_s"}


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "pipeline_default", "--seed", "1", "--seconds", "5",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
