"""CLI: evaluation arithmetic, config parsing, subcommands end to end."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from polsardr import dataio
from polsardr.cli import (AccuracyReport, ComparisonTable, ExperimentConfig,
                          accuracy_report, main, run_pipeline)
from polsardr.errors import MissingBaseline, PolsarError, StabilityViolation
from polsardr.fields import ClassMap, RoiSet

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"


def _report(method, accs):
    per_class = {c + 1: a for c, a in enumerate(accs)}
    return AccuracyReport(method=method, per_class=per_class,
                          overall=float(np.mean(accs)))


def test_improvement_arithmetic():
    # worst technique per class is the baseline; improvement is the recovered
    # share of the remaining headroom
    reports = [_report("A", [93.3]), _report("B", [98.5])]
    table = ComparisonTable(reports)
    assert table.baselines[1] == "A"
    assert table.improvements["A"][1] is None
    assert table.improvements["B"][1] == pytest.approx(100 * (98.5 - 93.3) / (100 - 93.3))


def test_improvement_undefined_when_baseline_is_perfect():
    table = ComparisonTable([_report("A", [100.0]), _report("B", [100.0])])
    assert table.improvements["A"][1] is None
    assert table.improvements["B"][1] is None


def test_improvements_need_two_runs():
    with pytest.raises(MissingBaseline):
        ComparisonTable([_report("A", [90.0])])


def test_accuracy_report_counts_sentinel_as_error():
    labels = np.array([[1, 1, 2, 2], [0, 1, 2, 1]], dtype=np.uint8)
    pred = ClassMap(labels)
    rois = RoiSet({1: [(0, 0, 1, 1)], 2: [(2, 0, 3, 1)]})
    split = dataio.split_roi(rois, seed=1)
    # make the whole ROI the test set to keep the arithmetic transparent
    split.test = {c: rois.pixels(c) for c in (1, 2)}
    rep = accuracy_report("X", pred, split)
    assert rep.per_class[1] == pytest.approx(75.0)   # one 0-label among four
    assert rep.per_class[2] == pytest.approx(75.0)   # one pixel labeled 1
    assert rep.overall == pytest.approx(75.0)


def test_config_parsing(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "width: 64\nheight: 48\nlooks: 4\nphantom_seed: 9\nsplit_seed: 3\n"
        "alpha: 0.4\ndt: 0.02\niterations: 12\nlambda: 2.0\ndistance: KL\n"
        "rules: ML, KL\noutdir: out\nuse_class_looks: true\n# comment\n")
    config = ExperimentConfig.from_file(cfg)
    assert (config.width, config.height) == (64, 48)
    assert config.lam == 2.0
    assert config.rules == ("ML", "KL")
    assert config.use_class_looks is True
    assert config.alpha == 0.4 and config.dt == 0.02


def test_config_checks_stability_at_load(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("alpha: 30.0\ndt: 0.01\n")
    with pytest.raises(StabilityViolation):
        ExperimentConfig.from_file(cfg)


@pytest.mark.parametrize("value, expected", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("FALSE", False), ("no", False), ("Off", False)])
def test_config_bool_spellings(tmp_path, value, expected):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"use_class_looks: {value}\n")
    assert ExperimentConfig.from_file(cfg).use_class_looks is expected


def test_config_rejects_unknown_bool(tmp_path):
    # a typo must not silently switch the option off
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("width: 64\nuse_class_looks: ture\n")
    with pytest.raises(ValueError, match=r"exp\.cfg:2: .*'ture'"):
        ExperimentConfig.from_file(cfg)


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("wdith: 64\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(cfg)


def test_subcommands_end_to_end(tmp_path, capsys):
    base = str(tmp_path / "img")
    model = str(tmp_path / "model.txt")
    assert main(["simulate", "--width", "96", "--height", "96", "--looks", "4",
                 "--seed", "11", "--out", base]) == 0
    assert main(["train", "--image", base, "--roi", f"{base}_roi.txt",
                 "--seed", "5", "--looks", "4", "--out", model]) == 0
    assert main(["weights", "--image", base, "--roi", f"{base}_roi.txt",
                 "--model", model, "--seed", "5",
                 "--trace", str(tmp_path / "trace.csv")]) == 0
    for rule, tag in (("KL", "kl"), ("KL+OW", "klow"), ("ML", "ml")):
        assert main(["classify", "--image", base, "--model", model,
                     "--rule", rule, "--out", str(tmp_path / f"map_{tag}")]) == 0
    assert main(["evolve", "--image", base, "--model", model, "--iters", "8",
                 "--metrics", str(tmp_path / "metrics.csv"),
                 "--out", str(tmp_path / "evolved")]) == 0
    assert main(["classify", "--image", str(tmp_path / "evolved"), "--model", model,
                 "--rule", "KL+OW", "--out", str(tmp_path / "map_dr")]) == 0
    assert main(["evaluate", "--roi", f"{base}_roi.txt", "--seed", "5",
                 "--pred", f"KL={tmp_path / 'map_kl'}",
                 "--pred", f"DR={tmp_path / 'map_dr'}",
                 "--improvements", "--out", str(tmp_path / "cmp.csv")]) == 0
    assert main(["render", "--image", base, "--model", model,
                 "--out", str(tmp_path / "img.ppm")]) == 0
    assert main(["render", "--classmap", str(tmp_path / "map_dr"), "--classes", "3",
                 "--out", str(tmp_path / "dr.ppm")]) == 0

    out = capsys.readouterr().out
    assert "optimized weights" in out
    for name in ("trace.csv", "metrics.csv", "cmp.csv", "img.ppm", "dr.ppm"):
        assert (tmp_path / name).exists(), name
    # the model file carries optimized weights and per-class corrected looks
    protos = dataio.read_model(model)
    assert abs(protos.weights.sum() - 1.0) < 1e-9
    assert protos.class_looks is not None
    # the evolved image classifies at least as well as the pointwise rule
    table = (tmp_path / "cmp.csv").read_text().splitlines()
    assert table[0].startswith("method,accuracy_1,improvement_1")


def test_cli_error_paths(tmp_path, capsys):
    assert main(["classify", "--image", str(tmp_path / "nope"), "--model",
                 str(tmp_path / "nomodel"), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    assert main(["evaluate", "--roi", str(tmp_path / "r.txt"), "--pred", "badformat",
                 ]) == 1


def test_pipeline_small(tmp_path):
    config = ExperimentConfig(width=96, height=96, looks=4, phantom_seed=2,
                              split_seed=5, iterations=8,
                              outdir=str(tmp_path / "run"), roi_max_side=21)
    result = run_pipeline(config)
    methods = [rep.method for rep in result.table.reports]
    assert methods == ["ML", "ED", "HD", "KL", "KL+OW", "DR+KL+OW+8"]
    for rep in result.table.reports:
        assert rep.seconds is not None
        assert 0 <= rep.overall <= 100
    for name in ("image.hdr", "image.dat", "truth.hdr", "roi.txt", "model.txt",
                 "weights_trace.csv", "metrics.csv", "report.txt", "report.csv",
                 "classmap_KL_OW.hdr", "classmap_DR.ppm", "evolved.ppm", "input.ppm"):
        assert (tmp_path / "run" / name).exists(), name
    text = (tmp_path / "run" / "report.txt").read_text()
    assert "DR+KL+OW+8" in text


def test_pipeline_fail_fast_stage_tag(tmp_path):
    config = ExperimentConfig(image=str(tmp_path / "missing"),
                              roi=str(tmp_path / "missing_roi.txt"),
                              outdir=str(tmp_path / "run"))
    with pytest.raises((PolsarError, OSError)):
        run_pipeline(config)


def test_pipeline_command_via_main(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("width: 96\nheight: 96\nphantom_seed: 4\niterations: 5\n"
                   f"outdir: {tmp_path / 'run'}\nroi_max_side: 19\n")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "DR+KL+OW+5" in out and "artifacts in" in out


def test_default_pipeline_timing_and_dominance(tmp_path):
    # default configuration (300x300, 50 iterations) finishes well within the
    # loose one-minute budget and the evolved classification dominates
    import time
    t0 = time.perf_counter()
    config = ExperimentConfig(outdir=str(tmp_path / "full"))
    result = run_pipeline(config)
    assert time.perf_counter() - t0 < 60.0
    by_method = {rep.method: rep for rep in result.table.reports}
    dr = by_method["DR+KL+OW+50"]
    ow = by_method["KL+OW"]
    for cls in (1, 2, 3):
        assert dr.per_class[cls] >= ow.per_class[cls]
    # the class maps and the table (without its seconds column) are the
    # benchmark's goldens for this configuration
    golden = json.loads(GOLDENS.read_text())["pipeline_default"]
    maps = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / "full").glob("classmap_*.dat"))}
    assert maps == golden["maps"]
    table = [ln.rsplit(None, 1)[0] for ln in result.table.format().splitlines()]
    assert table == golden["table"]
