"""CLI: evaluation arithmetic, config parsing, subcommands end to end."""

import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from polsardr import dataio
from polsardr import hermitian as hm
from polsardr.classify import RULES
from polsardr.cli import (AccuracyReport, ComparisonTable, ExperimentConfig,
                          accuracy_report, main, run_pipeline)
from polsardr.errors import MissingBaseline, PolsarError, StabilityViolation
from polsardr.fields import ClassMap, CovarianceField, RoiSet

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ROOT / "perfbench" / "goldens.json"


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


@pytest.mark.parametrize("line", ["width: abc", "alpha: fast"])
def test_config_conversion_error_names_its_line(tmp_path, line):
    # a value that does not convert is located like every other config error
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"height: 64\n{line}\n")
    key, value = line.split(": ")
    with pytest.raises(ValueError, match=rf"exp\.cfg:2: {key}: .*'{value}'"):
        ExperimentConfig.from_file(cfg)


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("wdith: 64\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(cfg)


@pytest.mark.parametrize("value", ["ML", "XX"])
def test_config_rejects_unknown_distance(tmp_path, value):
    # checked when the config loads, before the simulate stage writes anything
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"distance: {value}\n")
    with pytest.raises(ValueError, match=f"unknown distance '{value}'"):
        ExperimentConfig.from_file(cfg)


def test_every_rule_is_accepted_by_classify_and_rules(tmp_path):
    # the rule grammar: a kind, or a distance kind + "+OW" for its weighted form
    assert set(RULES) == {"ML", "KL", "HD", "BD", "ED",
                          "KL+OW", "HD+OW", "BD+OW", "ED+OW"}
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"rules: {', '.join(RULES)}\n")
    assert ExperimentConfig.from_file(cfg).rules == RULES
    base, model = tmp_path / "img", tmp_path / "model.txt"
    assert main(["simulate", "--width", "96", "--height", "96", "--out", str(base)]) == 0
    assert main(["train", "--image", str(base), "--roi", f"{base}_roi.txt",
                 "--out", str(model)]) == 0
    for rule in RULES:
        out = tmp_path / f"map_{rule.replace('+', '_')}"
        assert main(["classify", "--image", str(base), "--model", str(model),
                     "--rule", rule, "--out", str(out)]) == 0, rule
        assert dataio.read_classmap(out).labels.min() >= 1


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


@pytest.mark.parametrize("args, code, message", [
    ([], 2, "one of the arguments --image --classmap is required"),
    (["--image", "IMG", "--classmap", "IMG"], 2,
     "--classmap: not allowed with argument --image"),
    (["--image", "IMG"], 1, "polsardr render: error: --image needs --model"),
])
def test_render_argument_checks(tmp_path, capsys, args, code, message):
    # render takes exactly one of --image and --classmap; --image needs --model
    base = str(tmp_path / "img")
    field = CovarianceField(np.tile(hm.to_packed(np.eye(3, dtype=complex)), (2, 2, 1)))
    dataio.write_covariance_image(field, base)
    out = str(tmp_path / "x.ppm")
    argv = ["render"] + [base if a == "IMG" else a for a in args] + ["--out", out]
    if code == 2:  # argparse usage errors exit
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == code
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


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


@pytest.mark.parametrize("looks_line, shared", [("", 7.0), ("looks: 5\n", 5.0)])
def test_pipeline_shared_looks_from_image_header(tmp_path, looks_line, shared):
    # the header's looks of an image: input wins unless the config sets looks:
    base = str(tmp_path / "img")
    assert main(["simulate", "--width", "96", "--height", "96", "--looks", "7",
                 "--seed", "3", "--out", base]) == 0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"image: {base}\nroi: {base}_roi.txt\nrules: KL\niterations: 1\n"
                   f"outdir: {tmp_path / 'run'}\n{looks_line}")
    result = run_pipeline(ExperimentConfig.from_file(cfg))
    assert result.protos.shared_looks == shared
    model = (tmp_path / "run" / "model.txt").read_text()
    assert f"shared_looks: {shared!r}" in model


def test_pipeline_fail_fast_stage_tag(tmp_path):
    config = ExperimentConfig(image=str(tmp_path / "missing"),
                              roi=str(tmp_path / "missing_roi.txt"),
                              outdir=str(tmp_path / "run"))
    with pytest.raises((PolsarError, OSError)):
        run_pipeline(config)
    # a package error is prefixed with the name of the stage that raised it
    base = str(tmp_path / "img")
    assert main(["simulate", "--width", "96", "--height", "96", "--out", base]) == 0
    (tmp_path / "far.txt").write_text("1 0 0 120 120\n2 0 0 3 3\n")
    config = ExperimentConfig(image=base, roi=str(tmp_path / "far.txt"),
                              outdir=str(tmp_path / "run"))
    with pytest.raises(PolsarError, match="^stage 'split' failed: .*exceeds 96x96"):
        run_pipeline(config)


@pytest.mark.parametrize("distance", ["KL", "HD"])
def test_pipeline_matches_the_step_by_step_cli(tmp_path, distance):
    # the pipeline runs the subcommands' stages, and `distance` picks the
    # weights' tables, the reaction and the rule of the DR map alike
    run, steps = tmp_path / "run", tmp_path / "steps"
    steps.mkdir()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"width: 100\nheight: 100\niterations: 3\ndistance: {distance}\n"
                   f"outdir: {run}\n")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    img, roi, model = steps / "image", steps / "roi.txt", steps / "model.txt"
    for argv in (
            ["simulate", "--width", 100, "--height", 100, "--out", img, "--roi", roi],
            ["train", "--image", img, "--roi", roi, "--out", model],
            ["weights", "--image", img, "--roi", roi, "--model", model,
             "--distance", distance],
            ["classify", "--image", img, "--model", model, "--rule", "KL+OW",
             "--out", steps / "classmap_KL_OW"],
            ["evolve", "--image", img, "--model", model, "--iters", 3,
             "--distance", distance, "--out", steps / "evolved"],
            ["classify", "--image", steps / "evolved", "--model", model,
             "--rule", f"{distance}+OW", "--out", steps / "classmap_DR"]):
        assert main([str(a) for a in argv]) == 0, argv[0]
    for name in ("image.dat", "roi.txt", "model.txt", "classmap_KL_OW.dat",
                 "evolved.dat", "classmap_DR.dat"):
        assert (run / name).read_bytes() == (steps / name).read_bytes(), name


def test_classify_computes_the_pd_mask_once(tmp_path, monkeypatch):
    # one PD test of the image per run: the read warning and the labels share it
    base, model = str(tmp_path / "img"), str(tmp_path / "model.txt")
    assert main(["simulate", "--width", "96", "--height", "96", "--out", base]) == 0
    assert main(["train", "--image", base, "--roi", f"{base}_roi.txt", "--out", model]) == 0
    tested = Counter()
    original = hm.is_positive_definite

    def counting(x):
        if np.ndim(x) == 3 and np.shape(x)[1:] == (96, 9):  # image rows, not prototypes
            tested.update(row.tobytes() for row in np.asarray(x))
        return original(x)

    monkeypatch.setattr(hm, "is_positive_definite", counting)
    assert main(["classify", "--image", base, "--model", model,
                 "--out", str(tmp_path / "map")]) == 0
    # the mask is tested in row blocks: together they test each of the 96
    # (distinct) rows, hence each of the 96 x 96 pixels, exactly once
    assert len(tested) == 96 and set(tested.values()) == {1}


def test_log_level_debug_tells_how_each_step_was_split(tmp_path, caplog):
    # classify, render and evolve log their row blocks and workers at DEBUG;
    # the default level (INFO) leaves that out
    base, model = str(tmp_path / "img"), str(tmp_path / "model.txt")
    assert main(["simulate", "--width", "96", "--height", "80", "--out", base]) == 0
    assert main(["train", "--image", base, "--roi", f"{base}_roi.txt", "--out", model]) == 0

    def split(step):
        return re.compile(rf"{step}: 80x96 pixels in [1-9]\d* row blocks on [1-9]\d* workers")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    classify = ["classify", "--image", base, "--model", model, "--out", str(tmp_path / "map")]
    for level in ("DEBUG", None):
        proc = subprocess.run([sys.executable, "-m", "polsardr.cli",
                               *(["--log-level", level] if level else []), *classify],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert bool(split("DEBUG polsardr.fields: classify_image").search(proc.stderr)) \
            == (level == "DEBUG")
    with caplog.at_level("DEBUG", logger="polsardr"):
        assert main(["render", "--image", base, "--model", model,
                     "--out", str(tmp_path / "img.ppm")]) == 0
        assert main(["evolve", "--image", base, "--model", model, "--iters", "1",
                     "--out", str(tmp_path / "evolved")]) == 0
    assert split("render_rgb").search(caplog.text)
    assert split("evolve").search(caplog.text)


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


def test_run_phantom_experiment_script(tmp_path):
    # the script runs in its own interpreter, as a user starts it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_phantom_experiment.py"),
         "--size", "100", "--iters", "3", "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["method", "class", "1", "class", "2", "class", "3",
                                "overall", "seconds"]
    assert [ln.split()[0] for ln in lines[1:7]] == ["ML", "ED", "HD", "KL", "KL+OW",
                                                    "DR+KL+OW+3"]
    assert f"artifacts in {tmp_path}" in proc.stdout
