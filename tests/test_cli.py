"""CLI: evaluation arithmetic, config parsing, subcommands end to end."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polsardr import dataio, fields
from polsardr import hermitian as hm
from polsardr.classify import RULES, PrototypeSet, classify_image
from polsardr.cli import (AccuracyReport, ComparisonTable, ExperimentConfig, accuracy_report,
                          build_parser, fit_weights, main, read_split, run_pipeline,
                          train_prototypes)
from polsardr.errors import PolsarError, StabilityViolation
from polsardr.fields import ClassMap, CovarianceField, RoiSet
from polsardr.phantom import PhantomSpec, generate_phantom, inscribed_rois

import oracle
from conftest import all_rows, traced_peak

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = ROOT / "perfbench" / "goldens.json"


def _src_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))


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


def test_a_single_report_is_its_own_baseline(tmp_path):
    # no other run to improve on: every improvement cell is empty, and a class
    # below 100 % is tagged as the worst method's is
    table = ComparisonTable([_report("A", [100.0, 90.0])])
    assert table.improvements == {"A": {1: None, 2: None}}
    assert table.format().splitlines()[1].split() == ["A", "100.0", "(-)", "90.0",
                                                      "(baseline)", "95.00", "-"]
    table.write_csv(tmp_path / "table.csv")
    assert (tmp_path / "table.csv").read_text().splitlines() == [
        "method,accuracy_1,improvement_1,accuracy_2,improvement_2,overall,seconds",
        "A,100.000000,,90.000000,,95.000000,"]


_ACCURACIES = st.sampled_from([0.0, 12.5, 50.0, 87.5, 100.0]) | st.floats(0.0, 100.0)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(_ACCURACIES, min_size=n, max_size=n), min_size=1, max_size=5)))
def test_format_and_csv_carry_the_same_cells(tmp_path_factory, accs):
    # drawn from a few values, classes tie and reach 100 %; each cell of the
    # text and the CSV is checked against the improvement's definition
    reports = [_report(f"m{i}", a) for i, a in enumerate(accs)]
    table = ComparisonTable(reports)
    path = tmp_path_factory.mktemp("table") / "table.csv"
    table.write_csv(path)
    csv_rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    text_rows = [re.split(r"\s{2,}", line) for line in table.format().splitlines()[1:]]
    assert len(csv_rows) == len(text_rows) == len(reports)
    for rep, text, row in zip(reports, text_rows, csv_rows):
        assert text[0] == row[0] == rep.method
        for c, acc in rep.per_class.items():
            worst = min(r.per_class[c] for r in reports)
            imp = None if acc == worst or worst >= 100 else 100 * (acc - worst) / (100 - worst)
            baseline = rep.method == next(r.method for r in reports if r.per_class[c] == worst)
            assert table.improvements[rep.method][c] == imp
            assert (table.baselines[c] == rep.method) == baseline
            tag = (f"{imp:.1f}%" if imp is not None
                   else "baseline" if baseline and worst < 100 else "-")
            assert text[c] == f"{acc:.1f} ({tag})"
            assert row[2 * c - 1:2 * c + 1] == [f"{acc:.6f}",
                                                "" if imp is None else f"{imp:.6f}"]


def test_a_repeated_method_name_is_refused(tmp_path):
    # improvements and baselines are keyed by method name, so a repeated name
    # would take another row's cells
    with pytest.raises(ValueError, match=r"repeated method names \['A'\]"):
        ComparisonTable([_report("A", [90.0]), _report("B", [80.0]), _report("A", [70.0])])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("rules: KL, ML, KL\n")
    with pytest.raises(ValueError, match=r"repeated rules \['KL'\]"):
        ExperimentConfig.from_file(cfg)


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


@pytest.mark.parametrize("line", ["alpha: nan", "dt: nan", "alpha: 0\ndt: inf",
                                  "lambda: -1", "lambda: 0", "lambda: nan", "lambda: inf"])
def test_config_refuses_bad_evolution_and_lambda_values_up_front(tmp_path, capsys, line):
    # refused when the config loads, before the simulate stage writes anything;
    # `alpha: nan` used to run every stage and fail at evolve, `lambda: -1` at weights
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{line}\noutdir: {tmp_path / 'run'}\n")
    with pytest.raises(ValueError, match="finite"):
        ExperimentConfig.from_file(cfg)
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, flag, message", [
    ("weights", ["--lambda", "nan"], "lambda must be finite and > 0, got nan"),
    ("weights", ["--lambda", "0"], "lambda must be finite and > 0, got 0.0"),
    ("evolve", ["--alpha", "nan"], "alpha must be finite and >= 0, got nan"),
    ("evolve", ["--dt", "inf"], "dt must be finite and > 0, got inf"),
], ids=["weights lambda nan", "weights lambda 0", "evolve alpha nan", "evolve dt inf"])
def test_subcommands_refuse_bad_numeric_flags_before_reading(tmp_path, capsys, command,
                                                             flag, message):
    # the flag is checked first, so a missing image is never opened: the
    # commands used to fail on the image, or on a real one load it first
    missing = str(tmp_path / "nope")
    argv = {"weights": ["--roi", missing, "--model", missing],
            "evolve": ["--model", missing, "--out", str(tmp_path / "out")]}[command]
    assert main([command, "--image", missing] + argv + flag) == 1
    err = capsys.readouterr().err
    assert f"polsardr {command}: error: {message}" in err
    assert "nope" not in err


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


@pytest.mark.parametrize("key", ["width", "height", "looks", "phantom_seed"])
def test_config_refuses_a_phantom_key_next_to_phantom_config(tmp_path, capsys, key):
    # the phantom config sets the whole phantom; a key beside it used to be
    # dropped without a word, so both sides are named before anything runs
    phantom = tmp_path / "phantom.cfg"
    phantom.write_text("width: 96\nheight: 96\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"phantom_config: {phantom}\n{key}: 120\noutdir: {tmp_path / 'run'}\n")
    with pytest.raises(ValueError, match=rf"{key} and phantom_config {re.escape(str(phantom))}"):
        ExperimentConfig.from_file(cfg)
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert f"{key} and phantom_config" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key", ["width", "height", "phantom_seed", "phantom_config"])
def test_config_refuses_a_phantom_key_next_to_image(tmp_path, capsys, key):
    # `image:` replaces the phantom, and run_pipeline used to ignore these keys
    # beside it without a word; `looks:` stays, as it sets the shared looks
    base = tmp_path / "img"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"image: {base}\nroi: {base}_roi.txt\n{key}: 120\nlooks: 5\n"
                   f"outdir: {tmp_path / 'run'}\n")
    with pytest.raises(ValueError, match=rf"^{key} and image {re.escape(str(base))} "):
        ExperimentConfig.from_file(cfg)
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert f"{key} and image {base}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    cfg.write_text(f"image: {base}\nroi: {base}_roi.txt\nlooks: 5\n")
    assert ExperimentConfig.from_file(cfg).looks == 5


@pytest.mark.parametrize("flag", ["--width", "--height", "--looks", "--seed"])
def test_simulate_refuses_a_flag_next_to_config(tmp_path, capsys, flag):
    phantom = tmp_path / "phantom.cfg"
    phantom.write_text("width: 96\nheight: 96\n")
    out = tmp_path / "img"
    assert main(["simulate", "--config", str(phantom), flag, "120", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{flag} and --config {phantom}" in err
    assert not out.with_suffix(".hdr").exists()
    # the config alone still sets the phantom (flags alone: the end-to-end tests)
    assert main(["simulate", "--config", str(phantom), "--out", str(out)]) == 0
    assert all_rows(dataio.read_covariance_image(out)).shape == (96, 96, 9)


@pytest.mark.parametrize("value", ["ML", "XX"])
def test_config_rejects_unknown_distance(tmp_path, value):
    # checked when the config loads, before the simulate stage writes anything
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"distance: {value}\n")
    with pytest.raises(ValueError, match=f"unknown distance '{value}'"):
        ExperimentConfig.from_file(cfg)


def test_simulate_names_the_depth_a_thin_region_has_and_needs(tmp_path, capsys):
    # at 40x40 the middle class is 4 erosions deep; an 8 px ROI at margin 3 needs 8
    assert main(["simulate", "--width", "40", "--height", "40",
                 "--out", str(tmp_path / "img")]) == 1
    err = capsys.readouterr().err
    assert "class 2 region too thin for a 8px ROI at margin 3" in err
    assert "it is 4 px deep, and the ROI needs 8" in err


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
                 "--out", str(tmp_path / "cmp.csv")]) == 0
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


def _evaluate_inputs(tmp_path):
    """A 12x10 truth map (class 1 left, class 2 right), a map with one wrong
    ROI pixel and their ROI file."""
    labels = np.ones((10, 12), dtype=np.uint8)
    labels[:, 6:] = 2
    dataio.write_classmap(ClassMap(labels), tmp_path / "truth")
    labels[0, 7] = 1
    dataio.write_classmap(ClassMap(labels), tmp_path / "map")
    (tmp_path / "roi.txt").write_text("1 0 0 3 3\n2 7 0 9 3\n")


@pytest.mark.parametrize("preds", [["T=truth"], ["T=truth", "M=map"]])
def test_evaluate_prints_and_writes_the_comparison_table(tmp_path, capsys, monkeypatch,
                                                         preds):
    # one report or several: the table on stdout, its CSV in --out
    _evaluate_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = ["evaluate", "--roi", "roi.txt", "--out", "cmp.csv"]
    for pred in preds:
        argv += ["--pred", pred]
    assert main(argv) == 0
    methods = [pred.split("=")[0] for pred in preds]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["method", "class", "1", "class", "2", "overall", "seconds"]
    assert [ln.split()[0] for ln in lines[1:]] == methods
    csv_lines = (tmp_path / "cmp.csv").read_text().splitlines()
    assert csv_lines[0] == ("method,accuracy_1,improvement_1,accuracy_2,improvement_2,"
                            "overall,seconds")
    assert [ln.split(",")[0] for ln in csv_lines[1:]] == methods


@pytest.mark.parametrize("roi, preds, message", [
    ("1 0 0 3 3\n2 7 0 20 3\n", ["T=truth"], "roi.txt:2: rectangle exceeds 12x10"),
    ("1 0 0 3 3\n2 7 0 9 3\n", ["T=truth", "W=wide"],
     "class map wide is 14x10, but truth is 12x10"),
    ("1 0 0 3 3\n2 7 0 9 3\n", ["A=map", "A=truth"], "repeated method names ['A']"),
])
def test_evaluate_refuses_what_it_cannot_score(tmp_path, capsys, monkeypatch,
                                               roi, preds, message):
    # the ROI must fit the maps it scores, the maps must share one size, and
    # the method names, which key the table's cells, must differ
    _evaluate_inputs(tmp_path)
    dataio.write_classmap(ClassMap(np.ones((10, 14), dtype=np.uint8)), tmp_path / "wide")
    (tmp_path / "roi.txt").write_text(roi)
    monkeypatch.chdir(tmp_path)
    argv = ["evaluate", "--roi", "roi.txt"]
    for pred in preds:
        argv += ["--pred", pred]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("polsardr evaluate: error: ") and message in err


@pytest.mark.parametrize("looks, code, message", [
    (None, 0, "trained 3 classes (shared looks 4.0,"),
    (0.0, 1, "polsardr train: error: looks must be finite and >= 3"),
])
def test_train_takes_the_shared_looks_from_the_header(tmp_path, capsys, looks, code, message):
    # a header without looks gives the phantom's 4; a header's 0 is refused,
    # not replaced
    field, truth = generate_phantom(PhantomSpec(width=96, height=96))
    dataio.write_covariance_image(CovarianceField(all_rows(field), looks=looks), tmp_path / "img")
    dataio.write_roi(inscribed_rois(truth), tmp_path / "roi.txt")
    assert main(["train", "--image", str(tmp_path / "img"), "--roi", str(tmp_path / "roi.txt"),
                 "--out", str(tmp_path / "model.txt")]) == code
    captured = capsys.readouterr()
    assert message in (captured.out if code == 0 else captured.err)


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
    (["--classmap", "MAP", "--classes", "1"], 1,
     "polsardr render: error: n_classes = 1 must be >= 1 and >= the largest label 2"),
    (["--classmap", "MAP", "--classes", "0"], 1,
     "polsardr render: error: n_classes = 0 must be >= 1 and >= the largest label 2"),
])
def test_render_argument_checks(tmp_path, capsys, args, code, message):
    # render takes exactly one of --image and --classmap; --image needs --model,
    # and --classes a color for every label of the map
    base, cmap = str(tmp_path / "img"), str(tmp_path / "map")
    field = CovarianceField(np.tile(oracle.pack(np.eye(3, dtype=complex)), (2, 2, 1)))
    dataio.write_covariance_image(field, base)
    dataio.write_classmap(ClassMap(np.array([[0, 1], [2, 1]], dtype=np.uint8)), cmap)
    out = str(tmp_path / "x.ppm")
    argv = ["render"] + [{"IMG": base, "MAP": cmap}.get(a, a) for a in args] + ["--out", out]
    if code == 2:  # argparse usage errors exit
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == code
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["train", "weights", "evaluate", "pipeline"])
def test_a_one_pixel_roi_class_is_an_error_for_every_command_that_splits(
        tmp_path, capsys, command):
    # one ROI pixel leaves the class no test pixel, so its accuracy is undefined
    base, roi, model = tmp_path / "img", tmp_path / "roi.txt", tmp_path / "model.txt"
    field, truth = generate_phantom(PhantomSpec(width=12, height=10))
    dataio.write_covariance_image(field, base)
    dataio.write_classmap(truth, tmp_path / "truth")
    dataio.write_model(PrototypeSet(sigmas=PhantomSpec().sigmas[:2], shared_looks=4.0), model)
    roi.write_text("1 0 0 3 3\n2 5 5 5 5\n")
    (tmp_path / "exp.cfg").write_text(f"image: {base}\nroi: {roi}\nrules: KL\n"
                                      f"iterations: 1\noutdir: {tmp_path / 'out'}\n")
    argv = {"train": ["--image", base, "--roi", roi, "--out", tmp_path / "m2.txt"],
            "weights": ["--image", base, "--roi", roi, "--model", model],
            "evaluate": ["--roi", roi, "--pred", f"T={tmp_path / 'truth'}"],
            "pipeline": ["--config", tmp_path / "exp.cfg"]}[command]
    assert main([command] + [str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"polsardr {command}: error: " in err
    assert "classes [2] have fewer than 2 ROI pixels" in err


def test_pipeline_small(tmp_path):
    config = ExperimentConfig(width=96, height=96, looks=4, phantom_seed=2,
                              split_seed=5, iterations=8,
                              outdir=str(tmp_path / "run"))
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


def test_classify_reads_and_tests_each_pixel_once(tmp_path, monkeypatch):
    # one pass per command: opening the image reads no pixel, and each row
    # block is read once; classify and render evaluate each pixel's determinant
    # once, for the PD test and, whatever the rule, for the scores
    base, model = str(tmp_path / "img"), str(tmp_path / "model.txt")
    assert main(["simulate", "--width", "96", "--height", "96", "--out", base]) == 0
    assert main(["train", "--image", base, "--roi", f"{base}_roi.txt", "--out", model]) == 0
    pixels = all_rows(dataio.read_covariance_image(base)).reshape(-1, 9)
    tested, read = Counter(), Counter()
    original_det, original_read = hm.det_packed, dataio._read_rows

    def counting_det(x):  # image blocks arrive as (N, 9) or (rows, 96, 9)
        tested.update(pixel.tobytes() for pixel in np.reshape(x, (-1, 9)))
        return original_det(x)

    def counting_read(path, dtype, width, r0, r1):
        read.update(range(r0, r1))
        return original_read(path, dtype, width, r0, r1)

    monkeypatch.setattr(hm, "det_packed", counting_det)
    monkeypatch.setattr(dataio, "_read_rows", counting_read)
    dataio.read_covariance_image(base)
    assert not read and not tested
    commands = [["classify", "--image", base, "--model", model, "--rule", rule,
                 "--out", str(tmp_path / "map")] for rule in RULES]
    commands.append(["render", "--image", base, "--model", model,
                     "--out", str(tmp_path / "img.ppm")])
    for argv in commands:
        tested.clear()
        read.clear()
        assert main(argv) == 0
        assert read == Counter(range(96)), argv[0]  # each of the 96 rows, once
        # each of the 96 x 96 (distinct) pixels has its determinant evaluated once
        assert all(tested[pixel.tobytes()] == 1 for pixel in pixels), argv
    read.clear()  # evolve reads each band once, and PD-tests it as it fills the planes
    assert main(["evolve", "--image", base, "--model", model, "--iters", "1",
                 "--out", str(tmp_path / "evolved")]) == 0
    assert read == Counter(range(96))


def test_evolve_and_weights_evaluate_each_determinant_once(tmp_path, monkeypatch):
    # evolve's entry check hands its determinants to the first assignment, and
    # the training set's PD test hands its own to the weights' distance tables
    base, model = str(tmp_path / "img"), str(tmp_path / "model.txt")
    trace = tmp_path / "trace.csv"
    assert main(["simulate", "--width", "96", "--height", "96", "--out", base]) == 0
    assert main(["train", "--image", base, "--roi", f"{base}_roi.txt", "--out", model]) == 0
    field = dataio.read_covariance_image(base)
    pixels = all_rows(field).reshape(-1, 9)
    split = read_split(f"{base}_roi.txt", 42, field)
    train = np.concatenate([all_rows(field)[tuple(split.train[c].T)] for c in split.classes])
    tested, original_det = Counter(), hm.det_packed

    def counting_det(x):
        tested.update(pixel.tobytes() for pixel in np.reshape(x, (-1, 9)))
        return original_det(x)

    monkeypatch.setattr(hm, "det_packed", counting_det)
    assert main(["evolve", "--image", base, "--model", model, "--iters", "1",
                 "--out", str(tmp_path / "evolved")]) == 0
    # each of the 96 x 96 (distinct) pixels of the initial state, once
    assert all(tested[pixel.tobytes()] == 1 for pixel in pixels)
    tested.clear()
    assert main(["weights", "--image", base, "--roi", f"{base}_roi.txt", "--model", model,
                 "--trace", str(trace)]) == 0
    assert len(train) == 1251 and all(tested[pixel.tobytes()] == 1 for pixel in train)
    # the same bytes as the pinned 96 x 96 pipeline (tests/digests.json)
    pinned = json.loads((ROOT / "tests" / "digests.json").read_text())
    for path, name in [(model, "model.txt"), (trace, "weights_trace.csv")]:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert digest == pinned[f"shared/{name}"], name


def test_train_and_weights_read_only_the_rows_of_the_train_pixels(tmp_path):
    # they gather a few thousand ROI pixels through ``rows``, not the whole
    # image.  The model equals the one of the image held in memory.
    base, roi = tmp_path / "img", tmp_path / "img_roi.txt"
    assert main(["simulate", "--width", "120", "--height", "90", "--out", str(base)]) == 0
    read = dataio.read_covariance_image(base)
    held = CovarianceField(all_rows(read), looks=read.looks)
    split = read_split(roi, 42, held)
    protos = train_prototypes(held, split)
    fit_weights(held, split, protos, "KL", 1.0)
    dataio.write_model(protos, tmp_path / "held.txt")
    model = tmp_path / "model.txt"
    assert main(["train", "--image", str(base), "--roi", str(roi), "--out", str(model)]) == 0
    assert main(["weights", "--image", str(base), "--roi", str(roi), "--model", str(model)]) == 0
    assert model.read_bytes() == (tmp_path / "held.txt").read_bytes()


def test_evolve_and_an_image_pipeline_never_load_the_whole_image(tmp_path):
    # evolve reads its initial field through ``rows`` one band at a time, and
    # so does every stage of a pipeline given ``image:`` and ``roi:``; the
    # bytes of both are pinned in tests/digests.json
    base, roi = tmp_path / "img", tmp_path / "img_roi.txt"
    model = tmp_path / "model.txt"
    assert main(["simulate", "--width", "96", "--height", "96", "--out", str(base)]) == 0
    assert main(["train", "--image", str(base), "--roi", str(roi), "--out", str(model)]) == 0
    assert main(["evolve", "--image", str(base), "--model", str(model), "--iters", "2",
                 "--out", str(tmp_path / "evolved")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"image: {base}\nroi: {roi}\niterations: 2\noutdir: {tmp_path / 'run'}\n")
    assert main(["pipeline", "--config", str(cfg)]) == 0


def test_a_phantom_pipeline_holds_one_image_plane(tmp_path, monkeypatch):
    # the simulate stage writes the phantom and reads it back as an ``image:``
    # run does, so no later stage holds the generated (H, W, 9) array: the
    # traced peak is evolve's one (9, H, W) plane and its band scratch, under
    # two images.  Keeping the generated array put it at 2.65 images.
    monkeypatch.setattr(fields, "BLOCK_PIXELS", 9000)  # 30 rows of 300 pixels
    monkeypatch.setattr(fields, "_usable_cpus", lambda: 1)  # one block at a time
    config = ExperimentConfig(iterations=2, outdir=str(tmp_path / "run"))
    _, peak = traced_peak(run_pipeline, config)
    image_bytes = 300 * 300 * 9 * 8
    assert peak < 2 * image_bytes, (peak, image_bytes)


def test_log_level_debug_tells_how_each_step_was_split(tmp_path, caplog):
    # classify, render and evolve log their row blocks and workers at DEBUG;
    # the default level (INFO) leaves that out
    base, model = str(tmp_path / "img"), str(tmp_path / "model.txt")
    assert main(["simulate", "--width", "96", "--height", "80", "--out", base]) == 0
    assert main(["train", "--image", base, "--roi", f"{base}_roi.txt", "--out", model]) == 0

    def split(step):
        return re.compile(rf"{step}: 80x96 pixels in [1-9]\d* row blocks on [1-9]\d* workers")

    classify = ["classify", "--image", base, "--model", model, "--out", str(tmp_path / "map")]
    for level in ("DEBUG", None):
        proc = subprocess.run([sys.executable, "-m", "polsardr",
                               *(["--log-level", level] if level else []), *classify],
                              capture_output=True, text=True, env=_src_env(), timeout=300)
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
                   f"outdir: {tmp_path / 'run'}\n")
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
    # the trained prototypes and weights, pinned before the statistics were packed
    # (the class looks may move in their last digits)
    lines = [ln for ln in (tmp_path / "full" / "model.txt").read_text().splitlines()
             if ln.startswith(("cov:", "weights:"))]
    assert len(lines) == 4 and hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "7df98d7314e68ef5adf4a544c2e53457979b0c09ec23171412d1ceb006b253db")


def _readme_blocks(section):
    """The fenced code blocks of a README section, without their opening lines."""
    text = (ROOT / "README.md").read_text().split(f"\n## {section}\n", 1)[1]
    return [block.split("\n", 1)[1] for block in text.split("\n## ", 1)[0].split("```")[1::2]]


def test_readme_matches_the_command_line(tmp_path):
    # the configuration block loads as it stands, and every command of the
    # quick start parses; together they use each subcommand
    block, = _readme_blocks("Configuration")
    (tmp_path / "exp.cfg").write_text(block)
    ExperimentConfig.from_file(tmp_path / "exp.cfg")
    parser = build_parser()
    used = {parser.parse_args(shlex.split(line, comments=True)[1:]).command
            for block in _readme_blocks("Quick start")
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("polsardr ")}
    assert used == {"simulate", "train", "weights", "classify", "evolve", "evaluate",
                    "render", "pipeline"}


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the API example runs as it stands, in a directory of its own
    block, = _readme_blocks("Library use")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["pixels"].shape == (100, 9)
    np.testing.assert_allclose(namespace["kl"],
                               oracle.kl(oracle.unpack(namespace["pixels"]), np.eye(3), 4.0),
                               rtol=1e-10)
    np.testing.assert_array_equal(namespace["labels"].labels,
                                  classify_image(namespace["field"], namespace["protos"],
                                                 "KL+OW").labels)


def _cold_run(*args, cwd=None):
    """Run ``python -m polsardr *args`` in a fresh interpreter; return the
    scipy modules loaded when it exits and the rest of its output."""
    report = ("import atexit, json, runpy, sys\n"
              "atexit.register(lambda: print('scipy modules:', json.dumps(sorted(\n"
              "    m for m in sys.modules if m.split('.')[0] == 'scipy'))))\n"
              "sys.argv = ['polsardr', *sys.argv[1:]]\n"
              "runpy.run_module('polsardr', run_name='__main__', alter_sys=True)\n")
    proc = subprocess.run([sys.executable, "-c", report, *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, env=_src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    *output, line = proc.stdout.splitlines()
    assert line.startswith("scipy modules: ")
    return set(json.loads(line.removeprefix("scipy modules: "))), output


def test_import_and_scipy_free_subcommands_load_no_scipy(tmp_path):
    # every polsardr module imports only the standard library and numpy at top level
    loaded, output = _cold_run("--help")  # imports polsardr.cli and stops
    assert loaded == set()
    assert output[0].startswith("usage: polsardr")
    spec = PhantomSpec(width=12, height=10)
    field, truth = generate_phantom(spec)
    dataio.write_covariance_image(field, tmp_path / "img")
    dataio.write_model(PrototypeSet(spec.sigmas, shared_looks=spec.looks), tmp_path / "model.txt")
    dataio.write_classmap(truth, tmp_path / "truth")
    loaded, _ = _cold_run("classify", "--image", "img", "--model", "model.txt",
                          "--rule", "KL", "--out", "map", cwd=tmp_path)
    assert loaded == set()
    assert (dataio.read_classmap(tmp_path / "map").labels == truth.labels).mean() > 0.5
    loaded, _ = _cold_run("render", "--classmap", "truth", "--classes", "3",
                          "--out", "truth.ppm", cwd=tmp_path)
    assert loaded == set()
    assert (tmp_path / "truth.ppm").read_bytes().startswith(b"P6")


def test_subcommands_that_call_scipy_import_it_cold(tmp_path):
    # the subcommands that once called scipy now load none of it in a fresh process
    # inscribed_rois erodes with numpy
    loaded, _ = _cold_run("simulate", "--width", "96", "--height", "96", "--out", "sim",
                          cwd=tmp_path)
    assert loaded == set()
    # polygamma3 is a series and estimate_looks_ml bisects
    loaded, _ = _cold_run("train", "--image", "sim", "--roi", "sim_roi.txt",
                          "--out", "sim_model.txt", cwd=tmp_path)
    assert loaded == set()
    assert dataio.read_model(tmp_path / "sim_model.txt").n_classes == 3
    loaded, _ = _cold_run("classify", "--image", "sim", "--model", "sim_model.txt",
                          "--rule", "ML", "--out", "map_ml", cwd=tmp_path)
    assert loaded == set()  # log_gamma3 is math.lgamma
    sim_truth = dataio.read_classmap(tmp_path / "sim_truth").labels
    assert (dataio.read_classmap(tmp_path / "map_ml").labels == sim_truth).mean() > 0.5
    (tmp_path / "exp.cfg").write_text("width: 96\nheight: 96\niterations: 2\nrules: ML\n"
                                      "outdir: run\n")
    loaded, _ = _cold_run("pipeline", "--config", "exp.cfg", cwd=tmp_path)
    assert loaded == set()
    assert "ML" in (tmp_path / "run" / "report.txt").read_text()
