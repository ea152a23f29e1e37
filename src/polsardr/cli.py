"""Command-line driver: simulate, train, weights, classify, evolve, evaluate, render, pipeline."""

from __future__ import annotations

import argparse
import csv
import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import dataio
from . import hermitian as hm
from .classify import KINDS, RULES, PrototypeSet, classify_image
from .errors import MissingBaseline, PolsarError
from .estimation import SampleStats, estimate_looks_corrected
from .evolution import EvolutionParams, evolve
from .fields import ClassMap, CovarianceField, Split
from .phantom import PhantomSpec, generate_phantom, inscribed_rois, read_phantom_config
from .weights import TrainingSet, WeightResult, optimize_weights


# --- evaluation --------------------------------------------------------------

@dataclass(eq=False)
class AccuracyReport:
    """Per-class and overall accuracy (%) of one method on the test pixels."""

    method: str
    per_class: dict[int, float]
    overall: float
    seconds: float | None = None


def accuracy_report(method: str, predicted: ClassMap, split: Split,
                    seconds: float | None = None) -> AccuracyReport:
    per_class = {}
    correct_total = 0
    n_total = 0
    for cls in split.classes:
        coords = split.test[cls]
        labels = predicted.labels[coords[:, 0], coords[:, 1]]
        correct = int(np.sum(labels == cls))
        per_class[cls] = 100.0 * correct / coords.shape[0]
        correct_total += correct
        n_total += coords.shape[0]
    return AccuracyReport(method=method, per_class=per_class,
                          overall=100.0 * correct_total / n_total, seconds=seconds)


@dataclass(eq=False)
class ComparisonTable:
    """Accuracy reports plus per-class improvements over the worst technique.

    improvement = 100 * (acc - worst) / (100 - worst); the worst method is the
    baseline (None entry) and classes where the baseline is already 100 have
    no defined improvement for anyone.
    """

    reports: list[AccuracyReport]
    baselines: dict[int, str] = dc_field(default_factory=dict)
    improvements: dict[str, dict[int, float | None]] = dc_field(default_factory=dict)

    def __post_init__(self):
        if len(self.reports) < 2:
            raise MissingBaseline("improvements need at least two runs to compare")
        classes = sorted(self.reports[0].per_class)
        for rep in self.reports:
            self.improvements[rep.method] = {}
        for cls in classes:
            worst = min(rep.per_class[cls] for rep in self.reports)
            self.baselines[cls] = next(rep.method for rep in self.reports
                                       if rep.per_class[cls] == worst)
            for rep in self.reports:
                acc = rep.per_class[cls]
                if acc == worst or worst >= 100.0:
                    self.improvements[rep.method][cls] = None
                else:
                    self.improvements[rep.method][cls] = 100.0 * (acc - worst) / (100.0 - worst)

    def format(self) -> str:
        classes = sorted(self.reports[0].per_class)
        rows = [["method"] + [f"class {c}" for c in classes] + ["overall", "seconds"]]
        for rep in self.reports:
            cells = [rep.method]
            for c in classes:
                imp = self.improvements[rep.method][c]
                if imp is None:
                    tag = "baseline" if self.baselines[c] == rep.method and rep.per_class[c] < 100 else "-"
                else:
                    tag = f"{imp:.1f}%"
                cells.append(f"{rep.per_class[c]:.1f} ({tag})")
            cells.append(f"{rep.overall:.2f}")
            cells.append("-" if rep.seconds is None else f"{rep.seconds:.3f}")
            rows.append(cells)
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                         for r in rows)

    def write_csv(self, path) -> None:
        classes = sorted(self.reports[0].per_class)
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            header = ["method"]
            for c in classes:
                header += [f"accuracy_{c}", f"improvement_{c}"]
            writer.writerow(header + ["overall", "seconds"])
            for rep in self.reports:
                row = [rep.method]
                for c in classes:
                    imp = self.improvements[rep.method][c]
                    row += [f"{rep.per_class[c]:.6f}", "" if imp is None else f"{imp:.6f}"]
                writer.writerow(row + [f"{rep.overall:.6f}",
                                       "" if rep.seconds is None else f"{rep.seconds:.6f}"])


# --- experiment configuration -------------------------------------------------

_CONFIG_TYPES = {
    "width": int, "height": int, "looks": int, "phantom_seed": int, "split_seed": int,
    "alpha": float, "dt": float, "iterations": int, "lambda": float, "distance": str,
    "rules": str, "outdir": str, "image": str, "roi": str, "phantom_config": str,
    "use_class_looks": bool, "roi_margin": int, "roi_max_side": int,
}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


@dataclass(eq=False)
class ExperimentConfig:
    """Plain-text `key: value` experiment description with Table-style defaults."""

    width: int = 300
    height: int = 300
    looks: int | None = None  # phantom: 4; image: the header's value
    phantom_seed: int = 20240801
    split_seed: int = 42
    alpha: float = 0.5
    dt: float = 0.01
    iterations: int = 50
    lam: float = 1.0
    distance: str = "KL"  # the weights' tables, the reaction and the DR map's rule
    rules: tuple[str, ...] = ("ML", "ED", "HD", "KL", "KL+OW")
    outdir: str = "phantom_run"
    image: str | None = None
    roi: str | None = None
    phantom_config: str | None = None
    use_class_looks: bool = False
    roi_margin: int = 3
    roi_max_side: int = 49

    def __post_init__(self):
        # Raises StabilityViolation up front when alpha*dt is too large.
        EvolutionParams(alpha=self.alpha, dt=self.dt, iterations=self.iterations)
        if self.distance not in KINDS:
            raise ValueError(f"unknown distance {self.distance!r}; choose from {KINDS}")
        unknown = [r for r in self.rules if r not in RULES]
        if unknown:
            raise ValueError(f"unknown rules {unknown}; choose from {RULES}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        kwargs = {}
        for lineno, key, value in dataio.key_value_lines(path, ValueError):
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            typ = _CONFIG_TYPES[key]
            if typ is bool:
                if value.lower() not in _BOOLS:
                    raise ValueError(f"{path}:{lineno}: {key} needs a boolean "
                                     f"(1/true/yes/on or 0/false/no/off), got {value!r}")
                parsed = _BOOLS[value.lower()]
            elif key == "rules":
                parsed = tuple(r.strip() for r in value.split(","))
            else:
                try:
                    parsed = typ(value)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
            kwargs["lam" if key == "lambda" else key] = parsed
        return cls(**kwargs)


# --- shared helpers -----------------------------------------------------------

def _save_classmap(cmap: ClassMap, base, n_classes: int | None = None) -> None:
    """Write <base>.hdr/.dat and render <base>.ppm."""
    dataio.write_classmap(cmap, base)
    dataio.render_classmap(cmap, f"{base}.ppm", n_classes=n_classes)


def read_split(roi_path, seed: int, field: CovarianceField | None = None) -> Split:
    """Train/test halves of the ROI file; with a field, its rectangles must fit it."""
    size = {} if field is None else {"width": field.width, "height": field.height}
    return dataio.split_roi(dataio.read_roi(roi_path, **size), seed)


def train_prototypes(field: CovarianceField, split: Split, looks=None) -> PrototypeSet:
    """Per-class covariance and bias-corrected looks from the train pixels; the
    shared looks are ``looks`` if given, else the field's (its header's), else 4."""
    stats = [SampleStats.from_sample(hm.from_packed(field.data[tuple(split.train[cls].T)]))
             for cls in split.classes]
    shared = float(looks) if looks is not None else (field.looks or 4.0)
    return PrototypeSet(sigmas=hm.to_packed(np.stack([s.mean for s in stats])),
                        shared_looks=shared,
                        class_looks=np.array([estimate_looks_corrected(s) for s in stats]))


def fit_weights(field: CovarianceField, split: Split, protos: PrototypeSet,
                kind: str = "KL", lam: float = 1.0) -> WeightResult:
    """Optimize the class weights on the train pixels and store them in ``protos``."""
    train = TrainingSet(protos, [field.data[tuple(split.train[cls].T)] for cls in split.classes])
    result = optimize_weights(train, kind=kind, lam=lam)
    protos.weights = result.weights
    return result


# --- subcommands ---------------------------------------------------------------

def cmd_simulate(args) -> int:
    if args.config:
        spec = read_phantom_config(args.config)
    else:
        spec = PhantomSpec(width=args.width, height=args.height,
                           looks=args.looks, seed=args.seed)
    field, truth = generate_phantom(spec)
    dataio.write_covariance_image(field, args.out)
    truth_base = args.truth or f"{args.out}_truth"
    dataio.write_classmap(truth, truth_base)
    roi_path = args.roi or f"{args.out}_roi.txt"
    dataio.write_roi(inscribed_rois(truth), roi_path)
    print(f"simulated {spec.width}x{spec.height} phantom with {spec.n_classes} classes "
          f"-> {args.out}.hdr/.dat, truth -> {truth_base}.*, roi -> {roi_path}")
    return 0


def cmd_train(args) -> int:
    field = dataio.read_covariance_image(args.image)
    protos = train_prototypes(field, read_split(args.roi, args.seed, field), args.looks)
    dataio.write_model(protos, args.out)
    looks_str = " ".join(f"{v:.3f}" for v in protos.class_looks)
    print(f"trained {protos.n_classes} classes (shared looks {protos.shared_looks}, "
          f"corrected looks {looks_str}) -> {args.out}")
    return 0


def cmd_weights(args) -> int:
    field = dataio.read_covariance_image(args.image)
    protos = dataio.read_model(args.model)
    result = fit_weights(field, read_split(args.roi, args.seed, field), protos,
                         kind=args.distance, lam=args.lam)
    out = args.out or args.model
    dataio.write_model(protos, out)
    if args.trace:
        result.write_trace_csv(args.trace)
    print(f"optimized weights {np.round(result.weights, 4)} "
          f"(energy {result.energy:.6f}, {result.n_iter} iterations) -> {out}")
    return 0


def cmd_classify(args) -> int:
    field = dataio.read_covariance_image(args.image)
    protos = dataio.read_model(args.model)
    cmap = classify_image(field, protos, args.rule, use_class_looks=args.use_class_looks)
    dataio.write_classmap(cmap, args.out)
    print(f"classified with rule {args.rule} -> {args.out}.hdr/.dat")
    return 0


def cmd_evolve(args) -> int:
    field = dataio.read_covariance_image(args.image)
    protos = dataio.read_model(args.model)
    params = EvolutionParams(alpha=args.alpha, dt=args.dt, iterations=args.iters)
    out_field, metrics = evolve(field, protos, params, kind=args.distance)
    dataio.write_covariance_image(out_field, args.out)
    if args.metrics:
        metrics.write_csv(args.metrics)
    print(f"evolved {args.iters} iterations (alpha={args.alpha}, dt={args.dt}) "
          f"-> {args.out}.hdr/.dat")
    return 0


def cmd_evaluate(args) -> int:
    preds = []
    for item in args.pred:
        if "=" not in item:
            raise ValueError(f"--pred wants NAME=BASE, got {item!r}")
        name, base = item.split("=", 1)
        preds.append((name, dataio.read_classmap(base)))
    split = read_split(args.roi, args.seed)
    reports = [accuracy_report(name, cmap, split) for name, cmap in preds]
    if args.improvements:
        table = ComparisonTable(reports)
        print(table.format())
        if args.out:
            table.write_csv(args.out)
    else:
        for rep in reports:
            per = "  ".join(f"class {c}: {a:.1f}" for c, a in sorted(rep.per_class.items()))
            print(f"{rep.method}: {per}  overall: {rep.overall:.2f}")
        if args.out:
            with open(args.out, "w", newline="") as f:
                writer = csv.writer(f)
                classes = sorted(reports[0].per_class)
                writer.writerow(["method"] + [f"accuracy_{c}" for c in classes] + ["overall"])
                for rep in reports:
                    writer.writerow([rep.method]
                                    + [f"{rep.per_class[c]:.6f}" for c in classes]
                                    + [f"{rep.overall:.6f}"])
    return 0


def cmd_render(args) -> int:
    if args.image and not args.model:
        raise ValueError("--image needs --model")
    if args.classmap:
        cmap = dataio.read_classmap(args.classmap)
        dataio.render_classmap(cmap, args.out, n_classes=args.classes)
    else:
        field = dataio.read_covariance_image(args.image)
        protos = dataio.read_model(args.model)
        dataio.render_rgb(field, protos, args.out)
    print(f"rendered -> {args.out}")
    return 0


# --- pipeline ------------------------------------------------------------------

@dataclass(eq=False)
class PipelineResult:
    table: ComparisonTable
    protos: PrototypeSet
    outdir: Path


@contextmanager
def _stage(name: str, seconds: dict[str, float]):
    """Time a pipeline stage into ``seconds[name]``; a PolsarError names the stage."""
    t0 = time.perf_counter()
    try:
        yield
    except PolsarError as exc:
        raise PolsarError(f"stage {name!r} failed: {exc}") from exc
    seconds[name] = time.perf_counter() - t0


def run_pipeline(config: ExperimentConfig) -> PipelineResult:
    """Simulate/load, train, optimize weights, classify, evolve, evaluate, render.

    A row's seconds are its classify stage's, the DR row's the evolve stage's.
    """
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    seconds: dict[str, float] = {}
    with _stage("simulate", seconds):
        if config.image:
            field = dataio.read_covariance_image(config.image)
            if config.roi is None:
                raise ValueError("a roi file is required when classifying a loaded image")
            roi_path = config.roi
        else:
            if config.phantom_config:
                spec = read_phantom_config(config.phantom_config)
            else:
                spec = PhantomSpec(width=config.width, height=config.height,
                                   looks=4 if config.looks is None else config.looks,
                                   seed=config.phantom_seed)
            field, truth = generate_phantom(spec)
            dataio.write_covariance_image(field, outdir / "image")
            _save_classmap(truth, outdir / "truth")
            roi_path = config.roi or outdir / "roi.txt"
            if config.roi is None:
                dataio.write_roi(inscribed_rois(truth, margin=config.roi_margin,
                                                max_side=config.roi_max_side), roi_path)
    with _stage("split", seconds):
        split = read_split(roi_path, config.split_seed, field)
    with _stage("train", seconds):
        protos = train_prototypes(field, split, config.looks)
    with _stage("weights", seconds):
        result = fit_weights(field, split, protos, kind=config.distance, lam=config.lam)
    with _stage("write model", seconds):
        dataio.write_model(protos, outdir / "model.txt")
        result.write_trace_csv(outdir / "weights_trace.csv")
        dataio.render_rgb(field, protos, outdir / "input.ppm")

    reports = []
    for rule in config.rules:
        with _stage(f"classify {rule}", seconds):
            cmap = classify_image(field, protos, rule, use_class_looks=config.use_class_looks)
        with _stage(f"write {rule}", seconds):
            _save_classmap(cmap, outdir / f"classmap_{rule.replace('+', '_')}",
                           protos.n_classes)
            reports.append(accuracy_report(rule, cmap, split, seconds[f"classify {rule}"]))

    with _stage("evolve", seconds):
        params = EvolutionParams(alpha=config.alpha, dt=config.dt,
                                 iterations=config.iterations)
        evolved, metrics = evolve(field, protos, params, kind=config.distance)
        cmap = classify_image(evolved, protos, f"{config.distance}+OW",
                              use_class_looks=config.use_class_looks)
    with _stage("write DR", seconds):
        dataio.write_covariance_image(evolved, outdir / "evolved")
        metrics.write_csv(outdir / "metrics.csv")
        _save_classmap(cmap, outdir / "classmap_DR", protos.n_classes)
        dataio.render_rgb(evolved, protos, outdir / "evolved.ppm")
        reports.append(accuracy_report(f"DR+{config.distance}+OW+{config.iterations}",
                                       cmap, split, seconds["evolve"]))

    with _stage("evaluate", seconds):
        table = ComparisonTable(reports)
        report_text = (table.format()
                       + f"\n\ntrain: {seconds['train']:.3f} s   "
                         f"weights: {seconds['weights']:.3f} s   "
                         f"weights vector: {np.round(protos.weights, 4)}\n")
        (outdir / "report.txt").write_text(report_text)
        table.write_csv(outdir / "report.csv")
    return PipelineResult(table=table, protos=protos, outdir=outdir)


def cmd_pipeline(args) -> int:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    if args.outdir:
        config.outdir = args.outdir
    result = run_pipeline(config)
    print(result.table.format())
    print(f"\nartifacts in {result.outdir}")
    return 0


# --- argument parsing ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polsardr",
        description="PolSAR covariance-image classification by weighted Wishart "
                    "stochastic distances with diffusion-reaction refinement",
    )
    parser.add_argument("--log-level", default="INFO",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="lowest level of the records logged to stderr (default: INFO)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a Wishart phantom image")
    p.add_argument("--config", help="phantom spec file (key: value)")
    p.add_argument("--width", type=int, default=300)
    p.add_argument("--height", type=int, default=300)
    p.add_argument("--looks", type=int, default=4)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--out", required=True, help="output image base path")
    p.add_argument("--truth", help="truth classmap base (default <out>_truth)")
    p.add_argument("--roi", help="auto-ROI output path (default <out>_roi.txt)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="estimate per-class models from ROI train halves")
    p.add_argument("--image", required=True)
    p.add_argument("--roi", required=True)
    p.add_argument("--seed", type=int, default=42, help="split seed")
    p.add_argument("--looks", type=float, help="shared looks (default: header value)")
    p.add_argument("--out", required=True, help="model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("weights", help="optimize class weights on the simplex")
    p.add_argument("--image", required=True)
    p.add_argument("--roi", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--distance", default="KL", choices=KINDS)
    p.add_argument("--trace", help="write the optimizer trace CSV here")
    p.add_argument("--out", help="output model file (default: update --model in place)")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("classify", help="pointwise classification")
    p.add_argument("--image", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--rule", default="KL+OW", choices=RULES)
    p.add_argument("--use-class-looks", action="store_true")
    p.add_argument("--out", required=True, help="classmap base path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evolve", help="run the diffusion-reaction evolution")
    p.add_argument("--image", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--distance", default="KL", choices=KINDS)
    p.add_argument("--metrics", help="write per-iteration metrics CSV here")
    p.add_argument("--out", required=True, help="evolved image base path")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("evaluate", help="accuracy on ROI test halves")
    p.add_argument("--roi", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--pred", action="append", required=True, metavar="NAME=BASE")
    p.add_argument("--improvements", action="store_true",
                   help="also report improvement over the worst technique")
    p.add_argument("--out", help="write the comparison CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("render", help="RGB renders of fields or class maps")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--image", help="covariance image base path")
    source.add_argument("--classmap", help="classmap base path")
    p.add_argument("--model", help="model file (needed with --image)")
    p.add_argument("--classes", type=int, help="palette size for --classmap")
    p.add_argument("--out", required=True, help="output PPM path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("pipeline", help="full experiment end to end")
    p.add_argument("--config", help="experiment config file (key: value)")
    p.add_argument("--outdir", help="override the config outdir")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (PolsarError, ValueError, OSError) as exc:
        print(f"polsardr {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
