"""Command-line driver: simulate, train, weights, classify, evolve, evaluate, render, pipeline."""

from __future__ import annotations

import argparse
import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import dataio
from .classify import KINDS, RULES, PrototypeSet, classify_image
from .errors import PolsarError, SizeMismatch
from .estimation import SampleStats, estimate_looks_corrected
from .evolution import EvolutionParams, evolve
from .fields import ClassMap, CovarianceField, Split
from .phantom import PhantomSpec, generate_phantom, inscribed_rois, read_phantom_config
from .weights import TrainingSet, WeightResult, optimize_weights, saturate


# --- evaluation --------------------------------------------------------------

@dataclass(eq=False)
class AccuracyReport:
    """Per-class and overall accuracy (%) of one method on the test pixels."""

    method: str
    per_class: dict[int, float]
    overall: float
    seconds: float | None = None


def _repeated(names) -> list:
    return sorted({n for n in names if names.count(n) > 1})


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
    no defined improvement for anyone.  A single report is its own baseline.
    Method names key the cells, so they must be distinct.
    """

    reports: list[AccuracyReport]
    baselines: dict[int, str] = dc_field(default_factory=dict)
    improvements: dict[str, dict[int, float | None]] = dc_field(default_factory=dict)

    def __post_init__(self):
        repeated = _repeated([rep.method for rep in self.reports])
        if repeated:
            raise ValueError(f"repeated method names {repeated}")
        self._classes = sorted(self.reports[0].per_class)
        # each report's cells, by class: (accuracy, improvement, text tag)
        self._cells = {rep.method: [] for rep in self.reports}
        self.improvements.update({rep.method: {} for rep in self.reports})
        for cls in self._classes:
            worst = min(rep.per_class[cls] for rep in self.reports)
            self.baselines[cls] = next(rep.method for rep in self.reports
                                       if rep.per_class[cls] == worst)
            for rep in self.reports:
                acc, imp, tag = rep.per_class[cls], None, "-"
                if acc != worst and worst < 100.0:
                    imp = 100.0 * (acc - worst) / (100.0 - worst)
                    tag = f"{imp:.1f}%"
                elif rep.method == self.baselines[cls] and worst < 100.0:
                    tag = "baseline"
                self.improvements[rep.method][cls] = imp
                self._cells[rep.method].append((acc, imp, tag))

    def format(self) -> str:
        rows = [["method"] + [f"class {c}" for c in self._classes] + ["overall", "seconds"]]
        for rep in self.reports:
            rows.append([rep.method]
                        + [f"{acc:.1f} ({tag})" for acc, _, tag in self._cells[rep.method]]
                        + [f"{rep.overall:.2f}",
                           "-" if rep.seconds is None else f"{rep.seconds:.3f}"])
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                         for r in rows)

    def write_csv(self, path) -> None:
        header = ["method"] + [f"{name}_{c}" for c in self._classes
                               for name in ("accuracy", "improvement")]
        dataio._write_csv(path, header + ["overall", "seconds"], (
            [rep.method]
            + [cell for acc, imp, _ in self._cells[rep.method]
               for cell in (f"{acc:.6f}", "" if imp is None else f"{imp:.6f}")]
            + [f"{rep.overall:.6f}", "" if rep.seconds is None else f"{rep.seconds:.6f}"]
            for rep in self.reports))


# --- experiment configuration -------------------------------------------------

_CONFIG_TYPES = {
    "width": int, "height": int, "looks": int, "phantom_seed": int, "split_seed": int,
    "alpha": float, "dt": float, "iterations": int, "lambda": float, "distance": str,
    "rules": str, "outdir": str, "image": str, "roi": str, "phantom_config": str,
    "use_class_looks": bool,
}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


@dataclass(eq=False)
class ExperimentConfig:
    """Plain-text `key: value` experiment description with Table-style defaults."""

    # None: the phantom's PhantomSpec default; with `image:`, the header's looks
    width: int | None = None
    height: int | None = None
    looks: int | None = None
    phantom_seed: int | None = None
    split_seed: int = 42
    alpha: float = EvolutionParams.alpha
    dt: float = EvolutionParams.dt
    iterations: int = EvolutionParams.iterations
    lam: float = 1.0
    distance: str = "KL"  # the weights' tables, the reaction and the DR map's rule
    rules: tuple[str, ...] = ("ML", "ED", "HD", "KL", "KL+OW")
    outdir: str = "phantom_run"
    image: str | None = None
    roi: str | None = None
    phantom_config: str | None = None
    use_class_looks: bool = False

    def __post_init__(self):
        # Raise up front: ValueError for a bad alpha, dt or lambda,
        # StabilityViolation when alpha*dt is too large.
        EvolutionParams(alpha=self.alpha, dt=self.dt, iterations=self.iterations)
        saturate(0.0, self.lam)
        if self.distance not in KINDS:
            raise ValueError(f"unknown distance {self.distance!r}; choose from {KINDS}")
        unknown = [r for r in self.rules if r not in RULES]
        if unknown:
            raise ValueError(f"unknown rules {unknown}; choose from {RULES}")
        repeated = _repeated(self.rules)
        if repeated:  # each rule names a row of the table and a class map file
            raise ValueError(f"repeated rules {repeated}")
        if self.image is not None:  # looks stays: it sets the shared looks there
            keys = ("width", "height", "phantom_seed", "phantom_config")
            _refuse_beside(f"image {self.image}", {key: getattr(self, key) for key in keys})
        elif self.phantom_config is not None:
            keys = ("width", "height", "looks", "phantom_seed")
            _refuse_beside(f"phantom_config {self.phantom_config}",
                           {key: getattr(self, key) for key in keys})

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

def _refuse_beside(source: str, values: dict) -> None:
    """Refuse phantom values given next to ``source``, a phantom config or an
    image, which sets the input image on its own."""
    given = [name for name, value in values.items() if value is not None]
    if given:
        raise ValueError(f"{', '.join(given)} and {source} both set the input image; "
                         "give one of them")


def _phantom_spec(**values) -> PhantomSpec:
    """PhantomSpec of the given values; a None value takes PhantomSpec's default."""
    return PhantomSpec(**{k: v for k, v in values.items() if v is not None})


def _save_classmap(cmap: ClassMap, base, n_classes: int | None = None) -> None:
    """Write <base>.hdr/.dat and render <base>.ppm."""
    dataio.write_classmap(cmap, base)
    dataio.render_classmap(cmap, f"{base}.ppm", n_classes=n_classes)


def read_split(roi_path, seed: int, image: CovarianceField | ClassMap) -> Split:
    """Train/test halves of the ROI file, whose rectangles must fit ``image``."""
    return dataio.split_roi(dataio.read_roi(roi_path, image.width, image.height), seed)


def _train_pixels(field: CovarianceField, split: Split) -> list[np.ndarray]:
    """Packed (n, 9) train pixels of each class, read through ``field.rows`` from
    the rows they span only, so a read image is not loaded whole."""
    pixels = []
    for cls in split.classes:
        y, x = split.train[cls].T
        r0 = int(y.min())
        pixels.append(field.rows(r0, int(y.max()) + 1)[y - r0, x])
    return pixels


def train_prototypes(field: CovarianceField, split: Split, looks=None) -> PrototypeSet:
    """Per-class covariance and bias-corrected looks from the train pixels; the
    shared looks are ``looks`` if given, else the field's (its header's), else
    the phantom's."""
    stats = [SampleStats.from_sample(x) for x in _train_pixels(field, split)]
    if looks is None:
        looks = PhantomSpec.looks if field.looks is None else field.looks
    return PrototypeSet(sigmas=np.stack([s.mean for s in stats]),
                        shared_looks=float(looks),
                        class_looks=np.array([estimate_looks_corrected(s) for s in stats]))


def fit_weights(field: CovarianceField, split: Split, protos: PrototypeSet,
                kind: str, lam: float) -> WeightResult:
    """Optimize the class weights on the train pixels and store them in ``protos``."""
    result = optimize_weights(TrainingSet(protos, _train_pixels(field, split)), kind=kind, lam=lam)
    protos.weights = result.weights
    return result


# --- subcommands ---------------------------------------------------------------

def cmd_simulate(args) -> int:
    flags = {"width": args.width, "height": args.height, "looks": args.looks, "seed": args.seed}
    if args.config:
        _refuse_beside(f"--config {args.config}", {f"--{k}": v for k, v in flags.items()})
        spec = read_phantom_config(args.config)
    else:
        spec = _phantom_spec(**flags)
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
    saturate(0.0, args.lam)  # refuse a bad --lambda before reading anything
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
    params = EvolutionParams(alpha=args.alpha, dt=args.dt, iterations=args.iters)
    field = dataio.read_covariance_image(args.image)
    protos = dataio.read_model(args.model)
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
        preds.append((name, base, dataio.read_classmap(base)))
    _, first_base, first = preds[0]
    for _, base, cmap in preds[1:]:
        if cmap.labels.shape != first.labels.shape:
            raise SizeMismatch(f"class map {base} is {cmap.width}x{cmap.height}, "
                               f"but {first_base} is {first.width}x{first.height}")
    split = read_split(args.roi, args.seed, first)
    table = ComparisonTable([accuracy_report(name, cmap, split) for name, _, cmap in preds])
    print(table.format())
    if args.out:
        table.write_csv(args.out)
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
        if not config.image:  # a phantom is written, then read back like an image: run's
            if config.phantom_config:
                spec = read_phantom_config(config.phantom_config)
            else:
                spec = _phantom_spec(width=config.width, height=config.height,
                                     looks=config.looks, seed=config.phantom_seed)
            field, truth = generate_phantom(spec)
            dataio.write_covariance_image(field, outdir / "image")
            _save_classmap(truth, outdir / "truth")
            if config.roi is None:
                dataio.write_roi(inscribed_rois(truth), outdir / "roi.txt")
            del field, truth  # no whole-image array outlives this stage
        field = dataio.read_covariance_image(config.image or outdir / "image")
        if config.image and config.roi is None:
            raise ValueError("a roi file is required when classifying a loaded image")
        roi_path = config.roi or outdir / "roi.txt"
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
    p.add_argument("--config", help="phantom spec file (key: value); sets the phantom "
                   "on its own, so it is refused next to the four flags below")
    p.add_argument("--width", type=int, help=f"image width (default {PhantomSpec.width})")
    p.add_argument("--height", type=int, help=f"image height (default {PhantomSpec.height})")
    p.add_argument("--looks", type=int, help=f"number of looks (default {PhantomSpec.looks})")
    p.add_argument("--seed", type=int, help=f"noise seed (default {PhantomSpec.seed})")
    p.add_argument("--out", required=True, help="output image base path")
    p.add_argument("--truth", help="truth classmap base (default <out>_truth)")
    p.add_argument("--roi", help="auto-ROI output path (default <out>_roi.txt)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="estimate per-class models from ROI train halves")
    p.add_argument("--image", required=True)
    p.add_argument("--roi", required=True)
    p.add_argument("--seed", type=int, default=ExperimentConfig.split_seed, help="split seed")
    p.add_argument("--looks", type=float,
                   help=f"shared looks (default: the header's, else {PhantomSpec.looks})")
    p.add_argument("--out", required=True, help="model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("weights", help="optimize class weights on the simplex")
    p.add_argument("--image", required=True)
    p.add_argument("--roi", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=ExperimentConfig.split_seed)
    p.add_argument("--lambda", dest="lam", type=float, default=ExperimentConfig.lam)
    p.add_argument("--distance", default=ExperimentConfig.distance, choices=KINDS)
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
    p.add_argument("--alpha", type=float, default=EvolutionParams.alpha)
    p.add_argument("--dt", type=float, default=EvolutionParams.dt)
    p.add_argument("--iters", type=int, default=EvolutionParams.iterations)
    p.add_argument("--distance", default=ExperimentConfig.distance, choices=KINDS)
    p.add_argument("--metrics", help="write per-iteration metrics CSV here")
    p.add_argument("--out", required=True, help="evolved image base path")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("evaluate", help="accuracy on ROI test halves")
    p.add_argument("--roi", required=True)
    p.add_argument("--seed", type=int, default=ExperimentConfig.split_seed)
    p.add_argument("--pred", action="append", required=True, metavar="NAME=BASE")
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
