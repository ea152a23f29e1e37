"""The benchmark workloads: set-up, measured work and output checks.

Each workload builds its inputs from a seed in ``setup`` (timed as
``setup_s``), does the measured user journey in ``run`` (timed as ``run_s``)
and checks what it wrote in ``verify``.  At the golden seed the class maps and
the comparison table must match ``goldens.json`` exactly; at every seed the
maps are spot-checked against an independent numpy reference of each rule
and the paper's invariants are checked.  On ``pipeline_hd_multiclass`` the
``KL+OW`` and ``DR`` maps are left to the invariants and a label-range check:
which distance those rules use with the trained weights may legitimately
change.

The program is driven only through its command line (``polsardr.cli.main``,
in-process): the subcommands a user types.  Checks read the printed table and
the documented on-disk formats with plain numpy, so they do not depend on the
program's internal API or in-memory representation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from polsardr import cli

GOLDEN_SEED = 20240801
SPLIT_SEED = 42
RULES = ("ML", "ED", "HD", "KL", "KL+OW")
SPOT_PIXELS = 256
# Relative score gap below which a spot-checked label counts as a tie.
TIE_RTOL = 1e-9

# Six classes for pipeline_hd_multiclass: the built-in triplet's layout plus a
# bottom strip and two disks.  Every covariance is positive definite and every
# region leaves room for an 8-px inscribed ROI at 150x150.
HD_PHANTOM = """\
width: {size}
height: {size}
looks: 4
seed: {seed}
class1.cov: 0.42 0.018 0.24 0.03 0.012 0.28 0.06 0.01 0.005
class1.region: background
class2.cov: 5.3 0.2 2.9 0.4 0.1 3.3 0.7 0.1 0.05
class2.region: band 0.50 0.02 0.13
class3.cov: 1.2 0.6 1.0 0.05 0.02 0.3 0.1 0.2 0.05
class3.region: disk 0.70 0.72 0.15
class4.cov: 2.0 0.1 0.5 0.1 0.05 0.2 0.0 0.02 0.01
class4.region: band 0.0 0.93 0.06
class5.cov: 0.3 0.3 0.3 0.0 0.0 0.0 0.0 0.0 0.0
class5.region: disk 0.20 0.60 0.12
class6.cov: 0.9 0.05 0.9 0.02 0.01 0.7 0.1 0.01 0.01
class6.region: disk 0.82 0.18 0.10
"""


def _tag(rule: str) -> str:
    return rule.replace("+", "_")


def _cli(*argv) -> str:
    """Run one ``polsardr`` subcommand in-process and return what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"polsardr {argv[0]} exited with {code}")
    return printed.getvalue()


def _table(printed: str) -> list[str]:
    """The printed comparison table without its seconds column."""
    return [ln.rsplit(None, 1)[0] for ln in printed.split("\n\n", 1)[0].splitlines()]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- on-disk formats, read with plain numpy ---------------------------------

def _header(base) -> dict[str, str]:
    out = {}
    for line in Path(f"{base}.hdr").read_text().splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


def unpack(p: np.ndarray) -> np.ndarray:
    """Hermitian (..., 3, 3) matrices from [C11, C22, C33, Re C12, Im C12, ...]."""
    z = np.empty(p.shape[:-1] + (3, 3), dtype=np.complex128)
    for i in range(3):
        z[..., i, i] = p[..., i]
    for (i, j), k in zip(((0, 1), (0, 2), (1, 2)), (3, 5, 7)):
        z[..., i, j] = p[..., k] + 1j * p[..., k + 1]
        z[..., j, i] = p[..., k] - 1j * p[..., k + 1]
    return z


def read_field(base) -> np.ndarray:
    """(H, W, 3, 3) complex matrices from a packed covariance image."""
    hdr = _header(base)
    dtype = {"f32": "<f4", "f64": "<f8"}[hdr["dtype"]]
    p = np.fromfile(f"{base}.dat", dtype=dtype).astype(np.float64)
    return unpack(p.reshape(int(hdr["height"]), int(hdr["width"]), 9))


def read_map(base) -> np.ndarray:
    hdr = _header(base)
    return np.fromfile(f"{base}.dat", dtype=np.uint8).reshape(
        int(hdr["height"]), int(hdr["width"]))


def read_model(path) -> dict:
    """Prototypes, per-class looks, shared looks and weights of a model file."""
    model = {"covs": [], "looks": [], "weights": None}
    for line in Path(path).read_text().splitlines():
        key, _, value = (s.strip() for s in line.partition(":"))
        if key == "shared_looks":
            model["shared"] = float(value)
        elif key == "weights":
            model["weights"] = np.array(value.split(), dtype=float)
        elif key == "looks":
            model["looks"].append(float(value))
        elif key == "cov":
            model["covs"].append(np.array(value.split(), dtype=float))
    model["sigmas"] = unpack(np.stack(model["covs"]))
    return model


# --- independent reference of the classification rules ----------------------

def reference_scores(z, model: dict, rule: str, class_looks: bool) -> np.ndarray:
    """(n, M) lower-is-better scores of each rule, from numpy.linalg only."""
    sig = model["sigmas"]
    m = sig.shape[0]
    looks = np.array(model["looks"]) if class_looks else np.full(m, model["shared"])
    if rule == "ED":
        return np.linalg.norm(z[:, None] - sig[None], axis=(-2, -1))
    sinv = np.linalg.inv(sig)
    zinv = np.linalg.inv(z)
    ld_z = np.linalg.slogdet(z)[1][:, None]
    ld_s = np.linalg.slogdet(sig)[1][None]
    tr_sz = np.einsum("mij,nji->nm", sinv, z).real
    if rule == "ML":
        lg3 = 3 * np.log(np.pi) + gammaln(looks) + gammaln(looks - 1) + gammaln(looks - 2)
        return -(3 * looks * np.log(looks) + (looks - 3) * ld_z - looks * ld_s
                 - lg3 - looks * tr_sz)
    if rule in ("KL", "KL+OW"):
        tr_zs = np.einsum("nij,mji->nm", zinv, sig).real
        kl = np.maximum(looks * (0.5 * (tr_sz + tr_zs) - 3.0), 0.0)
        return kl * model["weights"] if rule == "KL+OW" else kl
    if rule == "HD":
        ld_mean = np.linalg.slogdet(0.5 * (zinv[:, None] + sinv[None]))[1]
        ratio = np.minimum(-ld_mean - 0.5 * (ld_z + ld_s), 0.0)
        return -np.expm1(looks * ratio)
    raise ValueError(rule)


def spot_check(name: str, labels: np.ndarray, field: np.ndarray, model: dict, rule: str,
               class_looks: bool, rng: np.random.Generator) -> list[str]:
    """Compare a class map with the reference rule on a random pixel sample."""
    h, w = labels.shape
    idx = rng.choice(h * w, size=min(SPOT_PIXELS, h * w), replace=False)
    got = labels.reshape(-1)[idx].astype(int)
    if np.any((got < 1) | (got > model["sigmas"].shape[0])):
        return [f"{name}: labels outside 1..M"]
    scores = reference_scores(field.reshape(-1, 3, 3)[idx], model, rule, class_looks)
    best = scores.min(axis=1)
    mine = scores[np.arange(idx.size), got - 1]
    bad = mine > best + TIE_RTOL * np.maximum(1.0, np.abs(best))
    if bad.any():
        return [f"{name}: {int(bad.sum())} of {idx.size} sampled pixels disagree "
                f"with the reference {rule} rule"]
    return []


def all_pd(field: np.ndarray) -> bool:
    return bool(np.all(np.linalg.eigvalsh(field.reshape(-1, 3, 3)) > 0))


# --- pipeline workloads -------------------------------------------------------

class Pipeline:
    """``polsardr pipeline --config exp.cfg``: simulate, train, weights, classify,
    evolve, evaluate and render through ``run_pipeline``, then print the table."""

    def __init__(self, name: str, golden_rows: tuple[str, ...] | None, multiclass: bool):
        self.name = name
        # None: the whole table is golden and every map is spot-checked.
        # Otherwise only these rows and their maps are compared with a reference.
        self.golden_rows = golden_rows
        self.multiclass = multiclass  # the 6-class HD phantom, classified with class looks

    def setup(self, wd: Path, seed: int, small: bool) -> None:
        lines = [f"split_seed: {SPLIT_SEED}", f"outdir: {wd / 'out'}"]
        if self.multiclass:
            (wd / "phantom.cfg").write_text(HD_PHANTOM.format(size=150, seed=seed))
            lines += [f"phantom_config: {wd / 'phantom.cfg'}", "distance: HD",
                      "use_class_looks: true"]
        else:
            lines.append(f"phantom_seed: {seed}")
            if small:
                lines += ["width: 100", "height: 100"]
        if small:
            lines.append("iterations: 3")
        (wd / "experiment.cfg").write_text("\n".join(lines) + "\n")

    def run(self, wd: Path) -> str:
        return _cli("pipeline", "--config", wd / "experiment.cfg")

    def outputs(self, wd: Path, result) -> dict:
        """The golden-comparable outputs: table cells and class-map digests."""
        table = _table(result)
        rules = RULES + ("DR",)
        if self.golden_rows is not None:  # accuracies only: the tags depend on other rows
            rows = {ln.split()[0]: re.findall(r"(\d+\.\d) \(", ln) + [ln.split()[-1]]
                    for ln in table[1:]}
            table = {r: rows[r] for r in self.golden_rows}
            rules = self.golden_rows
        names = [f"classmap_{_tag(r)}.dat" for r in rules]
        return {"table": table, "maps": {n: sha256(wd / "out" / n) for n in names}}

    def verify(self, wd: Path, seed: int, result, golden: dict | None) -> tuple[list[str], float]:
        out = wd / "out"
        errors: list[str] = []
        if golden is not None:
            got = self.outputs(wd, result)
            errors += [f"{self.name}: {key} differ from the golden seed's"
                       for key, want in golden.items() if got[key] != want]
        # Simplex-feasible weights and a non-increasing optimizer energy.
        with open(out / "weights_trace.csv") as f:
            trace = np.array([[float(v) for v in row] for row in list(csv.reader(f))[1:]])
        energy, weights = trace[:, 1], trace[:, 2:]
        if np.any(weights < 0) or np.any(np.abs(weights.sum(axis=1) - 1) > 1e-9):
            errors.append(f"{self.name}: optimizer left the simplex")
        if np.any(np.diff(energy) > 0):
            errors.append(f"{self.name}: optimizer energy increased")
        # Cone preservation and a decaying mean weighted distance.
        evolved = read_field(out / "evolved")
        if not all_pd(evolved):
            errors.append(f"{self.name}: evolved field left the positive-definite cone")
        with open(out / "metrics.csv") as f:
            dist = np.array([float(r[1]) for r in list(csv.reader(f))[1:]])
        if not dist[-1] < dist[0]:  # also catches NaN
            errors.append(f"{self.name}: mean weighted distance did not decay")
        # The class maps against the reference rules on sampled pixels.
        model = read_model(out / "model.txt")
        field = read_field(out / "image")
        rng = np.random.default_rng(seed)
        checked = RULES + ("DR",) if self.golden_rows is None else self.golden_rows
        for rule in RULES + ("DR",):
            name, labels = f"{self.name} {rule}", read_map(out / f"classmap_{_tag(rule)}")
            if rule not in checked:
                if np.any((labels < 1) | (labels > model["sigmas"].shape[0])):
                    errors.append(f"{name}: labels outside 1..M")
            elif rule == "DR":
                errors += spot_check(name, labels, evolved, model, "KL+OW", self.multiclass, rng)
            else:
                errors += spot_check(name, labels, field, model, rule, self.multiclass, rng)
        with open(out / "report.csv") as f:
            report = list(csv.reader(f))
        return errors, float(report[-1][report[0].index("overall")])


# --- classify_large -----------------------------------------------------------

class ClassifyLarge:
    """``polsardr classify`` with every rule on a 600x600 image and a trained model
    read from disk, then ``render`` of each class map and of the image."""

    name = "classify_large"

    def setup(self, wd: Path, seed: int, small: bool) -> None:
        size = 100 if small else 600
        img, roi, model = wd / "image", wd / "image_roi.txt", wd / "model.txt"
        _cli("simulate", "--width", size, "--height", size, "--looks", 4,
             "--seed", seed, "--out", img)
        _cli("train", "--image", img, "--roi", roi, "--seed", SPLIT_SEED, "--out", model)
        _cli("weights", "--image", img, "--roi", roi, "--model", model,
             "--seed", SPLIT_SEED)

    def run(self, wd: Path) -> None:
        img, model = wd / "image", wd / "model.txt"
        for rule in RULES:
            base = wd / f"map_{_tag(rule)}"
            _cli("classify", "--image", img, "--model", model, "--rule", rule, "--out", base)
            _cli("render", "--classmap", base, "--classes", 3, "--out", f"{base}.ppm")
        _cli("render", "--image", img, "--model", model, "--out", wd / "image.ppm")

    def outputs(self, wd: Path, result) -> dict:
        return {"maps": {f"map_{_tag(r)}.dat": sha256(wd / f"map_{_tag(r)}.dat")
                         for r in RULES}}

    def verify(self, wd: Path, seed: int, result, golden: dict | None) -> tuple[list[str], float]:
        errors: list[str] = []
        if golden is not None and self.outputs(wd, result)["maps"] != golden["maps"]:
            errors.append(f"{self.name}: maps differ from the golden seed's")
        field = read_field(wd / "image")
        model = read_model(wd / "model.txt")
        rng = np.random.default_rng(seed)
        for rule in RULES:
            labels = read_map(wd / f"map_{_tag(rule)}")
            errors += spot_check(f"{self.name} {rule}", labels, field, model, rule, False, rng)
        h, w = field.shape[:2]
        want = len(f"P6\n{w} {h}\n255\n") + h * w * 3
        for base in [f"map_{_tag(r)}" for r in RULES] + ["image"]:
            if (wd / f"{base}.ppm").stat().st_size != want:
                errors.append(f"{self.name}: {base}.ppm has the wrong size")
        truth = read_map(wd / "image_truth")
        accuracy = 100.0 * float(np.mean(read_map(wd / "map_KL_OW") == truth))
        return errors, accuracy


WORKLOADS = {
    "pipeline_default": Pipeline("pipeline_default", None, multiclass=False),
    "classify_large": ClassifyLarge(),
    # Run by hand, not listed in BENCHMARK.json (see README.md).  The KL+OW and
    # DR rows and maps are left to the invariants: which distance those rules
    # use with the HD-trained weights may legitimately change.
    "pipeline_hd_multiclass": Pipeline("pipeline_hd_multiclass", ("ML", "ED", "HD", "KL"),
                                       multiclass=True),
}
