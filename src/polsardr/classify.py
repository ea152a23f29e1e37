"""Pointwise classification rules over a prototype set.

A rule is a kind ("ML", the maximum Wishart log-density, or the distance to
the class prototype: "KL", "HD", "BD", "ED"), or a distance kind plus "+OW"
for its weight-scaled form.  Every rule is the argmin over the class columns
of one distance_stack call; ties break toward the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hermitian as hm
from .distances import _features, _score
from .errors import InvalidLooks, InvalidObservation
from .fields import ClassMap, CovarianceField, row_blocks, warn_non_pd

KINDS = ("KL", "HD", "BD", "ED")  # the stochastic distances and the Euclidean baseline
STACK_KINDS = KINDS + ("ML",)
RULES = STACK_KINDS + tuple(f"{kind}+OW" for kind in KINDS)
SIMPLEX_TOL = 1e-9
MAX_CLASSES = 255  # labels are uint8 and 0 is the no-data sentinel


@dataclass(eq=False)
class PrototypeSet:
    """Class prototypes, simplex weights, and the shared looks value.

    ``sigmas`` are the class covariances, packed (M, 9) float64 like a
    field's pixels.  They are checked and inverted once, when the
    set is built, and not modified after construction (a read-only copy that
    cannot be reassigned), so every ``distance_stack`` reuses their inverse
    and log-det.  ``weights`` must lie on the simplex; every assignment,
    the constructor's included, checks them and stores a read-only copy.
    ``class_looks`` optionally carries per-class bias-corrected looks; rules
    use the shared value unless asked otherwise.  Every looks value must be
    finite and >= 3.
    """

    sigmas: np.ndarray
    shared_looks: float
    weights: np.ndarray | None = None
    class_looks: np.ndarray | None = None

    def __post_init__(self):
        sigmas = np.asarray(self.sigmas)
        if np.iscomplexobj(sigmas) or sigmas.ndim != 2 or sigmas.shape[1] != 9:
            raise ValueError(f"expected packed (M, 9) prototypes, got {sigmas.shape}")
        m = sigmas.shape[0]
        if m < 2:
            raise ValueError(f"need at least 2 classes, got {m}")
        if m > MAX_CLASSES:
            raise ValueError(f"at most {MAX_CLASSES} classes fit the uint8 labels "
                             f"(0 marks no-data), got {m}")
        self.sigmas = np.array(sigmas, dtype=np.float64)
        self.sigmas.flags.writeable = False
        inverse, det, pd = hm._inverse(self.sigmas)  # raises SingularMatrix first
        if not np.all(pd):
            raise InvalidObservation("every prototype must be positive definite")
        self._inverse, self._log_det = inverse, np.log(det)
        self.weights = np.full(m, 1.0 / m) if self.weights is None else self.weights
        if self.class_looks is not None:
            self.class_looks = np.asarray(self.class_looks, dtype=np.float64)
            if self.class_looks.shape != (m,):
                raise ValueError("class_looks must have one entry per class")
        looks = np.append(self.shared_looks, [] if self.class_looks is None else self.class_looks)
        if not np.all(np.isfinite(looks) & (looks >= 3)):  # NaN fails both
            raise InvalidLooks(f"looks must be finite and >= 3, got {looks}")

    def __setattr__(self, name, value):
        if name == "sigmas" and hasattr(self, "_inverse"):  # the inverse is theirs
            raise AttributeError("the sigmas of a PrototypeSet are fixed when it is built")
        if name == "weights" and hasattr(self, "_inverse"):  # from __post_init__ on
            value = _simplex_weights(value, self.n_classes)
        super().__setattr__(name, value)

    @property
    def n_classes(self) -> int:
        return self.sigmas.shape[0]

    def looks_for(self, cls: int, use_class_looks: bool) -> float:
        if use_class_looks and self.class_looks is not None:
            return float(self.class_looks[cls])
        return float(self.shared_looks)


def _simplex_weights(weights, m: int) -> np.ndarray:
    """A read-only float64 copy of ``weights``, checked to be m finite
    nonnegative values that sum to 1."""
    weights = np.array(hm._real(weights))
    if weights.shape != (m,):
        raise ValueError(f"weights shape {weights.shape} != ({m},)")
    # a NaN fails both tests, and an inf makes the sum inf or NaN
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= SIMPLEX_TOL):
        raise ValueError("weights must be nonnegative and sum to 1")
    weights.flags.writeable = False
    return weights


def distance_stack(x, protos: PrototypeSet, kind: str, use_class_looks: bool = False,
                   weighted: bool = False) -> np.ndarray:
    """Lower-is-better score of packed (..., 9) pixels against every prototype.

    One column per class on a trailing axis: the KL, HD, BD or ED distance,
    or for "ML" the negative Wishart log-density, from the one formula of each
    kind in ``distances``.  The pixel features are computed once per call,
    whatever the number of classes; the prototypes' were computed when the set
    was built.  Every operation is elementwise over the pixels given, so a
    pixel's scores do not depend on the shape of the array it arrives in;
    callers split whole fields with ``fields.row_blocks``, and no threads are
    started here.  Any kind raises SingularMatrix for a non-finite pixel
    entry, and every kind but ED InvalidObservation for a pixel that is not
    positive definite (ED scores it, so ``render_rgb`` colours no-data
    pixels).  With ``weighted`` each column is scaled by the class weight,
    which is the quantity the weighted argmin rule and the reaction term
    minimize.
    """
    if kind not in STACK_KINDS:
        raise ValueError(f"unknown distance kind {kind!r} (expected one of {STACK_KINDS})")
    out = _stack(_features(hm.component_major(x), kind), protos, kind, use_class_looks, weighted)
    return np.ascontiguousarray(out.T).reshape(np.shape(x)[:-1] + (protos.n_classes,))


def _stack(pixels: tuple, protos: PrototypeSet, kind: str, use_class_looks=False,
           weighted=False) -> np.ndarray:
    """Class-major (M, N) scores from the features (``distances._features``) of N
    pixels: row m, contiguous, is column m of distance_stack's C-order stack."""
    out = np.empty((protos.n_classes, next(f for f in pixels if f is not None).shape[0]))
    for m in range(protos.n_classes):
        proto = (protos.sigmas[m], protos._inverse[m], protos._log_det[m])
        col = _score(kind, pixels, proto, protos.looks_for(m, use_class_looks))
        out[m] = protos.weights[m] * col if weighted else col
    return out


def _nearest(scores: np.ndarray):
    """Labels (0-based), nearest and runner-up of class-major (M, N) scores.

    One elementwise chain over the class rows with a strict <, so the lowest
    index wins ties; a pixel with a NaN score (nearest NaN) takes np.argmin's
    label, so the labels are np.argmin's over the classes.
    """
    d0, d1 = scores[0], scores[1]
    labels = (d1 < d0).astype(np.intp)
    nearest, runner_up = np.minimum(d0, d1), np.maximum(d0, d1)
    for m in range(2, scores.shape[0]):
        d = scores[m]
        np.minimum(runner_up, np.maximum(nearest, d), out=runner_up)
        np.copyto(labels, m, where=d < nearest)
        np.minimum(nearest, d, out=nearest)
    nan = np.isnan(nearest)  # every comparison with a NaN is False
    if nan.any():
        labels[nan] = np.argmin(scores[:, nan], axis=0)
    return labels, nearest, runner_up


def classify_image(field: CovarianceField, protos: PrototypeSet, rule: str,
                   use_class_looks: bool = False) -> ClassMap:
    """Classify every pixel independently; non-PD pixels get the 0 sentinel.

    The rows are scored in blocks of about ``fields.BLOCK_PIXELS`` pixels
    on every usable CPU (``fields.row_blocks``).  Each block reads its rows once
    (``CovarianceField.rows``) into one component-major copy; the PD test and the
    scores share it and its determinant, and only a block with non-PD pixels
    gathers the rest.  The 0 labels are warned of after the pass (``fields.warn_non_pd``).
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r} (expected one of {RULES})")
    kind = rule.removesuffix("+OW")  # "<kind>+OW" scales <kind> by the class weights
    labels = np.zeros((field.height, field.width), dtype=np.uint8)

    def label_rows(r0, r1):
        x = hm.component_major(field.rows(r0, r1))
        det, ok = hm._det_pd(x)
        if not ok.all():  # a block of PD pixels only is scored without this copy
            x, det = x.T[:, ok].T, det[ok]
        if x.size:  # the features take the block's det rather than evaluate it again
            pixels = _features(x, kind, det)
            x = det = None  # what the features do not keep is freed before the scores
            scores = _stack(pixels, protos, kind, use_class_looks, kind != rule)
            pixels = None  # and the features before the labels
            labels[r0:r1][ok.reshape(r1 - r0, -1)] = _nearest(scores)[0].astype(np.uint8) + 1

    with row_blocks("classify_image", field.height, field.width) as each_block:
        each_block(label_rows)
    warn_non_pd(labels != 0)  # every PD pixel got a label >= 1
    return ClassMap(labels)
