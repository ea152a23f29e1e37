"""Pointwise classification rules over a prototype set.

A rule is a kind ("ML", the maximum Wishart log-density, or the distance to
the class prototype: "KL", "HD", "BD", "ED"), or a distance kind plus "+OW"
for its weight-scaled form.  Every rule is the argmin over the class columns
of one distance_stack call; ties break toward the lowest class index.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import hermitian as hm
from .distances import _features, _score
from .errors import InvalidLooks, InvalidObservation
from .fields import ClassMap, CovarianceField, row_blocks

logger = logging.getLogger(__name__)

KINDS = ("KL", "HD", "BD", "ED")  # the stochastic distances and the Euclidean baseline
STACK_KINDS = KINDS + ("ML",)
RULES = STACK_KINDS + tuple(f"{kind}+OW" for kind in KINDS)
SIMPLEX_TOL = 1e-9
MAX_CLASSES = 255  # labels are uint8 and 0 is the no-data sentinel


@dataclass(eq=False)
class PrototypeSet:
    """Class prototypes, simplex weights, and the shared looks value.

    ``sigmas`` are the class covariances, packed (M, 9) float64 like
    ``CovarianceField.data``.  They are checked and inverted once, when the
    set is built, and not modified after construction (a read-only copy that
    cannot be reassigned), so every ``distance_stack`` reuses their inverse
    and log-det.  ``class_looks`` optionally carries per-class bias-corrected
    looks; rules use the shared value unless asked otherwise.  Every looks
    value must be finite and >= 3.
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
        if not np.all(hm.is_positive_definite(self.sigmas)):
            raise InvalidObservation("every prototype must be positive definite")
        inverse, det = hm.inv_packed(self.sigmas)  # raises SingularMatrix
        self._inverse, self._log_det = inverse, np.log(det)
        if self.weights is None:
            self.weights = np.full(m, 1.0 / m)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (m,):
            raise ValueError(f"weights shape {self.weights.shape} != ({m},)")
        if not (np.all(self.weights >= 0) and abs(self.weights.sum() - 1.0) <= SIMPLEX_TOL):
            raise ValueError("weights must be nonnegative and sum to 1")
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
        super().__setattr__(name, value)

    @property
    def n_classes(self) -> int:
        return self.sigmas.shape[0]

    def looks_for(self, cls: int, use_class_looks: bool) -> float:
        if use_class_looks and self.class_looks is not None:
            return float(self.class_looks[cls])
        return float(self.shared_looks)


def distance_stack(x, protos: PrototypeSet, kind: str = "KL",
                   use_class_looks: bool = False, weighted: bool = False) -> np.ndarray:
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
    shape = np.shape(x)[:-1]
    x = hm.component_major(x)
    pixels = _features(x, kind)
    out = np.empty((x.shape[0], protos.n_classes))
    for m in range(protos.n_classes):
        proto = (protos.sigmas[m], protos._inverse[m], protos._log_det[m])
        col = _score(kind, pixels, proto, protos.looks_for(m, use_class_looks))
        out[:, m] = protos.weights[m] * col if weighted else col
    return out.reshape(shape + (protos.n_classes,))


def classify_image(field: CovarianceField, protos: PrototypeSet, rule: str = "KL",
                   use_class_looks: bool = False) -> ClassMap:
    """Classify every pixel independently; non-PD pixels get the 0 sentinel.

    The rows are scored in blocks of about ``fields.BLOCK_PIXELS`` pixels
    on every usable CPU (``fields.row_blocks``); each block gathers its valid
    pixels, scores them and writes their labels.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r} (expected one of {RULES})")
    kind = rule.removesuffix("+OW")  # "<kind>+OW" scales <kind> by the class weights
    valid = field.pd_mask
    labels = np.zeros(valid.shape, dtype=np.uint8)
    n_bad = int((~valid).sum())
    if n_bad:
        logger.warning("%d non-positive-definite pixels labeled 0", n_bad)

    def label_rows(r0, r1):
        ok = valid[r0:r1]
        x = field.data[r0:r1][ok]
        if x.shape[0]:
            scores = distance_stack(x, protos, kind, use_class_looks, weighted=kind != rule)
            labels[r0:r1][ok] = np.argmin(scores, axis=-1).astype(np.uint8) + 1

    with row_blocks("classify_image", field.height, field.width) as each_block:
        each_block(label_rows)
    return ClassMap(labels)
