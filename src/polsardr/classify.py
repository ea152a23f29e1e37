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
from .errors import InvalidObservation
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

    ``class_looks`` optionally carries per-class (bias-corrected) looks
    estimates; rules use the shared value unless asked otherwise.
    """

    sigmas: np.ndarray
    shared_looks: float
    weights: np.ndarray | None = None
    class_looks: np.ndarray | None = None

    def __post_init__(self):
        self.sigmas = hm.hermitian_part(np.asarray(self.sigmas, dtype=np.complex128))
        if self.sigmas.ndim != 3 or self.sigmas.shape[1:] != (3, 3):
            raise ValueError(f"expected (M, 3, 3) prototypes, got {self.sigmas.shape}")
        m = self.sigmas.shape[0]
        if m < 2:
            raise ValueError(f"need at least 2 classes, got {m}")
        if m > MAX_CLASSES:
            raise ValueError(f"at most {MAX_CLASSES} classes fit the uint8 labels "
                             f"(0 marks no-data), got {m}")
        if not np.all(hm.is_positive_definite(hm.to_packed(self.sigmas))):
            raise InvalidObservation("every prototype must be positive definite")
        if self.shared_looks < 3:
            raise ValueError(f"shared looks must be >= 3, got {self.shared_looks}")
        if self.weights is None:
            self.weights = np.full(m, 1.0 / m)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (m,):
            raise ValueError(f"weights shape {self.weights.shape} != ({m},)")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError("weights must be nonnegative and sum to 1")
        if self.class_looks is not None:
            self.class_looks = np.asarray(self.class_looks, dtype=np.float64)
            if self.class_looks.shape != (m,):
                raise ValueError("class_looks must have one entry per class")

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
    whatever the number of classes.  Every operation is elementwise over the
    pixels given, so a pixel's scores do not depend on the shape of the array
    it arrives in; callers split whole fields with ``fields.row_blocks``, and
    no threads are started here.  Any kind raises SingularMatrix for a
    non-finite pixel entry.  With ``weighted`` each column is scaled by the
    class weight, which is the quantity the weighted argmin rule and the
    reaction term minimize.
    """
    if kind not in STACK_KINDS:
        raise ValueError(f"unknown distance kind {kind!r} (expected one of {STACK_KINDS})")
    shape = np.shape(x)[:-1]
    x = hm.component_major(x)
    pixels = _features(x, kind)
    protos_packed = hm.to_packed(protos.sigmas)
    p_inv, p_det = hm.inv_packed(protos_packed)
    out = np.empty((x.shape[0], protos.n_classes))
    for m in range(protos.n_classes):
        proto = (protos_packed[m], p_inv[m], np.log(p_det[m]))
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
