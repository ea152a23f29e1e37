"""Pointwise classification rules over a prototype set.

Every rule is the argmin over the class columns of one distance_stack call:
"ML" (maximum Wishart log-density), "ED"/"HD"/"KL" (distance to the class
prototype), and "KL+OW" (the weight-scaled KL distance).  Ties break toward
the lowest class index.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import hermitian as hm
from .errors import InvalidObservation
from .fields import ClassMap, CovarianceField
from .wishart import log_gamma3

logger = logging.getLogger(__name__)

RULES = ("ML", "ED", "HD", "KL", "KL+OW")
# rule -> (kind, weighted) of the distance_stack whose argmin it takes
_RULE_STACKS = {"ML": ("ML", False), "ED": ("ED", False), "HD": ("HD", False),
               "KL": ("KL", False), "KL+OW": ("KL", True)}
KINDS = ("KL", "HD", "BD", "ED")  # the stochastic distances and the Euclidean baseline
STACK_KINDS = KINDS + ("ML",)
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
    names: list[str] = field(default_factory=list)

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
        if not self.names:
            self.names = [f"class {i + 1}" for i in range(m)]

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
    or for "ML" the negative Wishart log-density.  The pixel features are
    computed once per call, whatever the number of classes: KL needs
    tr(S^-1 P_m) and tr(S P_m^-1), HD and BD need log|S| and the determinant
    of (S^-1 + P_m^-1) / 2, ML needs log|S| and tr(P_m^-1 S).  Pixels are
    flattened first and every operation is elementwise, so a pixel's scores
    do not depend on the shape of the array it arrives in.
    With ``weighted`` each column is scaled by the class weight, which is the
    quantity the weighted argmin rule and the reaction term minimize.
    """
    if kind not in STACK_KINDS:
        raise ValueError(f"unknown distance kind {kind!r} (expected one of {STACK_KINDS})")
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape[:-1]
    x = x.reshape(-1, 9)
    if x.strides[0] != x.itemsize:
        # component-major, so that the entry-wise kernels read contiguous entries
        x = np.ascontiguousarray(x.T).T
    protos_packed = hm.to_packed(protos.sigmas)
    p_inv, p_det = hm.inv_packed(protos_packed)
    if kind in ("KL", "HD", "BD"):
        x_inv, x_det = hm.inv_packed(x)
    elif kind == "ML":
        x_det = hm.det_packed(x)
    if kind in ("HD", "BD", "ML"):
        log_det = np.log(x_det)
    cols = []
    for m in range(protos.n_classes):
        looks = protos.looks_for(m, use_class_looks)
        if kind == "KL":
            t = 0.5 * (hm.trace_product_packed(x_inv, protos_packed[m])
                       + hm.trace_product_packed(x, p_inv[m])) - 3.0
            col = np.maximum(looks * t, 0.0)
        elif kind == "ED":
            sq = np.zeros(x.shape[0])
            for k in range(9):
                diff = x[:, k] - protos_packed[m, k]
                sq += hm.TRACE_WEIGHTS[k] * diff * diff
            col = np.sqrt(sq)
        elif kind == "ML":
            log_norm = (3.0 * looks * np.log(looks) - looks * np.log(p_det[m])
                        - log_gamma3(looks))
            col = (looks * hm.trace_product_packed(x, p_inv[m])
                   - (looks - 3.0) * log_det - log_norm)
        else:
            inv_mean = 0.5 * (x_inv + p_inv[m])
            r = np.minimum(-np.log(hm.det_packed(inv_mean))
                           - 0.5 * (log_det + np.log(p_det[m])), 0.0)
            col = -np.expm1(looks * r) if kind == "HD" else -looks * r
        cols.append(protos.weights[m] * col if weighted else col)
    return np.stack(cols, axis=-1).reshape(shape + (protos.n_classes,))


def classify_pixel(x, protos: PrototypeSet, rule: str = "KL",
                   use_class_looks: bool = False) -> int:
    """1-based class of a single complex 3x3 covariance matrix."""
    field = CovarianceField(hm.to_packed(x)[None, None])
    label = int(classify_image(field, protos, rule, use_class_looks).labels[0, 0])
    if label == 0:
        raise InvalidObservation("pixel covariance is not positive definite")
    return label


def classify_image(field: CovarianceField, protos: PrototypeSet, rule: str = "KL",
                   use_class_looks: bool = False) -> ClassMap:
    """Classify every pixel independently; non-PD pixels get the 0 sentinel."""
    if rule not in _RULE_STACKS:
        raise ValueError(f"unknown rule {rule!r} (expected one of {RULES})")
    kind, weighted = _RULE_STACKS[rule]
    data = field.data
    valid = hm.is_positive_definite(data)
    labels = np.zeros(data.shape[:2], dtype=np.uint8)
    n_bad = int((~valid).sum())
    if n_bad:
        logger.warning("%d non-positive-definite pixels labeled 0", n_bad)
    x = data[valid]
    if x.shape[0]:
        scores = distance_stack(x, protos, kind, use_class_looks, weighted)
        labels[valid] = np.argmin(scores, axis=-1).astype(np.uint8) + 1
    return ClassMap(labels)
