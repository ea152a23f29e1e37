"""Pointwise classification rules over a prototype set.

Rules: "ML" (maximum Wishart log-density), "ED"/"HD"/"KL" (argmin distance to
the class prototype), and "KL+OW" (argmin of the weight-scaled KL distance).
Ties break toward the lowest class index.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import hermitian as hm
from .distances import KINDS
from .errors import InvalidObservation
from .fields import ClassMap, CovarianceField
from .wishart import WishartModel, log_density

logger = logging.getLogger(__name__)

RULES = ("ML", "ED", "HD", "KL", "KL+OW")
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
        if not np.all(hm.is_positive_definite(self.sigmas)):
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

    def models(self, use_class_looks: bool = False) -> list[WishartModel]:
        return [WishartModel(self.sigmas[m], self.looks_for(m, use_class_looks))
                for m in range(self.n_classes)]


def distance_stack(data, protos: PrototypeSet, kind: str = "KL",
                   use_class_looks: bool = False, weighted: bool = False) -> np.ndarray:
    """Per-class distances d(data, prototype_m), stacked on a trailing axis.

    ``data`` holds complex (..., 3, 3) covariances.  Except for ED, which has
    no inverse to share, it is packed once and the per-pixel features serve
    all classes (see packed_distance_stack).
    With ``weighted`` each column is scaled by the class weight, which is the
    quantity the weighted argmin rule and the reaction term minimize.
    """
    if kind == "ED":
        cols = [np.asarray(hm.frobenius_distance(data, s)) for s in protos.sigmas]
        return _stack(cols, protos, weighted)
    return packed_distance_stack(hm.to_packed(data), protos, kind, use_class_looks, weighted)


def packed_distance_stack(x, protos: PrototypeSet, kind: str = "KL",
                          use_class_looks: bool = False, weighted: bool = False) -> np.ndarray:
    """distance_stack for packed (..., 9) data.

    The field is inverted once per call, whatever the number of classes:
    KL needs tr(S^-1 P_m) and tr(S P_m^-1), HD and BD need log|S| and the
    determinant of (S^-1 + P_m^-1) / 2.  Pixels are flattened first and every
    operation is elementwise, so a pixel's distances do not depend on the
    shape of the array it arrives in.
    """
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape[:-1]
    x = x.reshape(-1, 9)
    if kind == "ED":
        return distance_stack(hm.from_packed(x), protos, kind, use_class_looks,
                              weighted).reshape(shape + (protos.n_classes,))
    if kind not in KINDS:
        raise ValueError(f"unknown distance kind {kind!r} (expected one of {KINDS})")
    x = np.ascontiguousarray(x.T).T  # component-major, for the entry-wise kernels
    protos_packed = hm.to_packed(protos.sigmas)
    x_inv, x_det = hm.inv_packed(x)
    p_inv, p_det = hm.inv_packed(protos_packed)
    if kind != "KL":
        log_det = np.log(x_det)
    cols = []
    for m in range(protos.n_classes):
        looks = protos.looks_for(m, use_class_looks)
        if kind == "KL":
            t = 0.5 * (hm.trace_product_packed(x_inv, protos_packed[m])
                       + hm.trace_product_packed(x, p_inv[m])) - 3.0
            cols.append(np.maximum(looks * t, 0.0))
        else:
            inv_mean = 0.5 * (x_inv + p_inv[m])
            r = np.minimum(-np.log(hm.det_packed(inv_mean))
                           - 0.5 * (log_det + np.log(p_det[m])), 0.0)
            cols.append(-np.expm1(looks * r) if kind == "HD" else -looks * r)
    return _stack(cols, protos, weighted).reshape(shape + (protos.n_classes,))


def _stack(cols, protos: PrototypeSet, weighted: bool) -> np.ndarray:
    if weighted:
        cols = [protos.weights[m] * c for m, c in enumerate(cols)]
    return np.stack(cols, axis=-1)


def score_stack(data, protos: PrototypeSet, rule: str,
                use_class_looks: bool = False) -> np.ndarray:
    """Lower-is-better score per class for the given rule."""
    if rule == "ML":
        cols = [-np.asarray(log_density(model, data, validate=False))
                for model in protos.models(use_class_looks)]
        return np.stack(cols, axis=-1)
    if rule in ("ED", "HD", "KL"):
        return distance_stack(data, protos, rule, use_class_looks)
    if rule == "KL+OW":
        return distance_stack(data, protos, "KL", use_class_looks, weighted=True)
    raise ValueError(f"unknown rule {rule!r} (expected one of {RULES})")


def classify_pixel(x, protos: PrototypeSet, rule: str = "KL",
                   use_class_looks: bool = False) -> int:
    """1-based class of a single covariance matrix."""
    x = np.asarray(x, dtype=np.complex128)
    if not hm.is_positive_definite(x):
        raise InvalidObservation("pixel covariance is not positive definite")
    scores = score_stack(x[None], protos, rule, use_class_looks)[0]
    return int(np.argmin(scores)) + 1


def classify_image(field: CovarianceField, protos: PrototypeSet, rule: str = "KL",
                   use_class_looks: bool = False) -> ClassMap:
    """Classify every pixel independently; non-PD pixels get the 0 sentinel."""
    data = field.data
    valid = np.asarray(hm.is_positive_definite(data))
    labels = np.zeros(data.shape[:2], dtype=np.uint8)
    n_bad = int((~valid).sum())
    if n_bad:
        logger.warning("%d non-positive-definite pixels labeled 0", n_bad)
    pts = data[valid]
    if pts.shape[0]:
        scores = score_stack(pts, protos, rule, use_class_looks)
        labels[valid] = np.argmin(scores, axis=-1).astype(np.uint8) + 1
    return ClassMap(labels)
