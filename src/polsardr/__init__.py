"""PolSAR covariance-image classification by weighted Wishart stochastic distances
with diffusion-reaction refinement."""

from .classify import RULES, PrototypeSet, classify_image
from .distances import (bhattacharyya_distance, euclidean_distance,
                        hellinger_distance, kl_distance)
from .estimation import (SampleStats, box_snell_bias, estimate_looks_corrected,
                         estimate_looks_ml, polygamma3)
from .evolution import EvolutionMetrics, EvolutionParams, evolve
from .fields import ClassMap, CovarianceField, RoiSet, Split
from .phantom import PhantomSpec, generate_phantom
from .weights import TrainingSet, energy, optimize_weights, saturate
from .wishart import WishartModel, log_density, sample

__version__ = "0.1.0"

__all__ = [
    "RULES", "PrototypeSet", "classify_image",
    "bhattacharyya_distance", "euclidean_distance", "hellinger_distance", "kl_distance",
    "SampleStats", "box_snell_bias", "estimate_looks_corrected", "estimate_looks_ml",
    "polygamma3",
    "EvolutionMetrics", "EvolutionParams", "evolve",
    "ClassMap", "CovarianceField", "RoiSet", "Split",
    "PhantomSpec", "generate_phantom",
    "TrainingSet", "energy", "optimize_weights", "saturate",
    "WishartModel", "log_density", "sample",
    "__version__",
]
