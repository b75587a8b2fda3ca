"""Numerics for trading at market indifference prices on scenario trees."""

from .utilities import UtilitySpec, MakerPanel, exponential, sum_of_exponentials, panel
from .representative import (
    PrimalPoint,
    allocate,
    representative_utility,
    representative_gradient,
    weights_from_allocation,
)
from .tree import ScenarioTree, binomial_tree, binomial_lattice
from .field import FieldEvaluator, FieldValue
from .conjugate import (
    DualPoint,
    SaddleResult,
    conjugate_G,
    dual_point,
    state_identities,
    matrices_primal,
    matrices_dual,
    conjugacy_residuals,
)

__version__ = "0.1.0"
