"""Exact computations for symmetry classes of tensors over the
semi-dihedral groups of order 8n."""

from .chartab import CharacterId, character_table, character_value, chi, psi, zeta
from .cyclo import CycloInt, cyclotomic_polynomial, root_power
from .dims import dim_closed_form, dim_general, dim_report
from .group import SDElement, conjugacy_classes, elements, inverse, multiply
from .perm import Permutation, cycle_count_formula, cycle_decomposition, compose, embed
from .symclass import (
    BudgetExceededError,
    decide_orthogonal_basis,
    delta_bar,
    gram,
    orbits,
    predicted_basis,
    stabilizer_char_sum,
)

__version__ = "0.1.0"
