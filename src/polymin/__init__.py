"""Reachability model checking and minimisation for cell-poset models.

The pipeline: load a simplicial model, take its cell poset, check reach
formulas on it directly, or first minimise it modulo logical equivalence
(strong bisimilarity of a labelled transition system over same-valuation
components) and map the answers back to the original cells.
"""

from .bisim import (
    Partition, components_same_valuation, encode_abstract, encode_concrete, strong_partition,
    to_aut, weak_pm_partition,
)
from .checker import SatSet, check_script, sat
from .errors import InputError
from .kripke import ReflexiveKripkeModel
from .logic import (
    Atom, And, Diamond, Eta, Formula, Gamma, Not, Or, Script, Top, TOP,
    format_formula, parse_formula, parse_script,
)
from .minimize import (
    MinimalModel, distinguishing_formula, map_back, minimal_model,
    rmin_via_quotient_d,
)
from .simplicial import (
    PosetModel, SimplicialModel, cell_poset, load_simplicial_model, random_model,
)

__all__ = [
    "InputError",
    "SimplicialModel", "PosetModel", "ReflexiveKripkeModel",
    "load_simplicial_model", "cell_poset", "random_model",
    "Formula", "Top", "TOP", "Atom", "Not", "And", "Or", "Eta", "Gamma", "Diamond",
    "Script", "parse_formula", "parse_script", "format_formula",
    "SatSet", "sat", "check_script",
    "Partition", "encode_concrete", "encode_abstract",
    "components_same_valuation", "strong_partition", "weak_pm_partition", "to_aut",
    "MinimalModel", "minimal_model", "rmin_via_quotient_d", "map_back",
    "distinguishing_formula",
]

__version__ = "0.1.0"
