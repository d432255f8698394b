"""Burnside Tambara functor spectra for finite groups.

Compute the prime-ideal poset of the Burnside Tambara functor of any finite
group given by generators or a named family, together with per-prime fibers,
Hasse diagrams, the classical Zariski spectrum of the Burnside ring for
comparison, and a machine verification of the table-of-marks ghost Tambara
functor that underlies the computation.
"""

from .burnside import BurnsideElement, GhostElement, LevelRing
from .errors import (
    BtspecError,
    CapExceededError,
    ContainmentError,
    NotInImageError,
    OrderExceededError,
    SpecParseError,
    SpecRangeError,
)
from .ghost import GhostSystem, VerificationReport, verify_axioms
from .groups import (
    FiniteGroup,
    GroupSpec,
    group_from_text,
    parse_group_spec,
    realize,
)
from .lattice import (
    Subgroup,
    SubgroupLattice,
    subgroup_lattice,
)
from .names import class_labels
from .spectrum import (
    SpectrumNode,
    SpectrumPoset,
    burnside_ideal_membership,
    burnside_ring_spectrum,
    enumerate_spectrum,
    ghost_ideal_membership,
    non_prime_witness,
    q_condition_check,
)

__version__ = "0.1.0"

__all__ = [
    "BurnsideElement",
    "GhostElement",
    "LevelRing",
    "BtspecError",
    "CapExceededError",
    "ContainmentError",
    "NotInImageError",
    "OrderExceededError",
    "SpecParseError",
    "SpecRangeError",
    "GhostSystem",
    "VerificationReport",
    "verify_axioms",
    "FiniteGroup",
    "GroupSpec",
    "group_from_text",
    "parse_group_spec",
    "realize",
    "Subgroup",
    "SubgroupLattice",
    "subgroup_lattice",
    "class_labels",
    "SpectrumNode",
    "SpectrumPoset",
    "burnside_ideal_membership",
    "burnside_ring_spectrum",
    "enumerate_spectrum",
    "ghost_ideal_membership",
    "non_prime_witness",
    "q_condition_check",
    "__version__",
]
