"""Workbench for finite inverse monoids.

Decides the inverse / E-unitary / F-inverse / Clifford hierarchy, builds the
canonical extension through the minimum group congruence, and realizes the
reconstruction theorems (almost semidirect products, crossed products from
relaxed factor systems, modified Artin gluings) with certified isomorphisms.
"""

from .constructions import (
    AlmostAction,
    FactorSystem,
    GluingMap,
    almost_action_from_f_inverse,
    clifford_reconstruction,
    crossed_product,
    f_product,
    factor_system_from_almost_action,
    factor_system_from_extension,
    gluing,
    gluing_map_from_clifford,
    iso_f_product_crossed,
    validate_almost_action,
    validate_factor_system,
    validate_gluing_map,
)
from .core import (
    Congruence,
    FiniteMonoid,
    MonoidMap,
    direct_product,
    generated_submonoid,
    is_group,
    make_congruence,
    make_monoid_map,
    quotient,
    validate_monoid,
)
from .extension import (
    Cosplitting,
    Extension,
    WSSplitting,
    build_canonical_extension,
    cosplit_retraction,
    is_weakly_schreier,
    make_extension,
    weakly_schreier_iff_f_inverse,
)
from .inverse import (
    InverseMonoid,
    SemilatticeMonoid,
    idempotent_semilattice,
    is_clifford,
    is_e_unitary,
    is_f_inverse,
    min_group_congruence,
    natural_order,
    validate_inverse,
    validate_semilattice,
)
from .iso import IsoWitness, brute_force_iso, verify_iso
from .corpus import (
    CorpusInstance,
    builtin_corpus,
    enumerate_almost_actions,
    enumerate_gluing_maps,
    enumerate_inverse_monoids,
    enumerate_semilattices,
    small_groups,
)
from .mtab import parse_mtab, serialize_mtab
from .report import AnalysisReport, analyze, emit_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
