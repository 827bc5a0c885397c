"""Exact computer algebra for finite-dimensional quasi-Hopf algebras."""

from .scalars import Field, PrimeField, RationalField, field_from_spec
from .tensor import SparseTensor, Algebra
from .datum import (QuasiHopfDatum, load, loads, load_path,
                    verify, verify_quasi_bialgebra, verify_quasi_hopf,
                    verify_quasitriangular, default_level)
from .report import CheckReport
from .derived import (DerivedElements, gamma, delta, big_f, check_F_compat,
                      modify_antipode, recover_modifier, coopposite, op_cop)
from .drinfeld import (DrinfeldElements, drinfeld_u, check_drinfeld_props,
                       check_u_under_modification, u_tilde, check_u_tilde)
from .twisting import (Twist, make_twist, twist, random_twist,
                       random_invertible, check_twist_elements,
                       opcop_twist_iso)
from .ribbon import (RTwistElements, RibbonCandidate, RibbonSearch,
                     rtwist_elements, check_rtwist_relations, is_ribbon,
                     check_ribbon_lemma, check_main_theorem, center,
                     find_ribbon)
from .examples import (FiniteAbelianGroup, Cocycle3, cocycle_zn, cocycle_for,
                       function_algebra, dpr_double, group_algebra, sweedler)
from . import dsl
from . import errors

__all__ = [
    "Field", "PrimeField", "RationalField", "field_from_spec",
    "SparseTensor", "Algebra", "QuasiHopfDatum", "CheckReport",
    "load", "loads", "load_path", "verify", "verify_quasi_bialgebra",
    "verify_quasi_hopf", "verify_quasitriangular", "default_level",
    "DerivedElements", "gamma", "delta", "big_f", "check_F_compat",
    "modify_antipode", "recover_modifier", "coopposite", "op_cop",
    "DrinfeldElements", "drinfeld_u", "check_drinfeld_props",
    "check_u_under_modification", "u_tilde", "check_u_tilde",
    "Twist", "make_twist", "twist", "random_twist", "random_invertible",
    "check_twist_elements", "opcop_twist_iso",
    "RTwistElements", "RibbonCandidate", "RibbonSearch", "rtwist_elements",
    "check_rtwist_relations", "is_ribbon", "check_ribbon_lemma",
    "check_main_theorem", "center", "find_ribbon",
    "FiniteAbelianGroup", "Cocycle3", "cocycle_zn", "cocycle_for",
    "function_algebra", "dpr_double", "group_algebra", "sweedler",
    "dsl", "errors",
]
