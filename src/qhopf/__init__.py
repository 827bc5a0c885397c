"""Exact computer algebra for finite-dimensional quasi-Hopf algebras.

The namespace is lazy (PEP 562): `import qhopf` loads no submodule, and each
name below is imported from its submodule on first access, so a command pays
start-up only for the modules it runs.
"""

import importlib

_SOURCES = {
    "scalars": ("Field", "PrimeField", "RationalField", "field_from_spec"),
    "tensor": ("SparseTensor", "Algebra"),
    "datum": ("QuasiHopfDatum", "load", "loads", "load_path", "verify",
              "verify_quasi_bialgebra", "verify_quasi_hopf",
              "verify_quasitriangular", "default_level"),
    "report": ("CheckReport",),
    "derived": ("DerivedElements", "gamma", "delta", "big_f", "check_F_compat",
                "modify_antipode", "recover_modifier", "coopposite", "op_cop"),
    "drinfeld": ("drinfeld_u", "check_u_under_modification", "u_tilde",
                 "check_u_tilde"),
    "twisting": ("Twist", "make_twist", "twist", "random_twist",
                 "random_invertible", "check_twist_elements",
                 "opcop_twist_iso"),
    "ribbon": ("RTwistElements", "RibbonCandidate", "RibbonSearch",
               "rtwist_elements", "check_rtwist_relations", "is_ribbon",
               "check_ribbon_lemma", "check_main_theorem", "center",
               "find_ribbon"),
    "examples": ("FiniteAbelianGroup", "Cocycle3", "cocycle_zn", "cocycle_for",
                 "function_algebra", "dpr_double", "group_algebra", "sweedler"),
}

# exported name -> submodule it comes from; the submodules `dsl` and
# `errors` are exported as themselves
_MODULE_OF = {name: mod for mod, names in _SOURCES.items() for name in names}
_SUBMODULES = ("dsl", "errors")

__all__ = [name for names in _SOURCES.values() for name in names]
__all__ += _SUBMODULES


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # not cached here, so the name always reads the submodule's binding
    return getattr(importlib.import_module("." + mod, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
