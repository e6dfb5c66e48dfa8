"""Exact-arithmetic toolkit for local representations of the loop braid
group: braided vector space checks, the affine mod-m family and its image
order, tensor color representations with their charge and harmonic
decompositions, localization, branching and irreducibility analysis, and
cubic-algebra relation certificates."""

__version__ = "0.1.0"

# The public names, by the module that defines each.  A name is imported
# on first use (PEP 562), so `import loopbraid` loads no submodule and a
# CLI run loads only the modules of its command.
_EXPORTS = {
    "errors": ("GroupTypeViolation", "IncompleteMatch", "LoopBraidError", "NonFieldModulus",
               "NotAUnit", "NotGroupType", "NotIdempotent", "NotStochastic", "SingularImage"),
    "rings": ("QQ", "LQ", "IntegersMod", "LaurentPoly", "Rational", "ZmInt", "mod_inverse",
              "unit_group"),
    "linalg": ("Matrix", "WeightedPerm"),
    "words": ("Generator", "RelationSet", "check_relations", "evaluate_word", "relations_for",
              "s_", "sigma"),
    "braided": ("BVS", "GroupTypeData", "LoopBVS", "affine_bvs", "affine_loop",
                "bvs_from_group_type", "c2_hecke", "check_yang_baxter", "diagonal_bvs",
                "extend_to_loop", "is_diagonalizable_group_type", "local_rep", "swap_bvs",
                "tau_loop"),
    "affine": ("AffineParams", "AglElement", "agl_order", "generate_image", "rho_generators",
               "surjectivity_predicate", "to_agl_form"),
    "tensor": ("ChargeBlock", "HarmonicLabel", "ModuleSpec", "TauRep", "charge_blocks",
               "f_operator", "harmonic_blocks", "harmonic_decompose", "localize",
               "right_color_action"),
    "analysis": ("bmw_check", "branching_graph", "end_dim", "hom_dim", "is_e_null",
                 "is_irreducible", "restrict_and_branch", "semisimplicity_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    return getattr(import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
