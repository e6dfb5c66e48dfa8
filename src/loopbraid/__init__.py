"""Exact-arithmetic toolkit for local representations of the loop braid
group: braided vector space checks, the affine mod-m family and its image
order, tensor color representations with their charge and harmonic
decompositions, localization, branching and irreducibility analysis, and
cubic-algebra relation certificates."""

__version__ = "0.1.0"

from .errors import (GroupTypeViolation, IncompleteMatch, LoopBraidError,
                     NonFieldModulus, NotAUnit, NotGroupType, NotIdempotent,
                     NotStochastic, SingularImage)
from .rings import QQ, LQ, IntegersMod, LaurentPoly, Rational, ZmInt, \
    mod_inverse, unit_group
from .linalg import Matrix, WeightedPerm
from .words import (Generator, RelationSet, check_relations, evaluate_word,
                    relations_for, s_, sigma)
from .braided import (BVS, GroupTypeData, LoopBVS, affine_bvs, affine_loop,
                      bvs_from_group_type, c2_hecke, check_yang_baxter,
                      diagonal_bvs, extend_to_loop, is_diagonalizable_group_type,
                      local_rep, swap_bvs, tau_loop)
from .affine import (AffineParams, AglElement, agl_order, generate_image,
                     rho_generators, surjectivity_predicate, to_agl_form)
from .tensor import (ChargeBlock, HarmonicLabel, ModuleSpec, TauRep,
                     charge_blocks, f_operator, harmonic_blocks,
                     harmonic_decompose, localize, right_color_action)
from .analysis import (bmw_check, branching_graph, end_dim, hom_dim, is_e_null,
                       is_irreducible, restrict_and_branch, semisimplicity_check)
