"""voazhu: exact computations in the level-N Zhu algebras of a vertex
operator algebra, their quotient bimodules, and intertwining-operator
fusion bounds, instantiated on the rank-1 Heisenberg and Virasoro algebras.

Everything is exact rational arithmetic; identity checks either hold on
the nose or come back with a counterexample vector.
"""

from .formal import binom
from .identities import (alternating_binomial_sum,
                         verify_bivariate_binomial_cancellation,
                         verify_telescoping_binomial_sum)
from .basis import BasisVector, GradedVector
from .modules import GenModule, VOAlgebra, basis_window, partitions
from .heisenberg import FockModule, HeisenbergVOA
from .virasoro import VermaModule, VirasoroVOA
from .ops import commutator_check, ywv_mode
from .linalg import SparseEchelon, WindowSubspace
from .zhu import (IdealWindow, MembershipCert, ZhuContext, certify,
                  certify_membership, circ_residue, lp_element, o_action,
                  omega0_basis, star_product, zhu_context)
from .bimodule import (BimoduleContext, action_swap_defect, bimodule_context,
                       certify_bimodule_membership, check_axiom, circ_w,
                       circ_wv, commutator_defect, intertwiner_ideal_context,
                       left_star, right_star, right_star_alt)
from .intertwiner import (FockIntertwiner, LogIntertwiner, TableIntertwiner,
                          check_derivative_rule, check_hom_properties,
                          fusion_dim, fusion_report, induced_hom, y0_part)
from .errors import (DepthExceededError, UnknownGeneratorError, VoazhuError,
                     WindowOverflowError)

__version__ = "0.1.0"
