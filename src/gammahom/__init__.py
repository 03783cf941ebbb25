"""Combinatorial Segal machine: Gamma-spaces, their delooping towers, and
the stable homology of the associated (pre-)spectra over Z, Q and F_p."""

from .chains import (GF, QQ, ZZ, ChainComplex, CooMatrix, HomologyGroup,
                     HomologyTable, Multicomplex, Ring, homology,
                     parse_ring, smith_normal_form, total_complex)
from .errors import BudgetExceeded, IntegrityError, LimitExceeded
from .gamma import (FinPointedSet, PointedMap, circle_degeneracy,
                    circle_face, compose, identity_map, mu, sharp, smash,
                    standard_inclusion, wedge, wedge_inclusions)
from .segal import (GammaMap, GammaSpace, SpecialVerdict, counit,
                    delooping, discrete_abelian, free_gamma_space,
                    is_special, mu_pullback, parse_space, point_space,
                    smash_gamma, spectrum_level, sphere_space,
                    structure_map, suspension, tower_map, underlying_space,
                    wedge_gamma)
from .simplicial import (MSMap, MSSet, chains_of_map, circle,
                         constant_object, diagonal_ss, normalized_chains,
                         point_object, product_ss, smash_ss, suspension_ss,
                         two_point_object, wedge_ss)
from .stable import (CheckReport, StableResult, check_commuting_square,
                     check_rho_iso, check_smash_vanishing,
                     check_stable_range, check_wedge_iso, connectivity,
                     gamma_homology, spectrum_homology)

__version__ = "0.1.0"
