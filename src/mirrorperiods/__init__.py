"""Verification toolkit for the quartic-K3 / Legendre-family period story:
exact q-expansion identities, mirror map = period map, zeta-factor relations
at lambda = 2, and the rational L-value ratios of the quartic surface."""

__version__ = "0.1.0"

from .qseries import RationalSeries, SeriesError, eta_product
from .hyperfun import (DEFAULT_DIGITS, PrecisionError, eta_value, hyp2f1_series,
                       theta_const, working_precision)
from .periods import (DworkPeriods, Entry, check_identity, dwork_periods,
                      identity_ids, lambda_q_series, quad_map)
from .pfode import ContinuationPath, PathError, SolutionFrame, continue_solution, tau_at
from .arith import (BadReductionError, ZetaRecord, ap_legendre, bp_eta,
                    fermat_quartic_count, zeta_table)
from .deligne import (DelignePeriodSet, LValueResult, ReconstructionError,
                      deligne_periods, lvalue, verify_ratios)
