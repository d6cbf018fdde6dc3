"""Exact arithmetic for basic Eulerian polynomials, valley-hopping
actions, the rix-factorization, the hook-to-cycle bijection, gamma
expansions, and an exhaustive verification harness."""

from .errors import (
    BudgetExceeded,
    LabelOutOfRange,
    MismatchAgainstDirect,
    NotABijection,
    NotExpandable,
    NotInDomain,
    OutOfRange,
)
from .mpoly import (
    GammaExpansion,
    MPoly,
    gamma_extract,
    q_binomial,
)
from .perm import StatisticBundle, parse_permutation, statistics
from .series import TruncatedSeries
from .rixfact import RixFactorization, rix, rix_factorize, rixed_points
from .actions import (
    canonical_rep,
    foata_strehl,
    mfs,
    mfs_single,
    orbit,
    restricted_mfs,
    restricted_mfs_single,
)
from .bijections import f_inv, f_map, lyc, phi, phi_inv, scf
from .families import (
    basic_eulerian,
    cyc_gamma,
    gamma_basic,
    gamma_derangement,
    gamma_poly,
    gamma_tilde_poly,
    sw3_gamma,
)
from .checks import CHECKS, VerificationReport, run_check, run_checks

__all__ = [
    "BudgetExceeded",
    "LabelOutOfRange",
    "MismatchAgainstDirect",
    "NotABijection",
    "NotExpandable",
    "NotInDomain",
    "OutOfRange",
    "GammaExpansion",
    "MPoly",
    "gamma_extract",
    "q_binomial",
    "StatisticBundle",
    "parse_permutation",
    "statistics",
    "TruncatedSeries",
    "RixFactorization",
    "rix",
    "rix_factorize",
    "rixed_points",
    "canonical_rep",
    "foata_strehl",
    "mfs",
    "mfs_single",
    "orbit",
    "restricted_mfs",
    "restricted_mfs_single",
    "f_inv",
    "f_map",
    "lyc",
    "phi",
    "phi_inv",
    "scf",
    "basic_eulerian",
    "cyc_gamma",
    "gamma_basic",
    "gamma_derangement",
    "gamma_poly",
    "gamma_tilde_poly",
    "sw3_gamma",
    "CHECKS",
    "VerificationReport",
    "run_check",
    "run_checks",
]
