"""zetaline: the Riemann zeta function on vertical lines, Fourier-analytically.

The package computes the coefficient family that expands zeta(sigma + it)
against the orthonormal basis e_n(t) = ((1/2 - it)/(1/2 + it))**n of
L2 of the Cauchy probability measure dmu = dt / (2 pi (1/4 + t^2)), and
everything that flows from it: high-precision Stieltjes constants, the disk
generating function and its partial-sum zero searches, closed-form integral
identities verified against independent quadrature, and Boole-map ergodic
averages.
"""

from .precision import PrecisionCtx, binom_exact, hreal_to_str, str_to_hreal
from .zeta import (
    RegionError,
    StieltjesTable,
    ZetaPoleError,
    stieltjes,
    stieltjes_limit_oracle,
    zeta_derivative,
    zeta_em,
    zeta_minus_pole,
)
from .coefficients import (
    CoeffTable,
    coeffs_critical,
    coeffs_line,
    coeffs_power,
    decay_diagnostics,
)
from .series import (
    basis_e,
    cayley,
    cayley_inv,
    cs_bound_check,
    eval_h,
    partial_sum_fN,
    phi,
    zeta_via_series,
)
from .quadrature import (
    QuadratureResult,
    bsy_integral,
    cross_moment_closed_form,
    cross_moment_wow,
    identity_coffey,
    identity_hnorm,
    log_integral_disk,
    moment_oracle,
    outer_function,
    phi_l2_halfline,
)
from .roots import RootReport, roots_fN, tail_radius_certificate, winding_count
from .ergodic import birkhoff_average, birkhoff_averages, boole_step, invariance_check

__version__ = "0.1.0"
