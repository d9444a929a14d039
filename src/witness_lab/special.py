"""Special functions: the error function (from the standard library) and
complete elliptic integrals by the AGM.  Since 0.18.0 no subcommand calls
``elliptic_ke`` (the elliptic PT law is two power series in ``analytic``);
it stays because the benchmark's tracer wraps it by name (bench/spans.py),
and the test suite cross-checks it against quadrature and scipy.
"""

from __future__ import annotations

import numpy as np

# re-exported so that every caller, and tooling that wraps functions by
# module and name (bench/spans.py), finds erf/erfc here
from math import erf, erfc  # noqa: F401

# AGM stop rule c < _EPS * a: double-precision epsilon.  Once a and b are
# within an ulp, c can stay at half an ulp of a, so a smaller threshold
# may never be met and each extra step adds rounding to E.
_EPS = 2.0**-52
_MAX_AGM_STEPS = 60


def elliptic_ke(param):
    """Complete elliptic integrals (K, E) in the *parameter* convention,
    i.e. the argument is m = k^2:

        K(m) = integral_0^{pi/2} dtheta / sqrt(1 - m sin^2 theta)
        E(m) = integral_0^{pi/2} sqrt(1 - m sin^2 theta) dtheta

    Computed by the arithmetic-geometric mean iteration.  K diverges at
    m = 1; that point returns (inf, 1.0).  ``param`` is a float, which gives
    floats, or an array, which gives arrays of its shape; each element
    stops iterating when its own AGM has converged, so an element's value
    does not depend on the others.
    """
    m = np.asarray(param, dtype=float)
    if not np.all((0.0 <= m) & (m <= 1.0)):
        raise ValueError(f"parameter must lie in [0, 1], got {param}")
    b = np.sqrt(1.0 - m)
    a = np.ones_like(b)
    pow2 = 0.5
    csum = pow2 * (1.0 - b) * (1.0 + b)
    at_one = b == 0.0
    active = ~at_one
    for _ in range(_MAX_AGM_STEPS):
        if not active.any():
            break
        c = (a - b) / 2.0
        a_next, b = (a + b) / 2.0, np.sqrt(a * b)
        pow2 *= 2.0
        csum = np.where(active, csum + pow2 * c * c, csum)
        a = np.where(active, a_next, a)
        active &= ~(c < _EPS * a)
    if active.any():
        raise ArithmeticError(f"AGM did not converge in {_MAX_AGM_STEPS} steps")
    k_val = np.where(at_one, np.inf, np.pi / (2.0 * a))
    e_val = np.where(at_one, 1.0, k_val * (1.0 - csum))
    if k_val.ndim == 0:
        return float(k_val), float(e_val)
    return k_val, e_val
