"""Special functions: the error function (from the standard library) and
complete elliptic integrals, implemented in-repo by the AGM so the
library's numerical contract does not lean on an external package; the test
suite cross-checks them against quadrature and scipy.
"""

from __future__ import annotations

import math

# re-exported so that every caller, and tooling that wraps functions by
# module and name (bench/spans.py), finds erf/erfc here
from math import erf, erfc  # noqa: F401

_EPS = 1e-17


def elliptic_ke(param: float) -> tuple[float, float]:
    """Complete elliptic integrals (K, E) in the *parameter* convention,
    i.e. the argument is m = k^2:

        K(m) = integral_0^{pi/2} dtheta / sqrt(1 - m sin^2 theta)
        E(m) = integral_0^{pi/2} sqrt(1 - m sin^2 theta) dtheta

    Computed by the arithmetic-geometric mean iteration.  K diverges at
    m = 1; that point returns (inf, 1.0).
    """
    if not 0.0 <= param <= 1.0:
        raise ValueError(f"parameter must lie in [0, 1], got {param}")
    if param == 0.0:
        return math.pi / 2, math.pi / 2
    if param == 1.0:
        return math.inf, 1.0
    a = 1.0
    b = math.sqrt(1.0 - param)
    c = math.sqrt(param)
    pow2 = 0.5
    csum = pow2 * c * c
    for _ in range(60):
        c = (a - b) / 2.0
        a, b = (a + b) / 2.0, math.sqrt(a * b)
        pow2 *= 2.0
        csum += pow2 * c * c
        if c < _EPS * a:
            break
    k_val = math.pi / (2.0 * a)
    return k_val, k_val * (1.0 - csum)
