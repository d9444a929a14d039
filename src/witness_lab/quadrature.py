"""Adaptive Gauss-Kronrod quadrature (G7/K15 panels, global error control).

Refinement always bisects the panel with the largest error estimate until
the summed estimate meets the tolerance, so integrable endpoint
singularities cost a geometric cascade of panels instead of an exponential
tree.  The Kronrod nodes are interior, so the integrand is never evaluated
at an endpoint; a caller splits the domain at an interior singularity.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

import numpy as np

# 15-point Kronrod nodes on [-1, 1] (nonnegative half) and weights, with the
# embedded 7-point Gauss weights on the odd-indexed nodes.
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

DEFAULT_TOL = 1e-9
_MAX_PANELS = 4096


def _gk15(f_nodes: Callable, a, b):
    """One G7/K15 panel on [a, b]; returns (integral, error estimate).

    ``f_nodes`` maps the list of the 15 abscissae (the pairs mid -/+ half*x
    for the nonzero nodes, then the center) to the integrand values there,
    in the same order.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = []
    for x in _XK[:-1]:
        xs += [mid - half * x, mid + half * x]
    xs.append(mid)
    fx = f_nodes(xs)
    fk = 0.0
    fg = 0.0
    for i in range(len(_XK) - 1):
        pair = fx[2 * i] + fx[2 * i + 1]
        fk += _WK[i] * pair
        if i % 2 == 1:
            fg += _WG[i // 2] * pair
    fk += _WK[-1] * fx[-1]
    fg += _WG[-1] * fx[-1]
    return fk * half, abs(fk - fg) * half


def integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``DEFAULT_TOL``.

    Raises ``ArithmeticError`` when ``_MAX_PANELS`` panels do not reach
    the tolerance.
    """
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a)
    return _adaptive(lambda xs: [f(x) for x in xs], a, b)


def _adaptive(f_nodes: Callable, a: float, b: float) -> float:
    """``integrate``'s panel loop on a < b, from the single panel [a, b],
    with ``f_nodes`` as in ``_gk15``."""
    min_width = 1e-15 * (b - a)
    val, err = _gk15(f_nodes, a, b)
    heap: list[tuple[float, int, float, float, float]] = [(-err, 0, a, b, val)]  # (-err, id, lo, hi, val)
    frozen: list[tuple[float, float]] = []  # (lo, val) of panels we stop touching
    counter = 1
    total_err = err

    while total_err > DEFAULT_TOL and heap:
        if counter >= _MAX_PANELS:
            raise ArithmeticError(
                f"quadrature on [{a!r}, {b!r}] stopped at {counter} panels with "
                f"error estimate {total_err:.3g} > tol {DEFAULT_TOL:.3g}"
            )
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        err = -neg_err
        if hi - lo <= min_width or err == 0.0:
            # cannot usefully refine further; keep its value as final
            frozen.append((lo, val))
            total_err -= err
            continue
        mid = 0.5 * (lo + hi)
        val_l, err_l = _gk15(f_nodes, lo, mid)
        val_r, err_r = _gk15(f_nodes, mid, hi)
        total_err += err_l + err_r - err
        heapq.heappush(heap, (-err_l, counter, lo, mid, val_l))
        counter += 1
        heapq.heappush(heap, (-err_r, counter, mid, hi, val_r))
        counter += 1

    pieces = frozen + [(lo, val) for (_, _, lo, _, val) in heap]
    pieces.sort()
    return sum(val for _, val in pieces)


def cumulative(f: Callable[[np.ndarray], np.ndarray], start: float, points) -> np.ndarray:
    """Running integral of ``f`` from ``start`` to each of the nondecreasing
    ``points``; used for building CDFs at sample locations.

    ``f`` acts elementwise on arrays.  Each nonempty gap between consecutive
    points goes to ``integrate``'s panel loop, with one call of ``f`` on the
    15 nodes of each panel, so it gets the bits ``integrate`` would give it
    alone; the gaps are summed in order.
    """
    points = np.asarray(points, dtype=float)
    lo = np.concatenate(([start], points[:-1]))
    if np.any(points < lo):
        raise ValueError("points must be nondecreasing and >= start")

    def f_nodes(xs):
        return f(np.stack(xs))

    return np.cumsum([_adaptive(f_nodes, a, b) if b > a else 0.0 for a, b in zip(lo.tolist(), points.tolist())])
