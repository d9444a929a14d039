"""Adaptive Gauss-Kronrod quadrature (G7/K15 panels, global error control).

Refinement always bisects the panel with the largest error estimate until
the summed estimate meets the tolerance, so integrable endpoint
singularities cost a geometric cascade of panels instead of an exponential
tree.  Known interior singularities are pre-split with a small offset
(1e-6); the Kronrod nodes are interior, so the integrand is never evaluated
at the singular point itself.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable

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
_SINGULARITY_OFFSET = 1e-6
_MAX_PANELS = 4096
# gaps per vectorised panel evaluation in ``cumulative``; bounds the memory
# of the sweep (15 nodes and the AGM's work arrays per gap)
_SWEEP_BLOCK = 1024


def _gk15(f_nodes: Callable, a, b):
    """One G7/K15 panel on [a, b]; returns (integral, error estimate).

    ``a`` and ``b`` are floats, or arrays holding one panel per element.
    ``f_nodes`` maps the list of the 15 abscissae (the pairs mid -/+ half*x
    for the nonzero nodes, then the center) to the integrand values there,
    in the same order.  The values are combined node by node, so a panel
    gives the same bits whether it is evaluated alone or with others.
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


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    singularities: Iterable[float] = (),
) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``DEFAULT_TOL``.

    ``singularities`` lists points where the integrand may blow up
    (integrably); the domain is pre-split there with a small offset.
    Raises ``ArithmeticError`` when ``_MAX_PANELS`` panels do not reach
    the tolerance.
    """
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, singularities=singularities)

    cuts = [a, b]
    for s in singularities:
        for point in (s - _SINGULARITY_OFFSET, s, s + _SINGULARITY_OFFSET):
            if a < point < b:
                cuts.append(point)
    cuts = sorted(set(cuts))

    def f_nodes(xs):
        return [f(x) for x in xs]

    min_width = 1e-15 * (b - a)
    heap: list[tuple[float, int, float, float, float]] = []  # (-err, id, lo, hi, val)
    frozen: list[tuple[float, float]] = []  # (lo, val) of panels we stop touching
    counter = 0
    total_err = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, err = _gk15(f_nodes, lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val))
        counter += 1
        total_err += err

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


def cumulative(
    f: Callable[[np.ndarray], np.ndarray],
    start: float,
    points,
    singularities: Iterable[float] = (),
) -> np.ndarray:
    """Running integral of ``f`` from ``start`` to each of the nondecreasing
    ``points``; used for building CDFs at sample locations.

    ``f`` acts elementwise on arrays and on floats.  One G7/K15 panel is
    evaluated on every gap between consecutive points at once, in blocks of
    ``_SWEEP_BLOCK`` gaps.  A gap whose panel misses ``DEFAULT_TOL``, or that
    contains a singularity, goes to ``integrate``, which computes the same
    panel (after splitting at the singularity) and refines it.  Each gap
    therefore gets the bits ``integrate`` would give it alone, and the gaps
    are summed in order.
    """
    points = np.asarray(points, dtype=float)
    lo = np.concatenate(([start], points[:-1]))
    if np.any(points < lo):
        raise ValueError("points must be nondecreasing and >= start")
    live = np.flatnonzero(points > lo)
    a, b = lo[live], points[live]

    def f_nodes(xs):
        return f(np.stack(xs))

    vals, errs = np.empty(len(live)), np.empty(len(live))
    for i in range(0, len(live), _SWEEP_BLOCK):
        block = slice(i, i + _SWEEP_BLOCK)
        vals[block], errs[block] = _gk15(f_nodes, a[block], b[block])
    sings = sorted(singularities)
    refine = errs > DEFAULT_TOL
    for s in sings:
        refine |= (a < s) & (s < b)
    for j in np.flatnonzero(refine):
        inner = [s for s in sings if a[j] < s < b[j]]
        vals[j] = integrate(f, a[j], b[j], singularities=inner)
    gaps = np.zeros(len(points) + 1)
    gaps[live + 1] = vals
    return np.cumsum(gaps)[1:]
