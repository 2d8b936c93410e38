"""Projection kernels and a small accelerated projected-gradient minimizer.

The workhorse is the projection onto a box-capped simplex

    argmin_x  sum_j w_j (x_j - v_j)^2   s.t.  0 <= x <= upper,  1'x = total,

whose solution is ``x_j(theta) = clip(v_j - theta / w_j, 0, upper_j)`` for
the multiplier theta with ``g(theta) = 1'x(theta) = total``.  The sum g is
continuous, nonincreasing and piecewise linear with 2n kinks,
``w_j (v_j - upper_j)`` and ``w_j v_j``, so theta is found exactly by the
breakpoint method for the continuous quadratic knapsack (Kiwiel, Math.
Prog. 2008): sort the kinks, accumulate the slope and the value of g from
kink to kink, and interpolate on the segment that holds ``total``.

A batch of B rows is laid out as (2n, B), one column per row, so the sort,
both running sums and the segment count act down the columns and every
gather is one flat index.  The sort is numpy's default, not a stable one:
tied kinks bound segments of zero width, so their order leaves g
unchanged in exact arithmetic, but in floating point it reorders the
running sum of slope steps.  On rows with tied kinks and unequal weights
the last bits of theta can therefore depend on how the numpy build breaks
ties; runs on one build stay bit-identical.  A stable sort would pin those
bits at about twice the sort cost: 0.25 ms more per (1000, 10) call and
8% more time for a certified reference at N=1000.

A caller that iterates (the round's prox, the KKT residual, the baseline)
passes its current point as a ``guess``.  Each row reads its active pattern
from it: an entry <= 0 is held at 0, one >= its cap at the cap, any other
is free.  On that pattern theta has a closed form, and the row is accepted
only if the exact sign conditions hold: at least one entry is free, every
free ``v - theta / w`` lies in [0, upper], every entry held at 0 has
``v - theta / w <= 0`` and every entry held at its cap has
``v - theta / w >= upper``.  Every other row falls back to the breakpoint
method.  Guessed and unguessed calls may differ in the last bits; batched
and one-row calls with the same guess stay bit-identical.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import EmptySet, NoConvergence


def project_box_simplex_batch(
    v: np.ndarray,
    upper: np.ndarray,
    total: np.ndarray,
    weights: np.ndarray | None = None,
    guess: np.ndarray | None = None,
) -> np.ndarray:
    """Row-wise box-simplex projection of a (B, n) batch.

    Rows are independent problems and every step acts within one row, so
    batched and one-row calls produce bit-identical results.  A (B, n)
    ``guess`` (such as the caller's previous iterate) names each row's
    active pattern; rows whose pattern it names correctly are solved in
    closed form, the others by the breakpoint method.
    """
    v = np.asarray(v, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    total = np.asarray(total, dtype=np.float64)
    if weights is None:
        weights = np.ones_like(v)
    else:
        weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), v.shape)
    if v.ndim != 2 or upper.shape != v.shape:
        raise ValueError("batch projection expects matching (B, n) arrays")
    if (weights <= 0).any():
        raise ValueError("weights must be positive")
    cap = upper.sum(axis=1)
    if (total < 0).any() or (cap < total).any():
        raise EmptySet("box caps cannot reach the required total")
    if guess is None:
        return _breakpoint_projection(v, upper, total, weights, cap)
    guess = np.asarray(guess, dtype=np.float64)
    if guess.shape != v.shape:
        raise ValueError(f"guess must have the batch shape {v.shape}, got {guess.shape}")

    low = guess <= 0.0
    high = ~low & (guess >= upper)
    free = ~(low | high)
    # the theta that puts 1'x at the total with the free entries v - theta / w and the rest at 0 or u;
    # einsum's row sums are cheaper than sum(axis=1) and, like it, add within one row at a time
    free_inv = np.einsum("ij->i", free / weights)
    room = np.einsum("ij->i", free * v + high * upper) - total
    theta = room / np.where(free_inv > 0.0, free_inv, 1.0)
    z = v - theta[:, None] / weights
    x = np.minimum(np.maximum(z, 0.0), upper)
    wrong = (free & (x != z)) | (low & (z > 0.0)) | (high & (z < upper))
    miss = np.flatnonzero(wrong.any(axis=1) | (free_inv <= 0.0))
    if miss.size:
        x[miss] = _breakpoint_projection(v[miss], upper[miss], total[miss], weights[miss], cap[miss])
    return x


def _breakpoint_projection(
    v: np.ndarray, upper: np.ndarray, total: np.ndarray, weights: np.ndarray, cap: np.ndarray
) -> np.ndarray:
    """The breakpoint solve of checked (B, n) rows; ``cap`` holds the row sums of ``upper``."""
    B = v.shape[0]
    cols = np.arange(B)
    wT, inv = weights.T, 1.0 / weights.T
    kinks = np.concatenate([wT * (v.T - upper.T), wT * v.T])
    flat = np.argsort(kinks, axis=0) * B + cols
    kinks = kinks.ravel()[flat]
    # slope of g right of each kink; clamping the round-off of a zero slope keeps g nonincreasing
    slope = np.minimum(np.cumsum(np.concatenate([-inv, inv]).ravel()[flat], axis=0), 0.0)
    g = np.cumsum(np.concatenate([cap[None], slope[:-1] * (kinks[1:] - kinks[:-1])]), axis=0)
    seg = np.minimum(np.maximum((g > total).sum(axis=0) - 1, 0), kinks.shape[0] - 2)
    lo = seg * B + cols
    g0, g1 = g.ravel()[lo], g.ravel()[lo + B]
    k0, k1 = kinks.ravel()[lo], kinks.ravel()[lo + B]
    frac = np.minimum(np.maximum((g0 - total) / np.where(g0 > g1, g0 - g1, 1.0), 0.0), 1.0)
    theta = k0 + frac * (k1 - k0)
    return np.minimum(np.maximum(v - theta[:, None] / weights, 0.0), upper)


def project_box_simplex(
    v: np.ndarray,
    upper: np.ndarray,
    total: float,
    weights: np.ndarray | None = None,
    guess: np.ndarray | None = None,
) -> np.ndarray:
    """Project ``v`` onto {x : 0 <= x <= upper, 1'x = total} in the
    diagonal metric given by ``weights`` (Euclidean when omitted), the
    one-row call of :func:`project_box_simplex_batch`."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
    w = None if weights is None else np.atleast_1d(np.asarray(weights, dtype=np.float64))[None, :]
    g = None if guess is None else np.atleast_1d(np.asarray(guess, dtype=np.float64))[None, :]
    out = project_box_simplex_batch(v[None, :], upper[None, :], np.asarray([total]), w, g)
    return out[0]


def halfspace_projector(a: np.ndarray, r: float) -> Callable[[np.ndarray], np.ndarray]:
    """Euclidean projector onto {z : a'z <= r}."""
    a = np.asarray(a, dtype=np.float64)
    nrm2 = float(a @ a)
    if nrm2 == 0.0:
        if r < 0:
            raise EmptySet("degenerate halfspace 0'z <= r with r < 0")
        return lambda z: z

    def proj(z: np.ndarray) -> np.ndarray:
        excess = float(a @ z) - r
        if excess <= 0.0:
            return z
        return z - (excess / nrm2) * a

    return proj


def dykstra_projection(
    v: np.ndarray,
    projectors: list[Callable[[np.ndarray], np.ndarray]],
    tol: float = 1e-12,
    max_iters: int = 5000,
) -> np.ndarray:
    """Dykstra's alternating projection onto an intersection of convex sets."""
    x = np.asarray(v, dtype=np.float64).copy()
    increments = [np.zeros_like(x) for _ in projectors]
    for _ in range(max_iters):
        x_prev = x.copy()
        for idx, proj in enumerate(projectors):
            y = x + increments[idx]
            x = proj(y)
            increments[idx] = y - x
        if np.linalg.norm(x - x_prev) <= tol:
            return x
    raise NoConvergence(max_iters, "Dykstra projection stalled")


def fista_minimize(
    grad: Callable[[np.ndarray], np.ndarray],
    project: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
    lipschitz: float | np.ndarray,
    strong_convexity: float | np.ndarray = 0.0,
    tol: float = 1e-10,
    max_iters: int = 50_000,
) -> np.ndarray:
    """Accelerated projected-gradient minimization over a convex set.

    Fixed step 1/L.  With a positive strong-convexity modulus the constant
    momentum (1 - sqrt(q)) / (1 + sqrt(q)) is used, otherwise the classic
    t-sequence with a gradient-based restart.  Stops when the unit-step
    natural residual ``||z - project(z - grad(z))||`` drops below ``tol``.

    A (B, n) ``z0`` solves B independent problems in lock step: ``grad``
    and ``project`` act row-wise on (B, n) arrays, ``lipschitz`` and
    ``strong_convexity`` may be (B,) arrays, and a row freezes once its
    own residual is below ``tol``, so each row follows the one-row solve
    of its problem; a row whose residual is not finite is returned as NaN
    at once.  ``max_iters`` bounds the lock-step iterations.
    """
    L = np.asarray(lipschitz, dtype=np.float64)
    if np.any(L <= 0):
        raise ValueError("lipschitz bound must be positive")
    z = project(np.asarray(z0, dtype=np.float64))
    rows = z.shape[:-1]  # () for one problem, (B,) for a batch
    L = np.broadcast_to(L, rows)
    strong = np.broadcast_to(np.asarray(strong_convexity, dtype=np.float64), rows)
    root_q = np.sqrt(np.minimum(strong / L, 1.0))
    momentum = (1.0 - root_q) / (1.0 + root_q)
    y = z.copy()
    t = np.ones(rows)
    active = np.ones(rows, dtype=bool)

    def residual(z: np.ndarray) -> np.ndarray:
        return np.linalg.norm(z - project(z - grad(z)), axis=-1)

    for _ in range(max_iters):
        r = residual(z)
        if not np.isfinite(r).all():
            z = np.where(np.isfinite(r)[..., None], z, np.nan)
        active = active & (r > tol)
        if not active.any():
            return z
        z_new = project(y - grad(y) / L[..., None])
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        # restart the momentum when it points uphill
        uphill = np.sum((y - z_new) * (z_new - z), axis=-1) > 0
        t_new = np.where(uphill, 1.0, t_new)
        beta = np.where(strong > 0, momentum, np.where(uphill, 0.0, beta))
        keep = active[..., None]
        y = np.where(keep, z_new + beta[..., None] * (z_new - z), y)
        z = np.where(keep, z_new, z)
        t = t_new
    if np.all(~active | (residual(z) <= tol)):
        return z
    raise NoConvergence(max_iters, "projected-gradient inner solve stalled")
