"""Extended-space operators and equilibrium diagnostics.

The solver state lives in the extended space (x, y, sigma, mu, lam):
the (N, n) decisions, one row x_i per agent, the (N, m) link variables
y_i = A_i x_i - b_i, the coordinator's aggregate estimate sigma, the
consensus multiplier mu and the coupling multiplier lam.  This module
provides the linear skew coupling map, the first-order optimality
residuals used for certification and the monotonicity probe.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatch
from .game import Dimensions, GameSpec, _as_float_array


@dataclass
class ExtendedPoint:
    """A point of the extended space: the (N, n) decisions ``x``, the (N, m) links ``y``
    and the central blocks ``sigma``, ``mu`` and ``lam``."""

    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray
    lam: np.ndarray

    def check_dims(self, dims: Dimensions) -> None:
        expected = {
            "x": (dims.N, dims.n),
            "y": (dims.N, dims.m),
            "sigma": (dims.n,),
            "mu": (dims.n,),
            "lam": (dims.m,),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise DimensionMismatch(f"block {name} has shape {getattr(self, name).shape}, expected {shape}")

    def as_vector(self) -> np.ndarray:
        """The blocks flattened in order, decisions and links row by row."""
        return np.concatenate([self.x.ravel(), self.y.ravel(), self.sigma, self.mu, self.lam])

    def copy(self) -> "ExtendedPoint":
        return ExtendedPoint(
            self.x.copy(), self.y.copy(), self.sigma.copy(), self.mu.copy(), self.lam.copy()
        )

    def __add__(self, other: "ExtendedPoint") -> "ExtendedPoint":
        return ExtendedPoint(
            self.x + other.x,
            self.y + other.y,
            self.sigma + other.sigma,
            self.mu + other.mu,
            self.lam + other.lam,
        )

    def __sub__(self, other: "ExtendedPoint") -> "ExtendedPoint":
        return ExtendedPoint(
            self.x - other.x,
            self.y - other.y,
            self.sigma - other.sigma,
            self.mu - other.mu,
            self.lam - other.lam,
        )

    def __rmul__(self, scalar: float) -> "ExtendedPoint":
        s = float(scalar)
        return ExtendedPoint(s * self.x, s * self.y, s * self.sigma, s * self.mu, s * self.lam)

    def norm(self) -> float:
        return float(np.sqrt(sum(float(np.vdot(b, b)) for b in (self.x, self.y, self.sigma, self.mu, self.lam))))


# -- the linear skew coupling map ------------------------------------------------------


def apply_S(dims: Dimensions, w: ExtendedPoint) -> ExtendedPoint:
    """The skew coupling map tying decisions, links, aggregate and multipliers.

    Block action: (-mu/N per agent, lam/N per agent, mu, avg(x) - sigma, -avg(y)).
    """
    w.check_dims(dims)
    N = dims.N
    return ExtendedPoint(
        x=np.tile(-w.mu / N, (N, 1)),
        y=np.tile(w.lam / N, (N, 1)),
        sigma=w.mu.copy(),
        mu=w.x.mean(axis=0) - w.sigma,
        lam=-w.y.mean(axis=0),
    )


# -- first-order optimality residuals --------------------------------------------------


@dataclass(frozen=True)
class KktResidual:
    """First-order optimality residuals of an extended point.

    stationarity     worst-agent natural residual of the per-agent inclusion
    primal           max coupling violation
    complementarity  |lam' (A x - b)|
    dual_sign        max negative part of lam
    consensus        max |sigma - avg(x)|
    link             worst-agent max |y_i - (A_i x_i - b_i)|
    """

    stationarity: float
    primal: float
    complementarity: float
    dual_sign: float
    consensus: float
    link: float

    def max_value(self) -> float:
        """The largest residual; NaN when any residual is NaN."""
        values = vars(self).values()
        return math.nan if any(map(math.isnan, values)) else max(values)

    def to_dict(self) -> dict:
        return asdict(self)


def stationarity_residual(game: GameSpec, X: np.ndarray, lam: np.ndarray) -> float:
    """Worst-agent natural residual of 0 in grad_i + A_i' lam + normal cone at
    the (N, n) decisions ``X``, the gradients taken with the aggregate frozen at
    the actual average; the projection is warm-started from ``X``.  An ``X`` that
    is not (N, n) or a ``lam`` that is not (m,) raises :class:`DimensionMismatch`;
    non-finite entries pass through to the residual."""
    X, lam = _as_float_array(X, game.upper.shape), _as_float_array(lam, (game.dims.m,))
    G = game.grad(X, X.mean(axis=0)) + game.adjoint(lam)
    P = game.project_each(X - G, guess=X)
    return float(np.max(np.linalg.norm(X - P, axis=1)))


def kkt_residual(game: GameSpec, w: ExtendedPoint) -> KktResidual:
    """All first-order residuals of an extended point."""
    dims = game.dims
    w.check_dims(dims)
    resid = game.coupling_value(w.x) - game.b_total
    return KktResidual(
        stationarity=stationarity_residual(game, w.x, w.lam),
        primal=float(np.max(np.maximum(resid, 0.0), initial=0.0)),
        complementarity=abs(float(w.lam @ resid)),
        dual_sign=float(np.max(np.maximum(-w.lam, 0.0), initial=0.0)),
        consensus=float(np.max(np.abs(w.sigma - w.x.mean(axis=0)))),
        link=float(np.max(np.abs(w.y - game.link_values(w.x)), initial=0.0)),
    )


# -- monotonicity probing --------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    """Sampling evidence about monotonicity of the aggregate-extended gradient map."""

    samples: int
    min_inner: float
    mean_inner: float
    negative_fraction: float

    @property
    def looks_monotone(self) -> bool:
        return self.min_inner >= 0.0


def monotonicity_probe(game: GameSpec, sample_count: int = 1000, seed: int = 0) -> ProbeReport:
    """Sample pairs in the box (0, upper) of the local sets and test the
    monotonicity inner product.

    A negative minimum falsifies monotonicity of the extended gradient map
    on this instance; a nonnegative minimum is evidence only.  Convergence
    has been observed on instances where this probe fails, so callers
    should treat a negative result as a warning.  The report is computed
    once per game, sample count and seed.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    reports = game._probes
    if (sample_count, seed) in reports:
        return reports[sample_count, seed]
    dims = game.dims
    rng = np.random.default_rng(seed)
    upper = game.upper
    upper_s = upper.mean(axis=0)

    def draw():
        return upper * rng.random((dims.N, dims.n)), upper_s * rng.random(dims.n)

    inners = np.empty(sample_count)
    for k in range(sample_count):
        X1, s1 = draw()
        X2, s2 = draw()
        inners[k] = float(np.vdot(game.grad(X1, s1) - game.grad(X2, s2), X1 - X2))
    reports[sample_count, seed] = ProbeReport(
        samples=sample_count,
        min_inner=float(inners.min()),
        mean_inner=float(inners.mean()),
        negative_fraction=float(np.mean(inners < 0.0)),
    )
    return reports[sample_count, seed]
