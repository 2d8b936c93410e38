"""Extended-space operators and equilibrium diagnostics.

The solver state lives in the extended space (x, y, sigma, mu, lam):
stacked decisions, stacked link variables y_i = A_i x_i - b_i, the
coordinator's aggregate estimate sigma, the consensus multiplier mu and
the coupling multiplier lam.  This module provides the stacked cost
gradients in their three flavors, the linear skew coupling map, and the
first-order optimality residuals used for certification.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatch
from .game import Dimensions, GameSpec, average


@dataclass
class ExtendedPoint:
    """A point of the extended space; blocks are kept separate for clarity."""

    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray
    mu: np.ndarray
    lam: np.ndarray

    def check_dims(self, dims: Dimensions) -> None:
        expected = {
            "x": (dims.N * dims.n,),
            "y": (dims.N * dims.m,),
            "sigma": (dims.n,),
            "mu": (dims.n,),
            "lam": (dims.m,),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise DimensionMismatch(f"block {name} has shape {getattr(self, name).shape}, expected {shape}")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.y, self.sigma, self.mu, self.lam])

    def copy(self) -> "ExtendedPoint":
        return ExtendedPoint(
            self.x.copy(), self.y.copy(), self.sigma.copy(), self.mu.copy(), self.lam.copy()
        )

    def x_blocks(self, n: int) -> np.ndarray:
        return self.x.reshape(-1, n)

    def y_blocks(self, m: int) -> np.ndarray:
        return self.y.reshape(-1, m)

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
        return float(np.sqrt(sum(float(b @ b) for b in (self.x, self.y, self.sigma, self.mu, self.lam))))


# -- stacked cost gradients ------------------------------------------------------------


def extended_subdifferential(game: GameSpec, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Stacked gradients with the aggregate treated as the free variable sigma."""
    dims = game.dims
    X = x.reshape(dims.N, dims.n) if x.shape == (dims.N * dims.n,) else None
    if X is None:
        raise DimensionMismatch("decision vector has the wrong length")
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (dims.n,):
        raise DimensionMismatch("aggregate has the wrong length")
    return game.grad(X, sigma).ravel()


# -- the linear skew coupling map ------------------------------------------------------


def apply_S(dims: Dimensions, w: ExtendedPoint) -> ExtendedPoint:
    """The skew coupling map tying decisions, links, aggregate and multipliers.

    Block action: (-mu/N per agent, lam/N per agent, mu, avg(x) - sigma, -avg(y)).
    """
    w.check_dims(dims)
    N = dims.N
    x_out = np.tile(-w.mu / N, N)
    y_out = np.tile(w.lam / N, N)
    return ExtendedPoint(
        x=x_out,
        y=y_out,
        sigma=w.mu.copy(),
        mu=average(w.x, dims.n) - w.sigma,
        lam=-average(w.y, dims.m),
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


def stationarity_residual(game: GameSpec, x: np.ndarray, lam: np.ndarray) -> float:
    """Worst-agent natural residual of 0 in grad_i + A_i' lam + normal cone,
    the gradients taken with the aggregate frozen at the actual average; the
    projection is warm-started from x."""
    X = x.reshape(game.dims.N, game.dims.n)
    G = game.grad(X, X.mean(axis=0)) + game.adjoint(lam)
    P = game.project_each(X - G, guess=X)
    return float(np.max(np.linalg.norm(X - P, axis=1)))


def kkt_residual(game: GameSpec, w: ExtendedPoint) -> KktResidual:
    """All first-order residuals of an extended point."""
    dims = game.dims
    w.check_dims(dims)
    X, Y = w.x.reshape(dims.N, dims.n), w.y.reshape(dims.N, dims.m)
    resid = game.coupling_value(X) - game.b_total
    links = game.link_values(X)
    return KktResidual(
        stationarity=stationarity_residual(game, w.x, w.lam),
        primal=float(np.max(np.maximum(resid, 0.0), initial=0.0)),
        complementarity=abs(float(w.lam @ resid)),
        dual_sign=float(np.max(np.maximum(-w.lam, 0.0), initial=0.0)),
        consensus=float(np.max(np.abs(w.sigma - average(w.x, dims.n)))),
        link=float(np.max(np.abs(Y - links), initial=0.0)),
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
        X = upper * rng.random((dims.N, dims.n))
        s = upper_s * rng.random(dims.n)
        return X.ravel(), s

    inners = np.empty(sample_count)
    for k in range(sample_count):
        x1, s1 = draw()
        x2, s2 = draw()
        df = extended_subdifferential(game, x1, s1) - extended_subdifferential(game, x2, s2)
        inners[k] = float(df @ (x1 - x2))
    reports[sample_count, seed] = ProbeReport(
        samples=sample_count,
        min_inner=float(inners.min()),
        mean_inner=float(inners.mean()),
        negative_fraction=float(np.mean(inners < 0.0)),
    )
    return reports[sample_count, seed]
