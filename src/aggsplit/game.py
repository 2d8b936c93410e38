"""Game data model: local sets, costs, coupling data, validation.

An instance couples N agents through the average of their decisions and
through m affine constraints ``A x <= b`` with ``A = [A_1 ... A_N]`` and
``b = sum_i b_i``.  Everything here is an immutable value object; the
solver modules treat a ``GameSpec`` as shared read-only data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .errors import DimensionMismatch, EmptyLocalSet, Infeasible, NonSmoothCost
from .projections import project_box_simplex, project_box_simplex_batch

# Strict-feasibility margin used by the phase-1 search.
SLATER_MARGIN = 1e-9
FEASIBILITY_MAX_ITERS = 10_000


@dataclass(frozen=True)
class Dimensions:
    """Problem sizes: N agents, n decision variables each, m coupling rows."""

    N: int
    n: int
    m: int

    def __post_init__(self):
        if self.N < 1 or self.n < 1 or self.m < 1:
            raise DimensionMismatch("N, n and m must all be at least 1")

    @property
    def d(self) -> int:
        """Extended-space dimension: decisions, links, aggregate, two multipliers."""
        return self.n * self.N + self.m * self.N + 2 * self.n + self.m


def _as_float_array(value, shape=None) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if shape is not None and arr.shape != shape:
        raise DimensionMismatch(f"expected shape {shape}, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class BoxSimplex:
    """Capped simplex {x : 0 <= x <= upper, 1'x = total}.

    Nonempty iff ``sum(upper) >= total >= 0``; checked at construction.
    """

    upper: np.ndarray
    total: float = 1.0

    def __post_init__(self):
        upper = np.atleast_1d(_as_float_array(self.upper))
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "total", float(self.total))
        if np.any(upper < 0):
            raise ValueError("upper caps must be nonnegative")
        if self.total < 0 or float(upper.sum()) < self.total:
            raise EmptyLocalSet()

    @property
    def n(self) -> int:
        return self.upper.shape[0]

    def project(self, v: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        return project_box_simplex(v, self.upper, self.total, weights)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        x = _as_float_array(x, (self.n,))
        return bool(
            np.all(x >= -tol)
            and np.all(x <= self.upper + tol)
            and abs(float(x.sum()) - self.total) <= tol
        )

    def default_point(self) -> np.ndarray:
        return self.project(np.zeros(self.n))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(self.n), self.upper.copy()


@dataclass(frozen=True)
class GenericConvex:
    """Opaque convex set given through a projection oracle.

    ``project_fn(v, weights)`` must return the projection of ``v`` in the
    diagonal metric ``weights`` (Euclidean when ``weights`` is None).
    """

    n: int
    project_fn: Callable[[np.ndarray, np.ndarray | None], np.ndarray]

    def project(self, v: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        return np.asarray(self.project_fn(np.asarray(v, dtype=np.float64), weights), dtype=np.float64)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        x = _as_float_array(x, (self.n,))
        return bool(np.linalg.norm(x - self.project(x)) <= tol)

    def default_point(self) -> np.ndarray:
        return self.project(np.zeros(self.n))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        # probe with projected Gaussians; good enough for sampling domains
        rng = np.random.default_rng(0)
        pts = np.stack([self.project(3.0 * rng.standard_normal(self.n)) for _ in range(64)])
        return pts.min(axis=0), pts.max(axis=0)


LocalSet = Union[BoxSimplex, GenericConvex]


@dataclass(frozen=True)
class QuadraticAgg:
    """Cost ``0.5 * a ||x - xtilde||^2 + (Q sigma)' x`` with frozen aggregate sigma."""

    a: float
    xtilde: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        xt = np.atleast_1d(_as_float_array(self.xtilde))
        object.__setattr__(self, "xtilde", xt)
        q = _as_float_array(self.Q, (xt.shape[0], xt.shape[0]))
        object.__setattr__(self, "Q", q)
        if not self.a > 0:
            raise ValueError("quadratic weight a must be positive")
        if not np.all(np.isfinite(q)):
            raise ValueError("aggregate coupling matrix must be finite")

    def value(self, x: np.ndarray, sigma: np.ndarray) -> float:
        dx = x - self.xtilde
        return 0.5 * self.a * float(dx @ dx) + float((self.Q @ sigma) @ x)

    def grad(self, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        return self.a * (x - self.xtilde) + self.Q @ sigma

    def grad_sigma(self, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        return self.Q.T @ x

    @property
    def curvature(self) -> float:
        return self.a

    @property
    def strong_convexity(self) -> float:
        return self.a


@dataclass(frozen=True)
class GenericSmooth:
    """Cost given through value/gradient oracles.

    ``curvature`` bounds the Hessian of ``x -> value(x, sigma)``; it is
    required by the fixed-step inner solver.  ``grad_sigma_fn`` is only
    needed for the full pseudo-subdifferential.
    """

    value_fn: Callable[[np.ndarray, np.ndarray], float]
    grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    curvature: float = 1.0
    strong_convexity: float = 0.0
    grad_sigma_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def value(self, x: np.ndarray, sigma: np.ndarray) -> float:
        return float(self.value_fn(x, sigma))

    def grad(self, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        if self.grad_fn is None:
            raise NonSmoothCost("cost has no gradient oracle")
        return np.asarray(self.grad_fn(x, sigma), dtype=np.float64)

    def grad_sigma(self, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        if self.grad_sigma_fn is None:
            raise NonSmoothCost("cost has no aggregate-gradient oracle")
        return np.asarray(self.grad_sigma_fn(x, sigma), dtype=np.float64)


CostModel = Union[QuadraticAgg, GenericSmooth]


@dataclass(frozen=True)
class AgentSpec:
    """One agent: local set, cost, and its slice of the coupling data."""

    omega: LocalSet
    cost: CostModel
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(_as_float_array(self.A))
        b = np.atleast_1d(_as_float_array(self.b))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatch("coupling matrix rows must match b length")

    def check_dims(self, dims: Dimensions) -> None:
        if self.A.shape != (dims.m, dims.n):
            raise DimensionMismatch(
                f"agent coupling block is {self.A.shape}, expected {(dims.m, dims.n)}"
            )
        if getattr(self.omega, "n", dims.n) != dims.n:
            raise DimensionMismatch("local set dimension differs from n")
        if isinstance(self.cost, QuadraticAgg) and self.cost.xtilde.shape != (dims.n,):
            raise DimensionMismatch("cost target dimension differs from n")

    def link_value(self, x_i: np.ndarray) -> np.ndarray:
        """The link variable paired with x_i: A_i x_i - b_i."""
        return self.A @ x_i - self.b


@dataclass(frozen=True, eq=False)
class AgentStacks:
    """Per-row description of a sequence of agents, every field computed once.

    The unit prox metric I + A_i' A_i of row i is ``unit_diag[i]`` as a
    diagonal, unless i is in ``dense_rows`` (ascending): then it is the
    matching matrix of ``unit_dense`` and row i of ``unit_diag`` is zero.
    ``curvature`` and ``strong_convexity`` are the cost moduli.
    ``upper``/``total`` are set only when every local set is a box-simplex;
    ``a``/``xtilde``/``Q`` hold the quadratic rows, in row order.  A closed-form
    set of agents is all quadratic with no dense row.  ``value``, ``grad`` and
    ``grad_sigma`` take a shared or a row-wise aggregate: the quadratic rule
    when every cost is quadratic, else each agent's oracles.  The constants
    derived from the agents alone are cached properties, computed on first use.
    """

    agents: tuple[AgentSpec, ...]
    A: np.ndarray  # (N, m, n) coupling blocks
    b: np.ndarray  # (N, m) link offsets
    unit_diag: np.ndarray  # (N, n) 1 + diag(A_i' A_i), zero on dense rows
    dense_rows: np.ndarray  # (k,) rows whose A_i' A_i is not diagonal
    unit_dense: np.ndarray  # (k, n, n) I + A_i' A_i of those rows
    quadratic: np.ndarray  # (N,) bool: the cost is QuadraticAgg
    curvature: np.ndarray  # (N,) cost Hessian bounds
    strong_convexity: np.ndarray  # (N,) cost strong-convexity moduli
    all_box_simplex: bool
    all_quadratic: bool
    closed_form: bool  # every unit-metric prox is one weighted projection
    upper: np.ndarray | None  # (N, n) box caps
    total: np.ndarray | None  # (N,) simplex totals
    a: np.ndarray  # (q,) quadratic weights
    xtilde: np.ndarray  # (q, n) quadratic targets
    Q: np.ndarray  # (q, n, n) aggregate coupling matrices

    @classmethod
    def of(cls, agents) -> "AgentStacks":
        """The stacks of ``agents``, in order."""
        agents = tuple(agents)
        costs, sets = [agent.cost for agent in agents], [agent.omega for agent in agents]
        A = np.stack([agent.A for agent in agents])
        n = A.shape[2]
        units = np.eye(n) + np.swapaxes(A, 1, 2) @ A
        unit_diag = np.diagonal(units, axis1=1, axis2=2).copy()
        dense_rows = np.flatnonzero((units[:, ~np.eye(n, dtype=bool)] != 0).any(axis=1))
        unit_diag[dense_rows] = 0.0
        box = all(isinstance(omega, BoxSimplex) for omega in sets)
        quadratic = np.array([isinstance(cost, QuadraticAgg) for cost in costs])
        quad = bool(quadratic.all())
        quads = [cost for cost in costs if isinstance(cost, QuadraticAgg)]
        return cls(
            agents=agents,
            A=A,
            b=np.stack([agent.b for agent in agents]),
            unit_diag=unit_diag,
            dense_rows=dense_rows,
            unit_dense=units[dense_rows],
            quadratic=quadratic,
            curvature=np.array([cost.curvature for cost in costs], dtype=np.float64),
            strong_convexity=np.array([cost.strong_convexity for cost in costs], dtype=np.float64),
            all_box_simplex=box,
            all_quadratic=quad,
            closed_form=quad and not dense_rows.size,
            upper=np.stack([omega.upper for omega in sets]) if box else None,
            total=np.array([omega.total for omega in sets]) if box else None,
            a=np.array([cost.a for cost in quads], dtype=np.float64),
            xtilde=np.array([cost.xtilde for cost in quads]).reshape(-1, n),
            Q=np.array([cost.Q for cost in quads]).reshape(-1, n, n),
        )

    @cached_property
    def _parts(self) -> dict:  # row-set bytes -> take(rows), filled on demand
        return {}

    @cached_property
    def b_total(self) -> np.ndarray:  # (m,) coupling bound b = sum_i b_i
        return self.b.sum(axis=0)

    @cached_property
    def coupling_norm(self) -> float:  # ||A||_2 of the assembled (m, n N) matrix [A_1 ... A_N]
        return float(np.linalg.norm(np.concatenate(self.A, axis=1), 2))

    @cached_property
    def default_points(self) -> np.ndarray:  # (N, n) read-only: each row's projection of 0
        X = self.project(np.zeros(self.unit_diag.shape))
        X.flags.writeable = False
        return X

    @cached_property
    def A_norms(self) -> np.ndarray:  # (N,) ||A_i||_2
        return np.linalg.norm(self.A, 2, axis=(1, 2))

    @cached_property
    def Q_norms(self) -> np.ndarray:  # (q,) ||Q_i||_2 of the quadratic rows
        return np.linalg.norm(self.Q, 2, axis=(1, 2))

    @cached_property
    def Q_sym_norms(self) -> np.ndarray:  # (q,) ||(Q_i + Q_i') / 2||_2 of the quadratic rows
        return np.linalg.norm(0.5 * (self.Q + np.swapaxes(self.Q, 1, 2)), 2, axis=(1, 2))

    @cached_property
    def capped_weight(self) -> np.ndarray:  # (N,) w_i where m = n and A_i = w_i I, w_i > 0; else 0
        w, (m, n) = self.A[:, 0, 0], self.A.shape[1:]
        capped = (w > 0) & (m == n) & (self.A == w[:, None, None] * np.eye(m, n)).all(axis=(1, 2))
        return np.where(capped, w, 0.0)

    def take(self, rows: np.ndarray) -> "AgentStacks":
        """The stacks of ``rows`` alone, built once per row set; ``self`` when that is every row."""
        key = rows.tobytes()
        if rows.size < len(self.agents) and key not in self._parts:
            self._parts[key] = AgentStacks.of(self.agents[r] for r in rows)
        return self._parts.get(key, self)

    def link_values(self, X: np.ndarray) -> np.ndarray:
        """(B, m) link rows A_r x_r - b_r of a (B, n) decision array."""
        return np.einsum("imn,in->im", self.A, X) - self.b

    def value(self, X: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """(B,) cost values, row r at ``X[r]`` with the aggregate ``sigma``, or
        ``sigma[r]`` when ``sigma`` is (B, n)."""
        if self.all_quadratic:  # row r of QS rounds like the per-agent Q_r @ sigma_r
            D, QS = X - self.xtilde, (self.Q @ sigma[..., None])[..., 0]
            return 0.5 * self.a * np.einsum("ij,ij->i", D, D) + np.einsum("ij,ij->i", QS, X)
        S = np.broadcast_to(sigma, X.shape)
        return np.array([agent.cost.value(x, s) for agent, x, s in zip(self.agents, X, S)])

    def grad(self, X: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """(B, n) gradients in x, row r at ``X[r]`` with the aggregate ``sigma`` or ``sigma[r]``."""
        if self.all_quadratic:
            return self.a[:, None] * (X - self.xtilde) + (self.Q @ sigma[..., None])[..., 0]
        S = np.broadcast_to(sigma, X.shape)
        return np.array([agent.cost.grad(x, s) for agent, x, s in zip(self.agents, X, S)])

    def grad_sigma(self, X: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """(B, n) gradients in the aggregate, as ``grad``; a cost with no such
        oracle raises :class:`NonSmoothCost`."""
        if self.all_quadratic:  # row r rounds like the per-agent Q_r.T @ X[r]
            return (np.swapaxes(self.Q, 1, 2) @ X[..., None])[..., 0]
        S = np.broadcast_to(sigma, X.shape)
        return np.array([agent.cost.grad_sigma(x, s) for agent, x, s in zip(self.agents, X, S)])

    def project(self, V: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Row r of (B, n) ``V`` projected onto agent r's set, in the diagonal
        metric of row r of ``weights`` (Euclidean when omitted): one batched
        kernel call when every set is a box-simplex, else one oracle call per row."""
        if self.all_box_simplex:
            return project_box_simplex_batch(V, self.upper, self.total, weights)
        W = [None] * len(self.agents) if weights is None else weights
        return np.stack([agent.omega.project(v, w) for agent, v, w in zip(self.agents, V, W)])


@dataclass(frozen=True)
class GameSpec:
    """Immutable description of the full game."""

    dims: Dimensions
    agents: list[AgentSpec]

    def __post_init__(self):
        if len(self.agents) != self.dims.N:
            raise DimensionMismatch("agent list length differs from N")
        for agent in self.agents:
            agent.check_dims(self.dims)

    # -- assembled coupling data -------------------------------------------------

    @property
    def b_total(self) -> np.ndarray:
        return self.stacks.b_total

    def full_matrix(self) -> np.ndarray:
        """The assembled (m, n N) coupling matrix."""
        return np.concatenate(self.stacks.A, axis=1)

    def coupling_value(self, x: np.ndarray) -> np.ndarray:
        """A x = sum_i A_i x_i, fixed ascending agent order."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dims.N * self.dims.n,):
            raise DimensionMismatch(f"stacked decision must have length {self.dims.N * self.dims.n}")
        return np.einsum("imn,in->m", self.stacks.A, x.reshape(self.dims.N, self.dims.n))

    # -- per-row stacks -----------------------------------------------------------

    @cached_property
    def stacks(self) -> AgentStacks:
        """The agents' :class:`AgentStacks`, built once per game (``replace`` builds anew)."""
        return AgentStacks.of(self.agents)

    @cached_property
    def _probes(self) -> dict:  # (sample_count, seed) -> monotonicity ProbeReport, filled on demand
        return {}

    def link_values(self, X: np.ndarray) -> np.ndarray:
        """(N, m) link rows A_i x_i - b_i of an (N, n) decision array."""
        return self.stacks.link_values(X)

    def default_points(self) -> np.ndarray:
        """(N, n) read-only rows: each agent's projection of the origin, computed once."""
        return self.stacks.default_points

    def project_each(self, X: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Per-agent projection of the rows of an (N, n) array onto the local sets."""
        if X.shape != (self.dims.N, self.dims.n):
            raise DimensionMismatch("expected an (N, n) block matrix")
        return self.stacks.project(X, weights)

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        if not (self.stacks.all_box_simplex and self.stacks.all_quadratic):
            raise ValueError("only box-simplex / quadratic games serialize to JSON")
        return {
            "dims": {"N": self.dims.N, "n": self.dims.n, "m": self.dims.m},
            "agents": [
                {
                    "upper": agent.omega.upper.tolist(),
                    "total": agent.omega.total,
                    "a": agent.cost.a,
                    "xtilde": agent.cost.xtilde.tolist(),
                    "Q": agent.cost.Q.tolist(),
                    "A": agent.A.tolist(),
                    "b": agent.b.tolist(),
                }
                for agent in self.agents
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "GameSpec":
        dims = Dimensions(**{k: int(payload["dims"][k]) for k in ("N", "n", "m")})
        agents = []
        for raw in payload["agents"]:
            agents.append(
                AgentSpec(
                    omega=BoxSimplex(np.array(raw["upper"]), float(raw["total"])),
                    cost=QuadraticAgg(float(raw["a"]), np.array(raw["xtilde"]), np.array(raw["Q"])),
                    A=np.array(raw["A"]),
                    b=np.array(raw["b"]),
                )
            )
        return cls(dims=dims, agents=agents)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "GameSpec":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# -- aggregation and feasibility primitives ------------------------------------------


def average(x: np.ndarray, n: int) -> np.ndarray:
    """Arithmetic mean of the n-blocks of a stacked vector, ascending agent order."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] % n != 0:
        raise DimensionMismatch("stacked vector length must be a multiple of n")
    return x.reshape(-1, n).mean(axis=0)


def coupling_violation(game: GameSpec, x: np.ndarray) -> np.ndarray:
    """Componentwise positive part of A x - b; zero iff the coupling holds."""
    return np.maximum(game.coupling_value(x) - game.b_total, 0.0)


def find_feasible_point(
    game: GameSpec,
    margin: float = SLATER_MARGIN,
    max_iters: int = FEASIBILITY_MAX_ITERS,
) -> tuple[np.ndarray, bool]:
    """Phase-1 projected-gradient search for a point with A x <= b - margin.

    Returns ``(x, strict)``.  ``strict`` is False when only a point with
    ``A x <= b`` (no margin) was reached; raises :class:`Infeasible` when
    even that fails, at a fixed point of the projected-gradient step or
    when the iteration budget runs out.
    """
    X = game.default_points().copy()  # the caller owns the returned point
    step = 1.0 / max(game.stacks.coupling_norm**2, 1e-12)
    target = game.b_total - margin
    for _ in range(max_iters):
        resid = np.maximum(game.coupling_value(X.ravel()) - target, 0.0)
        if not resid.any():
            return X.ravel(), True
        grad = np.einsum("imn,m->in", game.stacks.A, resid)
        X_next = game.project_each(X - step * grad)
        if np.array_equal(X_next, X):
            break  # a fixed point minimizes the convex phase-1 objective: no step can help
        X = X_next
    x = X.ravel()
    if not coupling_violation(game, x).any():
        return x, False
    raise Infeasible("phase-1 search found no point satisfying the coupling")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural and feasibility checks on a game."""

    nonempty: list[bool]
    gradient_rel_err: list[float]
    feasible: bool
    strictly_feasible: bool
    feasible_point: np.ndarray | None
    messages: list[str]

    @property
    def ok(self) -> bool:
        return all(self.nonempty) and self.feasible

    def summary(self) -> str:
        lines = [
            f"local sets nonempty: {sum(self.nonempty)}/{len(self.nonempty)}",
            f"max gradient check error: {max(self.gradient_rel_err):.3e}"
            if self.gradient_rel_err
            else "gradient check: skipped",
            f"coupling feasible: {self.feasible} (strict: {self.strictly_feasible})",
        ]
        lines.extend(self.messages)
        return "\n".join(lines)


def _fd_gradient_error(cost: CostModel, x: np.ndarray, sigma: np.ndarray) -> float:
    """Relative error between the gradient oracle and central differences."""
    try:
        g = cost.grad(x, sigma)
    except NonSmoothCost:
        return np.inf
    return float(_fd_gradient_errors(lambda Z: np.array([cost.value(Z[0], sigma)]), x[None], g[None])[0])


def _fd_gradient_errors(value: Callable, X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(B,) relative errors between the gradient rows ``G`` at the rows of ``X`` and central
    differences of the (B,) row values ``value(X)``: one batched difference per coordinate."""
    h = 1e-6
    fd = np.empty_like(G)
    for j in range(X.shape[1]):
        E = np.zeros_like(X)
        E[:, j] = h
        fd[:, j] = (value(X + E) - value(X - E)) / (2 * h)
    return np.linalg.norm(fd - G, axis=1) / np.maximum(1.0, np.linalg.norm(G, axis=1))


def validate_game(game: GameSpec) -> ValidationReport:
    """Run nonemptiness, gradient and feasibility checks; the dimensions are
    checked once, when the ``GameSpec`` is built.

    The gradient check compares the gradients with central differences at
    the default points: one batched pass over ``game.stacks`` when every cost
    is quadratic, else per agent, skipping costs without a gradient oracle.

    Pure: repeated calls on the same game produce identical reports.
    """
    dims, stacks = game.dims, game.stacks
    messages: list[str] = []
    nonempty = []
    for i, agent in enumerate(game.agents):
        if isinstance(agent.omega, BoxSimplex):
            ok = float(agent.omega.upper.sum()) >= agent.omega.total >= 0
            if not ok:
                messages.append(f"agent {i}: empty local set")
        else:
            # oracle sets: the projection must be idempotent on a probe point
            p = agent.omega.project(np.full(dims.n, 0.5))
            ok = bool(np.linalg.norm(p - agent.omega.project(p)) <= 1e-12)
            if not ok:
                messages.append(f"agent {i}: projection oracle is not idempotent")
        nonempty.append(ok)

    X_probe, sigma_probe = game.default_points(), np.full(dims.n, 0.25)
    if stacks.all_quadratic:
        G = stacks.grad(X_probe, sigma_probe)
        grad_errs = _fd_gradient_errors(lambda Z: stacks.value(Z, sigma_probe), X_probe, G).tolist()
    else:
        errs = (_fd_gradient_error(agent.cost, x, sigma_probe) for agent, x in zip(game.agents, X_probe))
        grad_errs = [err for err in errs if np.isfinite(err)]

    feasible = strictly = False
    point = None
    if all(nonempty):
        try:
            point, strictly = find_feasible_point(game)
            feasible = True
            if not strictly:
                messages.append("no strictly feasible point found; constraint may be tight")
        except Infeasible as exc:
            messages.append(str(exc))

    return ValidationReport(
        nonempty=nonempty,
        gradient_rel_err=grad_errs,
        feasible=feasible,
        strictly_feasible=strictly,
        feasible_point=point,
        messages=messages,
    )
