"""Game data model: local sets, costs, coupling data, validation.

An instance couples N agents through the average of their decisions and
through m affine constraints ``A x <= b`` with ``A = [A_1 ... A_N]`` and
``b = sum_i b_i``.  A ``GameSpec`` is every agent's data stacked by row,
checked once when it is built; ``BoxSimplex``, ``QuadraticAgg`` and
``AgentSpec`` are row records, read and built in this module alone.  The
solver modules treat a ``GameSpec`` as shared read-only data.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

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
    """Capped simplex {x : 0 <= x <= upper, 1'x = total}, one agent's row record.

    Nonempty iff ``sum(upper) >= total >= 0``; the game checks that when it is built.
    """

    upper: np.ndarray
    total: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "upper", np.atleast_1d(_as_float_array(self.upper)))
        object.__setattr__(self, "total", float(self.total))

    def project(self, v: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        return project_box_simplex(v, self.upper, self.total, weights)


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
        object.__setattr__(self, "Q", _as_float_array(self.Q, (xt.shape[0], xt.shape[0])))

    def value(self, x: np.ndarray, sigma: np.ndarray) -> float:
        dx = x - self.xtilde
        return 0.5 * self.a * float(dx @ dx) + float((self.Q @ sigma) @ x)

    def grad(self, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        return self.a * (x - self.xtilde) + self.Q @ sigma

    def grad_sigma(self, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        return self.Q.T @ x


@dataclass(frozen=True)
class GenericSmooth:
    """Cost given through value/gradient oracles.

    ``grad_fn`` is required; a None one raises :class:`NonSmoothCost` here.
    ``curvature`` bounds the Hessian of ``x -> value(x, sigma)``; it is
    required by the fixed-step inner solver.  It must be finite and
    nonnegative, and ``strong_convexity`` must lie between 0 and it, or
    ``ValueError`` is raised here.  ``grad_sigma_fn`` is only needed for
    the exact epsilon-Nash gap.
    """

    value_fn: Callable[[np.ndarray, np.ndarray], float]
    grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    curvature: float = 1.0
    strong_convexity: float = 0.0
    grad_sigma_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.grad_fn is None:
            raise NonSmoothCost("cost has no gradient oracle")
        if not 0 <= self.curvature < np.inf:
            raise ValueError("curvature must be nonnegative and finite")
        if not 0 <= self.strong_convexity <= self.curvature:
            raise ValueError("strong_convexity must lie between 0 and curvature")

    def value(self, x: np.ndarray, sigma: np.ndarray) -> float:
        return float(self.value_fn(x, sigma))

    def grad(self, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad_fn(x, sigma), dtype=np.float64)

    def grad_sigma(self, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        if self.grad_sigma_fn is None:
            raise NonSmoothCost("cost has no aggregate-gradient oracle")
        return np.asarray(self.grad_sigma_fn(x, sigma), dtype=np.float64)


@dataclass(frozen=True)
class AgentSpec:
    """One agent's row record: local set, cost, and its slice of the coupling data."""

    omega: BoxSimplex
    cost: QuadraticAgg | GenericSmooth
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.atleast_2d(_as_float_array(self.A)))
        object.__setattr__(self, "b", np.atleast_1d(_as_float_array(self.b)))
        if self.A.shape[0] != self.b.shape[0]:
            raise DimensionMismatch("coupling matrix rows must match b length")


@dataclass(frozen=True, eq=False, init=False, repr=False)
class GameSpec:
    """The full game: every agent's data stacked by row, every field computed once.

    Row i is agent i.  The unit prox metric I + A_i' A_i of row i is
    ``unit_diag[i]`` as a diagonal, unless i is in ``dense_rows`` (ascending):
    then it is the matching matrix of ``unit_dense`` and row i of ``unit_diag``
    is zero.  ``curvature`` and ``strong_convexity`` are the cost moduli.  The
    (N,) row flags ``quadratic`` and ``closed`` are the only record of each
    agent's cost kind; ``all_quadratic`` and ``closed_form`` are their
    conjunctions.  ``upper``/``total`` are the box-simplex sets; ``a``/``xtilde``/``Q``
    hold the quadratic rows, in row order.  ``value``, ``grad`` and ``grad_sigma``
    take a shared or a row-wise aggregate: the quadratic rule when every cost is
    quadratic, else each of the (N,) cost records ``costs``.  ``link_values``,
    ``coupling_value`` and ``adjoint`` are the only products with the blocks A_i;
    when ``all_capped``, they scale by ``capped_weight`` instead of contracting A.
    ``dims`` and the constants derived from the agents alone are cached
    properties, computed on first use.  The columns and ``costs`` are the game's
    only store, ``agents`` a view of them, and :meth:`_build` the only home of
    its data rules: the first row that breaks one raises naming its agent.
    """

    A: np.ndarray  # (N, m, n) coupling blocks
    b: np.ndarray  # (N, m) link offsets
    unit_diag: np.ndarray  # (N, n) 1 + diag(A_i' A_i), zero on dense rows
    dense_rows: np.ndarray  # (k,) rows whose A_i' A_i is not diagonal
    unit_dense: np.ndarray  # (k, n, n) I + A_i' A_i of those rows
    quadratic: np.ndarray  # (N,) bool: the cost is QuadraticAgg
    closed: np.ndarray  # (N,) bool: quadratic with a diagonal metric, a closed-form prox row
    curvature: np.ndarray  # (N,) cost Hessian bounds
    strong_convexity: np.ndarray  # (N,) cost strong-convexity moduli
    all_quadratic: bool
    closed_form: bool  # every unit-metric prox is one weighted projection
    upper: np.ndarray  # (N, n) box caps
    total: np.ndarray  # (N,) simplex totals
    a: np.ndarray  # (q,) quadratic weights
    xtilde: np.ndarray  # (q, n) quadratic targets
    Q: np.ndarray  # (q, n, n) aggregate coupling matrices

    def __init__(self, dims: Dimensions, agents):
        """The game of the row records ``agents``, in order; it keeps their columns and ``costs``."""
        agents = tuple(agents)
        if len(agents) != dims.N:
            raise DimensionMismatch("agent list length differs from N")
        for i, agent in enumerate(agents):
            target = agent.cost.xtilde if isinstance(agent.cost, QuadraticAgg) else agent.omega.upper
            shapes = (agent.A.shape, agent.b.shape, agent.omega.upper.shape, target.shape)
            if shapes != ((dims.m, dims.n), (dims.m,), (dims.n,), (dims.n,)):
                raise DimensionMismatch(f"agent {i}: A, b, upper, xtilde are {shapes}, with {dims}")
        costs = tuple(agent.cost for agent in agents)
        quadratic = [isinstance(cost, QuadraticAgg) for cost in costs]
        quads, n = [cost for cost, quad in zip(costs, quadratic) if quad], dims.n
        moduli = [(c.a, c.a) if q else (c.curvature, c.strong_convexity) for c, q in zip(costs, quadratic)]
        self._build(
            [agent.omega.upper for agent in agents], [agent.omega.total for agent in agents],
            [cost.a for cost in quads], np.reshape([cost.xtilde for cost in quads], (-1, n)),
            np.reshape([cost.Q for cost in quads], (-1, n, n)), [agent.A for agent in agents],
            [agent.b for agent in agents], quadratic, *np.transpose(moduli),
        )
        self.__dict__["costs"] = costs

    @classmethod
    def from_columns(cls, dims: Dimensions, upper, total, a, xtilde, Q, A, b) -> "GameSpec":
        """The box-simplex/quadratic game whose agent i is row i of the seven :data:`_COLUMNS`
        arrays, each shaped as its axes name in ``dims`` (else :class:`DimensionMismatch`)."""
        shapes = [tuple(getattr(dims, k) for k in axes) for axes in _COLUMNS.values()]
        upper, total, a, xtilde, Q, A, b = map(_as_float_array, (upper, total, a, xtilde, Q, A, b), shapes)
        game = cls.__new__(cls)
        game._build(upper, total, a, xtilde, Q, A, b, np.ones(dims.N, dtype=bool), a, a)
        return game

    def _build(self, upper, total, a, xtilde, Q, A, b, quadratic, curvature, strong_convexity) -> None:
        """Check the columns (``a``, ``xtilde``, ``Q`` hold the ``quadratic`` rows) and store them."""
        columns = (upper, total, a, xtilde, Q, A, b, curvature, strong_convexity)
        upper, total, a, xtilde, Q, A, b, curvature, strong = (np.asarray(c, np.float64) for c in columns)
        quadratic, (N, n) = np.asarray(quadratic, dtype=bool), upper.shape
        bad_target = np.zeros(N, dtype=bool)
        bad_target[quadratic] = ~(np.isfinite(xtilde).all(axis=1) & np.isfinite(Q).all(axis=(1, 2)))
        weight = (0 < curvature) & (curvature < np.inf)  # a quadratic row's curvature is its a
        coupling = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(b).all(axis=1)
        rules = {  # message -> the rows that break the rule, in the order a row is checked
            "upper caps and total must be finite": ~(np.isfinite(upper).all(axis=1) & np.isfinite(total)),
            "upper caps must be nonnegative": (upper < 0).any(axis=1),
            "": (total < 0) | (upper.sum(axis=1) < total),  # an empty set
            "quadratic weight a must be positive and finite": quadratic & ~weight,
            "cost target xtilde and aggregate coupling matrix Q must be finite": bad_target,
            "coupling data A and b must be finite": ~coupling,
        }
        bad = np.array(list(rules.values()))
        if bad.any():
            i = int(bad.any(axis=0).argmax())
            message = list(rules)[int(bad[:, i].argmax())]
            raise ValueError(f"agent {i}: {message}") if message else EmptyLocalSet(agent=i)
        units = np.eye(n) + np.swapaxes(A, 1, 2) @ A
        unit_diag = np.diagonal(units, axis1=1, axis2=2).copy()
        dense_rows = np.flatnonzero((units[:, ~np.eye(n, dtype=bool)] != 0).any(axis=1))
        unit_diag[dense_rows] = 0.0
        closed = quadratic.copy()
        closed[dense_rows] = False
        self.__dict__.update(
            A=A, b=b, unit_diag=unit_diag, dense_rows=dense_rows, unit_dense=units[dense_rows],
            quadratic=quadratic, closed=closed, curvature=curvature, strong_convexity=strong,
            all_quadratic=bool(quadratic.all()), closed_form=bool(closed.all()),
            upper=upper, total=total, a=a, xtilde=xtilde, Q=Q,
        )

    @cached_property
    def dims(self) -> Dimensions:  # read off the coupling blocks' (N, m, n) shape
        N, m, n = self.A.shape
        return Dimensions(N, n, m)

    @cached_property
    def costs(self) -> tuple:  # (N,) cost records; the record constructor keeps its own: oracles fit no column
        return tuple(map(QuadraticAgg, self.a, self.xtilde, self.Q))

    @cached_property
    def agents(self) -> tuple[AgentSpec, ...]:  # the row records: a view of the columns and costs
        rows = zip(self.upper, self.total, self.costs, self.A, self.b)
        return tuple(AgentSpec(BoxSimplex(u, t), cost, A, b) for u, t, cost, A, b in rows)

    @cached_property
    def _parts(self) -> dict:  # row-array bytes -> take(rows), filled on demand
        return {}

    @cached_property
    def _probes(self) -> dict:  # (sample_count, seed) -> monotonicity ProbeReport, filled on demand
        return {}

    @cached_property
    def b_total(self) -> np.ndarray:  # (m,) coupling bound b = sum_i b_i
        return self.b.sum(axis=0)

    @cached_property
    def coupling_norm(self) -> float:  # ||A||_2 of the assembled (m, n N) matrix [A_1 ... A_N]
        return float(np.linalg.norm(np.concatenate(self.A, axis=1), 2))

    @cached_property
    def default_points(self) -> np.ndarray:  # (N, n) read-only: each row's projection of 0
        X = self.project_each(np.zeros(self.upper.shape))
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
    def capped_weight(self) -> np.ndarray:  # (N,) w_i on a row where m = n, A_i = w_i I, w_i > 0; else 0
        w, (m, n) = self.A[:, 0, 0], self.A.shape[1:]
        capped = (w > 0) & (m == n) & (self.A == w[:, None, None] * np.eye(m, n)).all(axis=(1, 2))
        return np.where(capped, w, 0.0)

    @cached_property
    def all_capped(self) -> bool:  # every A_r = w_r I: the products with the blocks are broadcasts
        return bool(self.capped_weight.all())

    def take(self, rows: np.ndarray) -> "GameSpec":
        """The game of agents ``rows`` alone, in that order, built once per row array;
        ``self`` when ``rows`` is every row in ascending order."""
        dims = self.dims
        if np.array_equal(rows, np.arange(dims.N)):
            return self
        key = rows.tobytes()
        if key not in self._parts:
            self._parts[key] = GameSpec(Dimensions(rows.size, dims.n, dims.m), [self.agents[r] for r in rows])
        return self._parts[key]

    def link_values(self, X: np.ndarray) -> np.ndarray:
        """(N, m) link rows A_r x_r - b_r of an (N, n) decision array."""
        if self.all_capped:
            return self.capped_weight[:, None] * X - self.b
        return np.einsum("imn,in->im", self.A, X) - self.b

    def coupling_value(self, X: np.ndarray) -> np.ndarray:
        """(m,) coupling sum A x = sum_r A_r x_r of an (N, n) decision array, ascending row order."""
        if self.all_capped:
            return np.einsum("i,im->m", self.capped_weight, X)
        return np.einsum("imn,in->m", self.A, X)

    def adjoint(self, V: np.ndarray) -> np.ndarray:
        """(N, n) rows A_r' v of a shared (m,) ``v``, or A_r' V[r] of an (N, m) ``V``."""
        if self.all_capped:
            return self.capped_weight[:, None] * V
        if V.ndim == 1:
            return np.einsum("imn,m->in", self.A, V)
        return np.einsum("imn,im->in", self.A, V)

    def value(self, X: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """(N,) cost values, row r at ``X[r]`` with the aggregate ``sigma``, or
        ``sigma[r]`` when ``sigma`` is (N, n)."""
        if self.all_quadratic:  # row r of QS rounds like the per-agent Q_r @ sigma_r
            D, QS = X - self.xtilde, (self.Q @ sigma[..., None])[..., 0]
            return 0.5 * self.a * np.einsum("ij,ij->i", D, D) + np.einsum("ij,ij->i", QS, X)
        S = np.broadcast_to(sigma, X.shape)
        return np.array([cost.value(x, s) for cost, x, s in zip(self.costs, X, S)])

    def grad(self, X: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """(N, n) gradients in x, row r at ``X[r]`` with the aggregate ``sigma`` or ``sigma[r]``."""
        if self.all_quadratic:
            return self.a[:, None] * (X - self.xtilde) + (self.Q @ sigma[..., None])[..., 0]
        S = np.broadcast_to(sigma, X.shape)
        return np.array([cost.grad(x, s) for cost, x, s in zip(self.costs, X, S)])

    def grad_sigma(self, X: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """(N, n) gradients in the aggregate, as ``grad``; a cost with no such
        oracle raises :class:`NonSmoothCost`."""
        if self.all_quadratic:  # row r rounds like the per-agent Q_r.T @ X[r]
            return (np.swapaxes(self.Q, 1, 2) @ X[..., None])[..., 0]
        S = np.broadcast_to(sigma, X.shape)
        return np.array([cost.grad_sigma(x, s) for cost, x, s in zip(self.costs, X, S)])

    def project_each(
        self, X: np.ndarray, weights: np.ndarray | None = None, guess: np.ndarray | None = None
    ) -> np.ndarray:
        """Row r of the (N, n) ``X`` projected onto agent r's set, in the diagonal metric
        of row r of ``weights`` (Euclidean when omitted): one batched kernel call,
        warm-started from the (N, n) ``guess`` when given.  Any other shape of ``X``
        raises :class:`DimensionMismatch`."""
        if X.shape != self.upper.shape:
            raise DimensionMismatch("expected an (N, n) block matrix")
        return project_box_simplex_batch(X, self.upper, self.total, weights, guess)

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The game file payload: the dims and each stored column as little-endian float64."""
        if not self.all_quadratic:
            raise ValueError("only quadratic games serialize to JSON")
        return {
            "dims": {"N": self.dims.N, "n": self.dims.n, "m": self.dims.m},
            "stacks": {name: _encode_column(getattr(self, name)) for name in _COLUMNS},
        }

    @classmethod
    def from_json_dict(cls, payload) -> "GameSpec":
        """The game of a :meth:`to_json_dict` payload, built by :meth:`from_columns`;
        a payload of any other shape raises ``ValueError`` naming the field."""
        if not isinstance(payload, dict):
            raise ValueError("a game file must hold a JSON object")
        if "agents" in payload:
            raise ValueError(
                "game file is in the old per-agent layout; regenerate it with "
                "`aggsplit generate` (the same seed reproduces it)"
            )
        sizes = _json_object(payload.get("dims"), "dims")
        if not all(type(sizes.get(k)) is int for k in "Nnm"):
            raise ValueError(f"dims must give integers N, n and m, got {sizes}")
        dims = Dimensions(sizes["N"], sizes["n"], sizes["m"])
        stacks = _json_object(payload.get("stacks"), "stacks")
        columns = [
            _decode_column(stacks, name, tuple(sizes[k] for k in axes)) for name, axes in _COLUMNS.items()
        ]
        return cls.from_columns(dims, *columns)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "GameSpec":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# the stored columns of a game file, in file order, each with its axes named by the dims
_COLUMNS = {"upper": "Nn", "total": "N", "a": "N", "xtilde": "Nn", "Q": "Nnn", "A": "Nmn", "b": "Nm"}


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"game file field {name} is missing or not an object")
    return value


def _encode_column(col: np.ndarray) -> dict:
    """One game file column: its shape and its little-endian float64 bytes in C order."""
    raw = np.asarray(col, "<f8").tobytes()
    return {"shape": list(col.shape), "f8": base64.b64encode(raw).decode("ascii")}


def _decode_column(stacks: dict, name: str, shape: tuple) -> np.ndarray:
    """Game file column ``name`` as a writable float64 array; ``ValueError`` unless it has ``shape``."""
    field = _json_object(stacks.get(name), f"stacks.{name}")
    shape_in, f8 = field.get("shape"), field.get("f8")
    if shape_in != list(shape) or not isinstance(f8, str):
        raise ValueError(f"stacks.{name} needs shape {list(shape)} and base64 f8 bytes, got {shape_in}")
    raw, size = base64.b64decode(f8, validate=True), 8 * math.prod(shape)  # binascii.Error is a ValueError
    if len(raw) != size:
        raise ValueError(f"stacks.{name} holds {len(raw)} bytes, shape {list(shape)} needs {size}")
    return np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)  # a writable copy


# -- aggregation and feasibility primitives ------------------------------------------


def _finite_array(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` as a float64 array; ``DimensionMismatch`` unless it has ``shape``,
    ``ValueError`` unless every entry is finite."""
    v = np.asarray(value, dtype=np.float64)
    if v.shape != shape:
        raise DimensionMismatch(f"{name} must have shape {shape}, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def coupling_violation(game: GameSpec, X: np.ndarray) -> np.ndarray:
    """Componentwise positive part of A x - b at the (N, n) decisions ``X``; zero iff
    the coupling holds.  Any other shape raises :class:`DimensionMismatch`."""
    return np.maximum(game.coupling_value(_as_float_array(X, game.upper.shape)) - game.b_total, 0.0)


def find_feasible_point(game: GameSpec) -> tuple[np.ndarray, bool]:
    """Phase-1 projected-gradient search for a point with A x <= b - SLATER_MARGIN.

    Returns ``(X, strict)`` with (N, n) decisions ``X``.  ``strict`` is False
    when only a point with ``A x <= b`` (no margin) was reached; raises
    :class:`Infeasible` when even that fails, at a fixed point of the
    projected-gradient step or when the iteration budget runs out.
    """
    X = game.default_points.copy()  # the caller owns the returned point
    step = 1.0 / max(game.coupling_norm**2, 1e-12)
    target = game.b_total - SLATER_MARGIN
    for _ in range(FEASIBILITY_MAX_ITERS):
        resid = np.maximum(game.coupling_value(X) - target, 0.0)
        if not resid.any():
            return X, True
        grad = game.adjoint(resid)
        X_next = game.project_each(X - step * grad)
        if np.array_equal(X_next, X):
            break  # a fixed point minimizes the convex phase-1 objective: no step can help
        X = X_next
    if not coupling_violation(game, X).any():
        return X, False
    raise Infeasible("phase-1 search found no point satisfying the coupling")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural and feasibility checks on a game."""

    gradient_rel_err: list[float]
    feasible: bool
    strictly_feasible: bool
    feasible_point: np.ndarray | None  # (N, n) decisions
    messages: list[str]

    @property
    def ok(self) -> bool:
        return self.feasible and all(map(math.isfinite, self.gradient_rel_err))

    def summary(self) -> str:
        lines = [
            f"max gradient check error: {np.max(self.gradient_rel_err):.3e}",
            f"coupling feasible: {self.feasible} (strict: {self.strictly_feasible})",
        ]
        lines.extend(self.messages)
        return "\n".join(lines)


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
    """Run gradient and feasibility checks; the dimensions are checked once,
    when the ``GameSpec`` is built, and every local set is nonempty by
    construction (:class:`EmptyLocalSet`).

    The gradient check compares the gradients with central differences at
    the default points, in one batched pass over every row; its errors are
    listed in row order, and a non-finite one fails validation.

    Pure: repeated calls on the same game produce identical reports.
    """
    X, sigma = game.default_points, np.full(game.dims.n, 0.25)
    grad_errs = _fd_gradient_errors(lambda Z: game.value(Z, sigma), X, game.grad(X, sigma)).tolist()
    messages = [
        f"agent {i}: gradient check error {e:.3e}" for i, e in enumerate(grad_errs) if not math.isfinite(e)
    ]

    feasible = strictly = False
    point = None
    try:
        point, strictly = find_feasible_point(game)
        feasible = True
        if not strictly:
            messages.append("no strictly feasible point found; constraint may be tight")
    except Infeasible as exc:
        messages.append(str(exc))

    return ValidationReport(
        gradient_rel_err=grad_errs,
        feasible=feasible,
        strictly_feasible=strictly,
        feasible_point=point,
        messages=messages,
    )
