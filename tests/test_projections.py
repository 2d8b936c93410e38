import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggsplit.errors import EmptySet, NoConvergence
from aggsplit.projections import (
    dykstra_projection,
    fista_minimize,
    halfspace_projector,
    project_box_simplex,
    project_box_simplex_batch,
)
from oracles import box_simplex_active_set


def test_already_feasible_point_is_fixed():
    out = project_box_simplex(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 1.0)
    assert np.array_equal(out, np.array([0.5, 0.5]))


def test_clamps_to_upper_cap():
    out = project_box_simplex(np.array([2.0, 0.0]), np.array([1.0, 1.0]), 1.0)
    assert np.array_equal(out, np.array([1.0, 0.0]))


def test_symmetric_overshoot_splits_evenly():
    out = project_box_simplex(np.array([0.9, 0.9]), np.array([1.0, 1.0]), 1.0)
    assert np.array_equal(out, np.array([0.5, 0.5]))


def test_empty_set_raises():
    with pytest.raises(EmptySet):
        project_box_simplex(np.zeros(2), np.array([0.3, 0.3]), 1.0)
    with pytest.raises(EmptySet):
        project_box_simplex(np.zeros(2), np.array([1.0, 1.0]), -0.5)


def _generic_draw(rng):
    n = int(rng.integers(1, 5))
    upper = rng.uniform(0.1, 1.5, n)
    total = float(rng.uniform(0.0, upper.sum()))
    return rng.uniform(-2.0, 2.0, n), upper, total, rng.uniform(0.2, 5.0, n)


def _degenerate_draw(rng):
    """Zero caps, totals 0 and sum(upper), tied kinks under unit weights, n = 1."""
    n = int(rng.integers(1, 5))
    upper = rng.choice([0.0, 0.5, 1.0], n)
    total = float(rng.choice([0.0, rng.uniform(0.0, upper.sum()), upper.sum()]))
    v = rng.choice([-0.5, 0.25, 1.0], n)
    weights = None if rng.random() < 0.5 else rng.uniform(0.2, 5.0, n)
    return v, upper, total, weights


# guesses for the warm-started kernel: (rng, upper, total, solution) -> (n,) guess or None
GUESSES = {
    "none": lambda rng, u, t, x: None,
    "solution": lambda rng, u, t, x: x,
    "point-of-the-set": lambda rng, u, t, x: box_simplex_active_set(rng.uniform(-1, 2, u.size), u, t),
    "zeros": lambda rng, u, t, x: np.zeros_like(u),
    "caps": lambda rng, u, t, x: u.copy(),
}


@pytest.mark.parametrize(
    "draw, guess",
    [
        pytest.param(draw, guess, id=draw_id if name == "none" else f"{draw_id}-{name}")
        for draw, draw_id in [(_generic_draw, "generic"), (_degenerate_draw, "degenerate")]
        for name, guess in GUESSES.items()
    ],
)
def test_matches_active_set_enumeration_randomized(draw, guess):
    rng, guess_rng = np.random.default_rng(42), np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        v, upper, total, weights = draw(rng)
        want = box_simplex_active_set(v, upper, total, weights)
        got = project_box_simplex(v, upper, total, weights, guess(guess_rng, upper, total, want))
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-14


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_output_always_feasible(v_list, seed, guessed):
    rng = np.random.default_rng(seed)
    v = np.array(v_list)
    upper = rng.uniform(0.05, 1.0, v.shape[0])
    total = float(rng.uniform(0.0, upper.sum()))
    # below 0, inside and above the caps
    guess = rng.uniform(-0.5, 1.5, v.shape[0]) * upper if guessed else None
    x = project_box_simplex(v, upper, total, guess=guess)
    assert np.all(x >= 0.0) and np.all(x <= upper)
    assert abs(x.sum() - total) <= 1e-14


def test_a_guess_of_the_wrong_shape_raises():
    v, upper, total = np.zeros((3, 4)), np.ones((3, 4)), np.ones(3)
    for guess in (np.zeros((3, 3)), np.zeros(4), np.zeros((1, 3, 4))):
        with pytest.raises(ValueError, match="guess"):
            project_box_simplex_batch(v, upper, total, guess=guess)


def test_projection_is_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.standard_normal(4)
        upper = rng.uniform(0.2, 1.0, 4)
        w = rng.uniform(0.5, 2.0, 4)
        once = project_box_simplex(v, upper, 1.0, w)
        twice = project_box_simplex(once, upper, 1.0, w)
        assert np.max(np.abs(once - twice)) <= 1e-12


def test_projection_is_nonexpansive_under_tiny_perturbations():
    rng = np.random.default_rng(11)
    upper = rng.uniform(0.0, 1.0, (1000, 10))
    upper *= 2.0 / upper.sum(axis=1, keepdims=True)
    total = np.ones(1000)
    v = rng.standard_normal((1000, 10))
    d = 1e-13 * rng.standard_normal((1000, 10))
    moved = project_box_simplex_batch(v + d, upper, total) - project_box_simplex_batch(v, upper, total)
    ratio = np.linalg.norm(moved, axis=1) / np.linalg.norm(d, axis=1)
    assert ratio.max() <= 1.0 + 1e-6


def test_batch_matches_per_row_bitwise():
    rng = np.random.default_rng(3)
    V = rng.standard_normal((8, 4))
    U = rng.uniform(0.3, 1.0, (8, 4))
    totals = rng.uniform(0.1, 1.0, 8)
    W = rng.uniform(0.5, 2.0, (8, 4))
    batch = project_box_simplex_batch(V, U, totals, W)
    for i in range(8):
        single = project_box_simplex(V[i], U[i], totals[i], W[i])
        assert np.array_equal(batch[i], single)


@pytest.mark.parametrize(
    "B, guessed", [(B, guessed) for guessed in (False, True) for B in (1, 20, 1000)],
    ids=["1", "20", "1000", "1-guessed", "20-guessed", "1000-guessed"],
)
def test_batch_matches_one_row_calls_bitwise_with_tied_kinks(B, guessed):
    rng = np.random.default_rng(B)
    V = rng.standard_normal((B, 10))
    U = rng.uniform(0.1, 0.4, (B, 10))
    W = rng.uniform(0.5, 2.0, (B, 10))
    # every other row repeats values, caps and weights, so several kinks coincide
    tied = slice(0, B, 2)
    V[tied] = np.round(V[tied], 1)
    U[tied] = 0.25
    W[tied] = np.tile([0.5, 1.5], 5)
    totals = rng.uniform(0.2, 1.0, B)
    for weights in (None, W):
        # a nearby problem's answer names most rows' patterns, so both the guessed and the fallback rows run
        G = None
        if guessed:
            G = project_box_simplex_batch(V + 0.1 * rng.standard_normal((B, 10)), U, totals, weights)
        batch = project_box_simplex_batch(V, U, totals, weights, G)
        for i in range(B):
            w_i, g_i = (None if a is None else a[i] for a in (weights, G))
            assert np.array_equal(batch[i], project_box_simplex(V[i], U[i], totals[i], w_i, g_i))


def test_fista_solves_box_constrained_quadratic():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5))
    H = M @ M.T + 2.0 * np.eye(5)
    c = rng.standard_normal(5)

    def grad(z):
        return H @ z - c

    def project(z):
        return np.clip(z, 0.0, 1.0)

    L = float(np.linalg.eigvalsh(H)[-1])
    mu = float(np.linalg.eigvalsh(H)[0])
    z = fista_minimize(grad, project, np.zeros(5), L, strong_convexity=mu, tol=1e-11)
    # optimality: natural residual at the solution
    assert np.linalg.norm(z - project(z - grad(z))) <= 1e-10


@pytest.mark.parametrize("strong", [True, False], ids=["constant-momentum", "restarted"])
def test_fista_batch_rows_follow_their_one_row_solves(strong):
    rng = np.random.default_rng(5)
    B, n = 6, 4
    M = rng.standard_normal((B, n, n))
    H = M @ np.swapaxes(M, 1, 2) + np.eye(n)
    c = rng.standard_normal((B, n))
    upper = rng.uniform(0.3, 1.0, (B, n))
    eig = np.linalg.eigvalsh(H)
    L, mu = eig[:, -1], (eig[:, 0] if strong else np.zeros(B))

    def grad(Z):
        return np.stack([H[i] @ Z[i] - c[i] for i in range(B)])

    def project(Z):
        return project_box_simplex_batch(Z, upper, np.ones(B))

    Z = fista_minimize(grad, project, np.zeros((B, n)), L, strong_convexity=mu, tol=1e-10)
    for i in range(B):
        z = fista_minimize(
            lambda v: H[i] @ v - c[i],
            lambda v: project_box_simplex(v, upper[i], 1.0),
            np.zeros(n),
            L[i],
            strong_convexity=mu[i],
            tol=1e-10,
        )
        assert np.array_equal(Z[i], z)


def test_fista_batch_raises_when_one_row_stalls():
    scales = np.array([[1000.0, 1.0, 7.0], [1.0, 1.0, 1.0]])
    grad = lambda Z: scales * Z - 1.0
    project = lambda Z: np.clip(Z, -10.0, 10.0)
    with pytest.raises(NoConvergence):
        fista_minimize(grad, project, np.full((2, 3), 9.0), np.array([1000.0, 1.0]), tol=1e-14, max_iters=2)


def test_fista_returns_a_row_whose_gradient_is_nan_as_nan():
    # row 0's gradient oracle returns NaN: that row comes back NaN at once, and row 1
    # keeps the bits of its own one-row solve
    c, L, upper = np.array([[0.3, 0.9], [0.8, -0.4]]), np.array([2.0, 3.0]), np.ones((2, 2))

    def grad(Z):
        G = L[:, None] * Z - c
        G[0] = np.nan
        return G

    Z = fista_minimize(grad, lambda Z: project_box_simplex_batch(Z, upper, np.ones(2)), np.zeros((2, 2)), L)
    one_row = lambda v: project_box_simplex(v, upper[1], 1.0)
    z = fista_minimize(lambda v: 3.0 * v - c[1], one_row, np.zeros(2), 3.0)
    assert np.isnan(Z[0]).all()
    assert np.array_equal(Z[1], z)


def test_dykstra_hits_intersection():
    box = lambda z: np.clip(z, 0.0, 1.0)
    half = halfspace_projector(np.array([1.0, 1.0]), 1.0)
    z = dykstra_projection(np.array([2.0, 2.0]), [box, half])
    # intersection point closest to (2, 2) on x+y<=1 within the unit box
    assert np.allclose(z, [0.5, 0.5], atol=1e-9)
