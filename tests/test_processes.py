import numpy as np
import pytest
from scipy.integrate import quad

from hilbert_gauss.processes import (
    Grid,
    _basis,
    bridge_model,
    coeffs_from_trajectory,
    custom_model,
    eval_basis,
    eval_vector,
    kernel,
    wiener_model,
)
from hilbert_gauss.spectral import HVector

# leading eigenvalues, frozen from 1/((k-1/2)^2 pi^2) resp. 1/(k^2 pi^2)
WIENER_EIG_1 = 0.4052847345693511
WIENER_EIG_2 = 0.04503163717437234
WIENER_EIG_4 = 0.008271117032027573
BRIDGE_EIG_1 = 0.10132118364233778


def test_wiener_spectrum_values():
    m = wiener_model(8)
    assert m.basis_id == "wiener"
    assert m.eigenvalues[0] == pytest.approx(WIENER_EIG_1, abs=1e-16)
    assert m.eigenvalues[1] == pytest.approx(WIENER_EIG_2, abs=1e-16)
    assert m.eigenvalues[3] == pytest.approx(WIENER_EIG_4, abs=1e-16)
    assert np.all(np.diff(m.eigenvalues) < 0)


def test_bridge_spectrum_values():
    m = bridge_model(8)
    assert m.basis_id == "bridge"
    assert m.eigenvalues[0] == pytest.approx(BRIDGE_EIG_1, abs=1e-16)
    assert m.eigenvalues[3] == pytest.approx(BRIDGE_EIG_1 / 16.0, abs=1e-16)


@pytest.mark.parametrize("n_modes", [1, 16, 256, 4096])
def test_wiener_trace_exact(n_modes):
    m = wiener_model(n_modes)
    assert m.trace() == 0.5
    assert m.tail_trace > 0.0


@pytest.mark.parametrize("n_modes", [1, 16, 256])
def test_bridge_trace_exact(n_modes):
    m = bridge_model(n_modes)
    assert m.trace() == 1.0 / 6.0


def test_bridge_tail_single_mode():
    # 1/6 - 1/pi^2
    assert bridge_model(1).tail_trace == pytest.approx(0.06534548302432888, abs=1e-16)


def test_custom_model():
    m = custom_model([3.0, 1.0, 1.0], tail_trace=0.25)
    assert m.basis_id == "abstract"
    assert m.trace() == 5.25
    with pytest.raises(ValueError):
        eval_basis(m, 1, 0.5)


def test_basis_formulas():
    t = np.array([0.0, 0.3, 1.0])
    np.testing.assert_allclose(
        eval_basis(wiener_model(4), 2, t), np.sqrt(2.0) * np.sin(1.5 * np.pi * t), atol=1e-15
    )
    np.testing.assert_allclose(
        eval_basis(bridge_model(4), 3, t), np.sqrt(2.0) * np.sin(3.0 * np.pi * t), atol=1e-15
    )
    assert eval_basis(wiener_model(4), 1, 0.0) == 0.0
    assert abs(eval_basis(wiener_model(4), 3, 1.0)) == pytest.approx(np.sqrt(2.0), abs=1e-15)


@pytest.mark.parametrize("family", [wiener_model, bridge_model])
def test_basis_orthonormal_by_quadrature(family):
    m = family(8)
    for j in (1, 2, 5):
        for k in (1, 2, 5):
            val, _ = quad(lambda t: eval_basis(m, j, t) * eval_basis(m, k, t), 0.0, 1.0, limit=200)
            assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-9)


def test_mercer_kernel_converges_to_covariance():
    pts = [(0.2, 0.7), (0.5, 0.5), (0.9, 0.3)]
    for s, t in pts:
        w_true = min(s, t)
        b_true = min(s, t) - s * t
        w_prev = b_prev = np.inf
        for n in (10, 100, 1000):
            w_err = abs(kernel(wiener_model(n), s, t) - w_true)
            b_err = abs(kernel(bridge_model(n), s, t) - b_true)
            assert w_err < 1.0 / n and b_err < 1.0 / n
            assert w_err < w_prev and b_err < b_prev
            w_prev, b_prev = w_err, b_err


def test_trajectory_roundtrip():
    m = wiener_model(16)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=16) * np.sqrt(m.eigenvalues)
    y = HVector(coeffs)
    grid = Grid.uniform(4096)
    values = eval_vector(m, y, grid)
    back = coeffs_from_trajectory(m, grid, values)
    np.testing.assert_allclose(back.coeffs, coeffs, atol=1e-4)


def explicit_coeffs(model, grid, values):
    """Reference quadrature: np.trapezoid over the explicitly built basis."""
    basis = np.array([eval_basis(model, k, grid.points) for k in range(1, model.dim + 1)])
    return np.trapezoid(basis * values[None, :], grid.points, axis=1)


@pytest.mark.parametrize("family", [wiener_model, bridge_model])
def test_trajectory_quadrature_matches_trapezoid_on_nonuniform_grid(family):
    m = family(32)
    rng = np.random.default_rng(11)
    grid = Grid(np.sort(rng.uniform(0.0, 1.0, 300)))
    values = rng.normal(size=grid.size)
    got = coeffs_from_trajectory(m, grid, values).coeffs
    want = explicit_coeffs(m, grid, values)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


def test_trajectory_basis_cache_is_keyed_on_basis_modes_and_grid():
    rng = np.random.default_rng(12)
    grids = [Grid.uniform(50), Grid(np.sort(rng.uniform(0.0, 1.0, 50)))]
    models = [family(dim) for family in (wiener_model, bridge_model) for dim in (8, 12)]
    cases = [(m, g, rng.normal(size=g.size)) for m in models for g in grids]
    expected = [explicit_coeffs(m, g, v) for m, g, v in cases]
    for _ in range(2):
        for (m, g, v), want in zip(cases, expected):
            got = coeffs_from_trajectory(m, g, v).coeffs
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


def test_cached_basis_is_read_only_and_not_aliased():
    m = wiener_model(8)
    grid = Grid.uniform(20)
    basis, weights = _basis(m.basis_id, m.dim, grid.points.tobytes())
    assert basis.shape == (8, 20) and not basis.flags.writeable
    assert weights.shape == (20,) and not weights.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 1.0
    with pytest.raises(ValueError):
        weights[0] = 1.0
    y = coeffs_from_trajectory(m, grid, np.ones(grid.size))
    assert not np.shares_memory(y.coeffs, basis) and not np.shares_memory(y.coeffs, weights)
    cached = _basis(m.basis_id, m.dim, grid.points.tobytes())
    assert cached[0] is basis and cached[1] is weights


@pytest.mark.parametrize("points", ([0.4], [0.0, 1.0], np.linspace(0.0, 1.0, 7), [0.05, 0.3, 0.31, 0.9]))
def test_cached_trapezoid_weights_have_the_bits_of_the_interval_halves(points):
    # Half of each interval added to both of its ends, bit for bit.
    grid = Grid(points)
    half = np.diff(grid.points) / 2.0
    want = np.zeros(grid.size)
    want[:-1] += half
    want[1:] += half
    got = _basis("wiener", 4, grid.points.tobytes())[1]
    assert got.tobytes() == want.tobytes()


def test_one_point_grid_gives_zero_coefficients():
    y = coeffs_from_trajectory(bridge_model(6), Grid([0.4]), [2.5])
    assert np.array_equal(y.coeffs, np.zeros(6))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid([0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        Grid([-0.1, 0.5])
    with pytest.raises(ValueError):
        Grid.uniform(1)
    g = Grid.uniform(3)
    np.testing.assert_allclose(g.points, [0.0, 0.5, 1.0])
