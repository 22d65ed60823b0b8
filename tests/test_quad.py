"""The Gauss-Legendre ladder on scalar, complex and array integrands, and the
fixed rules it and the Fejer levels are built from."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import hypothesis as hyp
import hypothesis.strategies as st

from qtrap import quad
from qtrap.quad import BudgetExceededError, QuadResult, integrate
from qtrap.special import NumericError, bessel_j


def test_polynomial_single_panel():
    # degrees 13 and 20 are exact for both orders of the first rung, one
    # panel at 32 and 64 nodes, so the error estimate vanishes and one rung
    # suffices
    res = integrate(lambda s: s ** 13, 0.0, 1.0, radians=0.0)
    assert_allclose(res.value, 1.0 / 14.0, rtol=1e-14)
    assert res.panels_used == 1
    res20 = integrate(lambda s: s ** 20, 0.0, 1.0, radians=0.0)
    assert_allclose(res20.value, 1.0 / 21.0, rtol=1e-14)
    assert res20.panels_used == 1


def test_oscillatory_cosine():
    res = integrate(np.cos, 0.0, 35.0)
    assert_allclose(res.value, math.sin(35.0), atol=1e-12)
    assert res.err_estimate < 1e-10


def test_bessel_moment_reference():
    # int_0^1 s J0(5 s) ds, reference from a 30-digit quadrature
    res = integrate(lambda s: s * bessel_j(0, 5.0 * s), 0.0, 1.0)
    assert_allclose(res.value, -0.06551582751829304440755, rtol=1e-12)


def test_complex_exponential():
    w = 17.3
    res = integrate(lambda s: np.exp(1j * w * s), 0.0, 2.0, radians=2.0 * w)
    exact = (np.exp(2j * w) - 1.0) / (1j * w)
    assert_allclose(res.value, exact, atol=1e-12)
    assert isinstance(res.value, complex)


def test_vector_integrand_matches_scalar_runs():
    ks = np.array([1.0, 2.0, 5.0])

    def f(s):
        return np.sin(ks[None, :] * s[:, None])

    res = integrate(f, 0.0, 3.0)
    assert res.value.shape == (3,)
    for i, k in enumerate(ks):
        exact = (1.0 - math.cos(3.0 * k)) / k
        assert_allclose(res.value[i], exact, atol=1e-12)


def test_two_axis_integrand():
    def f(s):
        return np.stack([np.stack([s, s ** 2], axis=-1),
                         np.stack([s ** 3, 0 * s + 1], axis=-1)], axis=-2)

    res = integrate(f, 0.0, 1.0)
    assert res.value.shape == (2, 2)
    assert_allclose(res.value, [[0.5, 1 / 3], [0.25, 1.0]], rtol=1e-13)


def test_reversed_limits_flip_sign():
    fwd = integrate(lambda s: s ** 2, 0.0, 2.0).value
    bwd = integrate(lambda s: s ** 2, 2.0, 0.0).value
    assert_allclose(bwd, -fwd, rtol=1e-14)


def test_empty_interval():
    res = integrate(np.sin, 1.5, 1.5)
    assert res.value == 0.0 and res.panels_used == 0


@pytest.mark.parametrize("nodes", [3, 127, 1023, 2047])
def test_fejer2_open_nested_positive_exact(nodes):
    # open: no node at 0 or 1, where the moment tables' (m / s) J_m and the
    # A^{-1} weight 1/s are NaN; nested: the half level's nodes are every
    # other node, bit for bit; positive weights, exact below degree `nodes`
    s, w, w_err = quad.fejer2(nodes)
    assert s.shape == w.shape == w_err.shape == (nodes,)
    assert 0.0 < s.min() and s.max() < 1.0
    assert np.all(np.diff(s) > 0.0)
    assert np.all(w > 0.0)
    if nodes > 3:
        half_s, half_w, _ = quad.fejer2(nodes // 2)
        assert np.array_equal(s[1::2], half_s)
        assert np.array_equal(w_err[::2], w[::2])
        assert np.array_equal(w_err[1::2], w[1::2] - half_w)
    for k in range(nodes):
        assert abs(np.dot(w, s ** k) - 1.0 / (k + 1)) <= 1e-15, k


@pytest.mark.parametrize("nodes", [0, 1, 2, 6, 8, 1000])
def test_fejer2_rejects_other_sizes(nodes):
    with pytest.raises(ValueError, match="2\\^k - 1 >= 3"):
        quad.fejer2(nodes)


@pytest.mark.parametrize("nodes", range(32, 513, 32))
def test_gauss_legendre_open_symmetric_positive_exact(nodes):
    # every order of the ladder: open, symmetric about 1/2, positive weights,
    # exact below degree 2 nodes; cached, so read-only
    s, w = quad.gauss_legendre(nodes)
    assert s.shape == w.shape == (nodes,)
    assert 0.0 < s[0] and s[-1] < 1.0
    assert np.all(np.diff(s) > 0.0)
    assert np.max(np.abs(s + s[::-1] - 1.0)) <= 1.2e-16
    assert np.array_equal(w, w[::-1]) and np.all(w > 0.0)
    k = np.arange(2 * nodes)
    moments = (s[None, :] ** k[:, None]) @ w
    assert np.max(np.abs(moments - 1.0 / (k + 1))) <= 1e-15
    assert not s.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("nodes", [32, 64, 256, 512])
def test_gauss_legendre_matches_numpy(nodes):
    # numpy's eigenvalue route on (-1, 1), mapped to (0, 1); its own weights
    # near the ends are off by up to 1.3e-12 of themselves (against 40-digit
    # mpmath at 64 nodes), which the weight tolerance allows for
    x, wx = np.polynomial.legendre.leggauss(nodes)
    s, w = quad.gauss_legendre(nodes)
    assert np.max(np.abs(s - 0.5 * (1.0 + x))) <= 2.3e-16
    assert np.max(np.abs(w - 0.5 * wx)) <= 2e-12 * w.max()


@pytest.mark.parametrize("nodes", [-32, 0, 16, 33, 100, 544, 1024])
def test_gauss_legendre_rejects_orders_off_the_ladder(nodes):
    with pytest.raises(ValueError, match="multiple of 32 up to 512"):
        quad.gauss_legendre(nodes)


def test_budget_error_carries_best_result(monkeypatch):
    monkeypatch.setattr(quad, "ABS_TOL", 1e-15)
    monkeypatch.setattr(quad, "REL_TOL", 1e-15)
    monkeypatch.setattr(quad, "PANEL_BUDGET", 40)
    with pytest.raises(BudgetExceededError, match="node budget 600 exhausted") as exc_info:
        integrate(lambda s: 1.0 / np.sqrt(s), 0.0, 1.0)
    best = exc_info.value.result
    assert isinstance(best, QuadResult)
    # endpoint singularity: crude but in the right neighborhood of 2
    assert abs(best.value - 2.0) < 0.1
    # the rungs at 32, 64, 96 and 128 nodes (96 + 160 + 224 + 288 nodes)
    assert best.panels_used == 4


def test_rel_tol_scaling(monkeypatch):
    monkeypatch.setattr(quad, "ABS_TOL", 0.0)
    monkeypatch.setattr(quad, "REL_TOL", 1e-12)
    big = integrate(lambda s: 1e8 * np.cos(s), 0.0, 1.0)
    assert_allclose(big.value, 1e8 * math.sin(1.0), rtol=1e-11)


def test_chunked_evaluation_matches_unchunked(monkeypatch):
    sizes = []

    def f(s):
        sizes.append(s.size)
        return np.cos(np.linspace(1.0, 4.0, 7)[None, :] * s[:, None])

    full = integrate(f, 0.0, 5.0, radians=20.0)
    monkeypatch.setattr(quad, "_SLICE_NODES", 50)
    sizes.clear()
    tiny = integrate(f, 0.0, 5.0, radians=20.0)
    # a rung of more than 50 nodes, in slices of at most 50
    assert max(sizes) <= 50 < sum(sizes)
    assert_allclose(tiny.value, full.value, rtol=1e-13, atol=1e-15)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_integrand_raises_numeric_error():
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError, match="not finite"):
            integrate(lambda s: np.full(s.size, bad), 0.0, 1.0)


def test_bad_integrand_shape_rejected():
    with pytest.raises(ValueError):
        integrate(lambda s: s[:-1], 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, np.inf)


def test_radians_nan_or_negative_rejected():
    for bad in (math.nan, -1.0):
        with pytest.raises(ValueError, match="radians must be >= 0"):
            integrate(np.sin, 0.0, 1.0, radians=bad)


def test_phase_within_budget_refuses_phase_past_budget(monkeypatch):
    # the limit scales with the panel budget, read at call time, and
    # integrate's bound on its phase meets it up front
    quad._phase_within_budget(-1e5)
    with pytest.raises(NumericError, match=r"total phase 1\.001e\+05 rad .*PANEL_BUDGET = 20000"):
        quad._phase_within_budget(1.001e5)
    with pytest.raises(NumericError, match=r"total phase 1\.001e\+05 rad .*PANEL_BUDGET = 20000"):
        integrate(np.sin, 0.0, 1.0, radians=1.001e5)
    with pytest.raises(NumericError):
        quad._phase_within_budget(math.nan)
    monkeypatch.setattr(quad, "PANEL_BUDGET", 40000)
    quad._phase_within_budget(1.5e5)


@hyp.settings(max_examples=10, deadline=None)
@hyp.given(st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.1, max_value=4.0))
def test_gaussian_segments_additive(a, width):
    b = a + width
    mid = 0.5 * (a + b)
    f = lambda s: np.exp(-s * s)
    whole = integrate(f, a, b).value
    parts = integrate(f, a, mid).value + integrate(f, mid, b).value
    assert_allclose(whole, parts, atol=1e-12)
