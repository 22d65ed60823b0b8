"""Adaptive Gauss-Kronrod integration on scalar, complex and array integrands."""

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
    # degree 13 is exact for the embedded Gauss rule too, so the error
    # estimate vanishes and one panel suffices
    res = integrate(lambda s: s ** 13, 0.0, 1.0, initial_panels=1)
    assert_allclose(res.value, 1.0 / 14.0, rtol=1e-14)
    assert res.panels_used == 1
    res20 = integrate(lambda s: s ** 20, 0.0, 1.0, initial_panels=1)
    assert_allclose(res20.value, 1.0 / 21.0, rtol=1e-14)


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
    res = integrate(lambda s: np.exp(1j * w * s), 0.0, 2.0, initial_panels=16)
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


def test_fixed_panels_reproduce_integrate():
    # on integrate's own first layout, with a target loose enough that no
    # panel is refined, the fixed rule gives the same value and the same
    # summed error estimate (here ~1e-9, far above rounding)
    nodes, w_kron, w_err = quad.gk15_panels(0.0, 35.0, 8)
    assert nodes.shape == w_kron.shape == w_err.shape == (8, 15)
    res = integrate(np.cos, 0.0, 35.0, abs_tol=1e-6, rel_tol=1e-6, initial_panels=8)
    assert res.panels_used == 8
    assert_allclose(np.sum(w_kron * np.cos(nodes)), res.value, atol=1e-14)
    assert_allclose(np.sum(np.abs(np.sum(w_err * np.cos(nodes), axis=1))),
                    res.err_estimate, rtol=1e-6)


def test_budget_error_carries_best_result():
    with pytest.raises(BudgetExceededError) as exc_info:
        integrate(lambda s: 1.0 / np.sqrt(s), 0.0, 1.0,
                  abs_tol=1e-15, rel_tol=1e-15, panel_budget=40)
    best = exc_info.value.result
    assert isinstance(best, QuadResult)
    # endpoint singularity: crude but in the right neighborhood of 2
    assert abs(best.value - 2.0) < 0.1
    assert best.panels_used <= 40


def test_rel_tol_scaling():
    big = integrate(lambda s: 1e8 * np.cos(s), 0.0, 1.0, abs_tol=0.0, rel_tol=1e-12)
    assert_allclose(big.value, 1e8 * math.sin(1.0), rtol=1e-11)


def test_chunked_evaluation_matches_unchunked(monkeypatch):
    def f(s):
        return np.cos(np.linspace(1.0, 4.0, 7)[None, :] * s[:, None])

    full = integrate(f, 0.0, 5.0, initial_panels=32)
    monkeypatch.setattr(quad, "_CHUNK_ELEMS", 200)
    tiny = integrate(f, 0.0, 5.0, initial_panels=32)
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
