import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyescape import geometry

from oracles import (
    ellipsoid_volume_mc,
    radon_measure_d4_pairs,
    radon_measure_grid_2d,
    radon_measure_grid_3d,
    radon_measure_sampled,
)


def random_spd(d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = rng.uniform(0.2, 8.0, size=d)
    return q @ np.diag(eigs) @ q.T


def test_isotropic_sets_coincide():
    spec = geometry.Spectrum(lambdas=np.array([2.0, 2.0]),
                             sigmas=np.array([1.0, 1.0]),
                             batch_size=1, h_f_star=2.0)
    w_sgd, w_adam = geometry.build_escape_sets(spec)
    assert np.allclose(w_sgd.A, w_adam.A)
    assert np.allclose(w_sgd.A, 2.0 * np.eye(2))
    assert w_sgd.c == pytest.approx(2.0)
    assert not w_sgd.membership(np.array([0.5, 0.5]))
    assert w_sgd.membership(np.array([1.0, 0.1]))


def test_escape_set_entrywise_products():
    spec = geometry.Spectrum(lambdas=np.array([4.0, 1.0]),
                             sigmas=np.array([2.0, 0.5]),
                             batch_size=1, h_f_star=1.0)
    w_sgd, _ = geometry.build_escape_sets(spec)
    assert np.allclose(w_sgd.A, np.diag([16.0, 0.25]))


def test_degenerate_covariance_empty_set():
    spec = geometry.Spectrum(lambdas=np.array([4.0, 1.0]),
                             sigmas=np.zeros(2), batch_size=1, h_f_star=1.0)
    w_sgd, _ = geometry.build_escape_sets(spec)
    assert not w_sgd.membership(np.array([1e9, 1e9]))
    with pytest.raises(Exception):
        geometry.radon_measure(w_sgd, 1.5)


def test_radon_measure_1d_closed_form():
    # W = {|y| >= 2}: m = (2/alpha) 2^(-alpha); at alpha = 1 this is 1
    w = geometry.QuadraticEscapeSet(A=np.array([[1.0]]), c=4.0)
    assert geometry.radon_measure(w, 1.0) == pytest.approx(1.0)
    assert geometry.radon_measure(w, 1.5) == pytest.approx((2 / 1.5) * 2 ** -1.5)


def test_radon_measure_threshold_scaling_closed_form():
    w1 = geometry.QuadraticEscapeSet(A=np.array([[3.0]]), c=1.0)
    w4 = geometry.QuadraticEscapeSet(A=np.array([[3.0]]), c=4.0)
    for alpha in (0.8, 1.3, 2.0):
        assert geometry.radon_measure(w4, alpha) == pytest.approx(
            2.0 ** -alpha * geometry.radon_measure(w1, alpha), rel=1e-12
        )


def test_radon_measure_matches_grid_oracle_2d():
    a = np.diag([4.0, 1.0])
    w = geometry.QuadraticEscapeSet(A=a, c=1.0)
    sampled = geometry.radon_measure(w, 1.5, n_dirs=400_000, seed=2)
    oracle = radon_measure_grid_2d(a, 1.0, 1.5)
    assert abs(sampled - oracle) / oracle < 0.01


def test_radon_measure_matches_grid_oracle_random_spd():
    for i, d in enumerate([2, 2, 2, 3, 3]):
        a = random_spd(d, 100 + i)
        w = geometry.QuadraticEscapeSet(A=a, c=1.7)
        sampled = geometry.radon_measure(w, 1.5, n_dirs=400_000, seed=3 + i)
        if d == 2:
            oracle = radon_measure_grid_2d(a, 1.7, 1.5)
        else:
            oracle = radon_measure_grid_3d(a, 1.7, 1.5)
        assert abs(sampled - oracle) / oracle < 0.01


def test_homogeneity_sampled_path_3_sigma():
    a = random_spd(3, 7)
    for k in (0.3, 2.0, 9.0):
        w1 = geometry.QuadraticEscapeSet(A=a, c=1.0)
        wk = geometry.QuadraticEscapeSet(A=a, c=k)
        m1, e1 = geometry.radon_measure(w1, 1.5, n_dirs=200_000, seed=11,
                                        with_stderr=True)
        mk, ek = geometry.radon_measure(wk, 1.5, n_dirs=200_000, seed=11,
                                        with_stderr=True)
        expect = k ** -0.75 * m1
        tol = 3.0 * math.hypot(ek, k ** -0.75 * e1)
        assert abs(mk - expect) <= max(tol, 1e-12)


def test_rotation_invariance():
    a = np.diag([5.0, 1.0, 0.5])
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    w = geometry.QuadraticEscapeSet(A=a, c=1.0)
    wr = geometry.QuadraticEscapeSet(A=q @ a @ q.T, c=1.0)
    m, e = geometry.radon_measure(w, 1.5, n_dirs=300_000, seed=5, with_stderr=True)
    mr, er = geometry.radon_measure(wr, 1.5, n_dirs=300_000, seed=6, with_stderr=True)
    assert abs(m - mr) <= 4.0 * math.hypot(e, er)


def test_ellipsoid_volumes():
    assert geometry.ellipsoid_volume(np.eye(2), 1.0) == pytest.approx(math.pi)
    assert geometry.ellipsoid_volume(np.diag([4.0, 1.0]), 1.0) == pytest.approx(
        math.pi / 2
    )
    a = np.diag([1.0, 4.0, 9.0])
    vol = geometry.ellipsoid_volume(a, 1.0)
    assert vol == pytest.approx(4 * math.pi / 3 / 6, rel=1e-12)
    mc = ellipsoid_volume_mc(a, 1.0, n=10_000_000, seed=1)
    assert abs(vol - mc) / vol < 0.005


def test_volume_echo_disagrees_by_design():
    lambdas = np.array([4.0, 1.0])
    echo = geometry.legacy_volume_echo(lambdas, 1, 1.0)
    standard = geometry.ellipsoid_volume(np.diag(lambdas), 1.0)
    assert echo != pytest.approx(standard)


def test_compare_measures_identity_ratio_one():
    spec = geometry.Spectrum(lambdas=np.ones(2), sigmas=np.ones(2),
                             batch_size=1, h_f_star=1.0)
    rep = geometry.compare_measures(spec, 1.5, n_dirs=100_000)
    assert rep["ratio_sgd_over_adam"] == pytest.approx(1.0, rel=1e-9)


def test_compare_measures_sigma_scaling():
    base = geometry.Spectrum(lambdas=np.array([3.0, 1.0]),
                             sigmas=np.array([2.0, 0.5]),
                             batch_size=1, h_f_star=1.0)
    scaled = geometry.Spectrum(lambdas=np.array([3.0, 1.0]),
                               sigmas=np.array([4.0, 1.0]),
                               batch_size=1, h_f_star=1.0)
    alpha = 1.5
    r0 = geometry.compare_measures(base, alpha, n_dirs=100_000, seed=4)
    r1 = geometry.compare_measures(scaled, alpha, n_dirs=100_000, seed=4)
    assert r1["m_sgd"] == pytest.approx(2.0 ** alpha * r0["m_sgd"], rel=1e-9)
    assert r1["m_adam"] == pytest.approx(r0["m_adam"], rel=1e-9)


def test_spectrum_validation():
    with pytest.raises(Exception):
        geometry.Spectrum(lambdas=np.array([1.0, 2.0]), sigmas=np.ones(2))
    with pytest.raises(Exception):
        geometry.Spectrum(lambdas=np.array([2.0, 1.0]), sigmas=np.ones(3))
    with pytest.raises(Exception):
        geometry.QuadraticEscapeSet(A=np.array([[1.0, 2.0], [2.0, 1.0]]), c=1.0)
    with pytest.raises(Exception):
        geometry.ellipsoid_volume(np.zeros((2, 2)), 1.0)


def test_shared_rotation_keeps_alignment():
    spec = geometry.Spectrum(lambdas=np.array([4.0, 1.0]),
                             sigmas=np.array([2.0, 0.5]),
                             batch_size=1, h_f_star=1.0, rotation_seed=3)
    w_sgd, w_adam = geometry.build_escape_sets(spec)
    # same eigenvectors: the product of the two A matrices commutes
    assert np.allclose(w_sgd.A @ w_adam.A, w_adam.A @ w_sgd.A, atol=1e-9)
    assert np.linalg.eigvalsh(w_sgd.A) == pytest.approx([0.25, 16.0], rel=1e-9)


def test_quadrature_exact_at_alpha_two():
    # at alpha = 2 the sphere mean of u^T A u / c is tr(A) / (c d)
    rng = np.random.default_rng(21)
    for d in (2, 3):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        for a in (np.diag(np.arange(1.0, d + 1.0)), q @ np.diag(rng.uniform(0.1, 9.0, d)) @ q.T):
            w = geometry.QuadraticEscapeSet(A=a, c=1.7)
            exact = geometry.sphere_surface_area(d) * np.trace(a) / (2.0 * 1.7 * d)
            m, err = geometry.radon_measure(w, 2.0, n_dirs=10_000, with_stderr=True)
            assert m == pytest.approx(exact, rel=1e-12)
            assert 0.0 < err < 1e-11 * m


def test_quadrature_matches_grid_oracle_2d_tightly():
    for i in range(3):
        a = random_spd(2, 200 + i)
        w = geometry.QuadraticEscapeSet(A=a, c=0.9)
        oracle = radon_measure_grid_2d(a, 0.9, 1.3)
        assert geometry.radon_measure(w, 1.3, n_dirs=100_000) == pytest.approx(oracle, rel=1e-9)


def test_compare_spectrum_exact_values():
    spec = geometry.Spectrum(lambdas=np.array([10.0, 0.1]), sigmas=np.array([3.0, 0.1]))
    rep = geometry.compare_measures(spec, 1.5, n_dirs=400_000)
    assert rep["m_sgd"] == pytest.approx(68.1049359655, rel=1e-9)
    assert rep["m_adam"] == pytest.approx(13.2694593261, rel=1e-9)
    assert 0.0 < rep["m_sgd_stderr"] < 1e-9 * rep["m_sgd"]
    assert set(rep["radon_evaluations"]) == {"sgd", "adam"}
    assert all(0 < n <= 400_000 for n in rep["radon_evaluations"].values())


@pytest.mark.parametrize("diag, budget", [
    ([4.0, 0.0], 1_000),         # singular, d = 2
    ([4.0, 1.0, 0.0], 5_000),    # singular, d = 3
    ([90.0, 1e-3], 1_000),       # anisotropy 9e4, as the compare preset's SGD set
    ([90.0, 1e-3], 400_000),
    ([90.0, 1.0, 1e-3], 20_000),
    ([4.0, 1.0], 3),             # below the first rule's size
])
def test_quadrature_budget_and_error_cover_reference(diag, budget):
    w = geometry.QuadraticEscapeSet(A=np.diag(diag), c=1.0)
    for alpha in (0.5, 1.5):
        m, err, used = geometry.radon_measure(w, alpha, n_dirs=budget, with_stderr=True,
                                              with_evaluations=True)
        ref, ref_err = geometry.radon_measure(w, alpha, n_dirs=2_000_000, with_stderr=True)
        assert used <= budget
        assert ref_err <= err
        assert abs(m - ref) <= err


def test_quadrature_ignores_seed():
    for d in (2, 3, 4, 6):
        w = geometry.QuadraticEscapeSet(A=random_spd(d, 30 + d), c=1.0)
        values = {geometry.radon_measure(w, 1.5, n_dirs=50_000, seed=s) for s in (0, 1, 99)}
        assert len(values) == 1


@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.5, 1.99])
def test_integral_matches_d4_closed_form(alpha):
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    for a, b in ((3.0, 1.0), (900.0, 1.0), (1e-3, 90.0)):
        w = geometry.QuadraticEscapeSet(A=q @ np.diag([a, b, a, b]) @ q.T, c=1.3)
        exact = radon_measure_d4_pairs(a, b, 1.3, alpha)
        m, err = geometry.radon_measure(w, alpha, with_stderr=True)
        assert abs(m - exact) <= 1e-12 * exact
        assert abs(m - exact) <= err


def test_integral_matches_sampled_oracle_d6():
    a = random_spd(6, 61)
    m, err = geometry.radon_measure(geometry.QuadraticEscapeSet(A=a, c=0.8), 1.3,
                                    with_stderr=True)
    sampled, stderr = radon_measure_sampled(a, 0.8, 1.3, n_dirs=1_000_000, seed=62)
    assert err < 1e-10 * m
    assert abs(m - sampled) <= 4.0 * stderr


def test_closed_form_error_is_a_rounding_bound():
    w = geometry.QuadraticEscapeSet(A=np.array([[3.0]]), c=2.0)
    m, err = geometry.radon_measure(w, 1.2, with_stderr=True)
    assert 0.0 < err < 1e-14 * m


def test_sampler_error_is_never_zero():
    # a budget of one evaluation: the value is mean(lam)^p and the error
    # mean(lam)^p - lam_min^p, which by Jensen's inequality covers the true mean
    w = geometry.QuadraticEscapeSet(A=np.diag([4.0, 3.0, 2.0, 1.0]), c=1.0)
    m, err = geometry.radon_measure(w, 1.5, n_dirs=1, with_stderr=True)
    factor = geometry.sphere_surface_area(4) / 1.5
    assert err == pytest.approx(factor * (2.5 ** 0.75 - 1.0), rel=1e-12)
    ref, ref_err = geometry.radon_measure(w, 1.5, n_dirs=100_000, seed=5, with_stderr=True)
    assert abs(m - ref) <= err + 3.0 * ref_err
    # a constant integrand: every sample is exact, and the error is rounding
    iso = geometry.QuadraticEscapeSet(A=2.0 * np.eye(4), c=1.0)
    for n_dirs in (1, 10):
        m, err = geometry.radon_measure(iso, 1.5, n_dirs=n_dirs, with_stderr=True)
        assert 0.0 < err < 1e-10 * m
        assert abs(m - factor * 2.0 ** 0.75) <= err
