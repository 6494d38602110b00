import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyescape import stable

from oracles import sas_tail_mass

# exact tail mass P(|X| > 10) of SaS(1) at alpha = 1.5, frozen from the
# characteristic-function inversion oracle (the power-law asymptote
# 2 C_alpha / 10^alpha = 0.012616 underestimates it by ~5% at u = 10)
TAIL_MASS_15_AT_10 = 0.0132796


def test_gaussian_endpoint_variance():
    s = stable.sample_sas(stable.StableLaw(2.0), 10 ** 6, seed=11)
    assert 1.98 <= s.var() <= 2.02


def test_cauchy_median():
    s = stable.sample_sas(stable.StableLaw(1.0), 10 ** 6, seed=12)
    assert abs(np.median(s)) <= 0.01


def test_tail_mass_against_cf_inversion_oracle():
    oracle = sas_tail_mass(10.0, 1.5)
    assert oracle == pytest.approx(TAIL_MASS_15_AT_10, rel=1e-4)
    s = stable.sample_sas(stable.StableLaw(1.5), 10 ** 6, seed=13)
    emp = np.mean(np.abs(s) > 10.0)
    assert abs(emp - oracle) / oracle < 0.15


def test_char_fn_examples():
    s = stable.sample_sas(stable.StableLaw(1.5), 10 ** 6, seed=14)
    assert stable.empirical_char_fn(s, 1.0) == pytest.approx(math.exp(-1.0), abs=0.01)
    assert stable.empirical_char_fn(s, 0.0) == 1.0
    g = stable.sample_sas(stable.StableLaw(2.0), 10 ** 6, seed=15)
    assert stable.empirical_char_fn(g, 0.5) == pytest.approx(math.exp(-0.25), abs=0.01)


def test_char_fn_shares_one_buffer_bit_equal():
    # sin and cos run in place into one buffer; the value is the two-expression formula's
    s = stable.sample_sas(stable.StableLaw(1.0), 10 ** 5, seed=21)
    for omega in (0.0, 0.5, 1.0, 2.0):
        assert stable.empirical_char_fn(s, omega) == float(np.mean(np.cos(omega * s)))
    with pytest.raises(ValueError, match="symmetry guard"):
        stable.empirical_char_fn(s + 1.0, 1.0)


def test_char_fn_law_grid():
    for alpha in (1.0, 1.2, 1.5, 1.8, 2.0):
        law = stable.StableLaw(alpha)
        s = stable.sample_sas(law, 10 ** 6, seed=int(alpha * 100))
        for omega in (0.5, 1.0, 2.0):
            assert abs(stable.empirical_char_fn(s, omega) - law.char_fn(omega)) < 0.01


def test_stability_under_summation():
    # the sum of k draws divided by k^(1/alpha) must obey the same law
    alpha, k = 1.5, 8
    law = stable.StableLaw(alpha)
    s = stable.sample_sas(law, 8 * 10 ** 5, seed=16)
    summed = s.reshape(-1, k).sum(axis=1) / k ** (1.0 / alpha)
    for omega in (0.5, 1.0, 2.0):
        assert abs(stable.empirical_char_fn(summed, omega) - law.char_fn(omega)) < 0.01


def test_sampler_symmetry_sign_balance():
    s = stable.sample_sas(stable.StableLaw(1.3), 10 ** 6, seed=17)
    assert abs(np.mean(np.sign(s))) < 3.0 / math.sqrt(10 ** 6)


@given(alpha=st.floats(0.2, 2.0), u=st.floats(0.01, 0.99), w=st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_uniform_negation_negates_sample(alpha, u, w):
    x = stable.sas_from_uniforms(alpha, np.array([u]), np.array([w]))
    y = stable.sas_from_uniforms(alpha, np.array([1.0 - u]), np.array([w]))
    assert np.allclose(x, -y, atol=1e-9 * (1 + abs(float(x[0]))))


def cms_reference(alpha, u_angle, u_exp):
    """The CMS transform written out of place, one new array per operation."""
    v = np.pi * (np.asarray(u_angle, dtype=float) - 0.5)
    if alpha == 1.0:
        return np.tan(v)
    w = -np.log(np.asarray(u_exp, dtype=float))
    if alpha == 2.0:
        return 2.0 * np.sin(v) * np.sqrt(w)
    t = np.sin(alpha * v) / np.cos(v) ** (1.0 / alpha)
    return t * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 2.0 / 3.0, 1.0, 1.5, 1.999, 2.0])
def test_transform_in_place_matches_reference(alpha):
    # 0.5 and 2/3 put exponents 2, 1 and 1/2 on ``**``'s special-cased paths
    rng = np.random.default_rng(11)
    u_angle, u_exp = rng.random((64, 3)), rng.random((64, 3))
    before = u_angle.copy(), u_exp.copy()
    with np.errstate(all="ignore"):
        got = stable.sas_from_uniforms(alpha, u_angle, u_exp)
        assert got.tobytes() == cms_reference(alpha, u_angle, u_exp).tobytes()
        assert np.array_equal(u_angle, before[0]) and np.array_equal(u_exp, before[1])
        wide = stable.sas_from_uniforms(alpha, u_angle[:, :1], u_exp[0])
        assert np.array_equal(wide, cms_reference(alpha, u_angle[:, :1], u_exp[0]))
        one = stable.sas_from_uniforms(alpha, 0.3, 0.6)
        assert np.ndim(one) == 0 and one == cms_reference(alpha, 0.3, 0.6)


def test_sampler_determinism():
    law = stable.StableLaw(1.7)
    a = stable.sample_sas(law, 1000, seed=5)
    b = stable.sample_sas(law, 1000, seed=5)
    assert np.array_equal(a, b)


def test_sampler_parameter_errors():
    with pytest.raises(stable.ParameterError):
        stable.StableLaw(2.5)
    with pytest.raises(stable.ParameterError):
        stable.StableLaw(0.0)
    with pytest.raises(stable.ParameterError):
        stable.StableLaw(1.5, sigma=-1.0)
    with pytest.raises(stable.SampleSizeError):
        stable.sample_sas(stable.StableLaw(1.5), 0)


def test_estimator_known_laws():
    for alpha, lo, hi in ((1.0, 0.95, 1.05), (1.5, 1.45, 1.55), (2.0, 1.95, 2.0)):
        s = stable.sample_sas(stable.StableLaw(alpha), 10 ** 6, seed=int(alpha * 7))
        a_hat = stable.estimate_tail_index(s, k2=1000)
        assert lo <= a_hat <= hi


def test_estimator_size_errors():
    with pytest.raises(stable.SampleSizeError):
        stable.estimate_tail_index(np.ones(10), k1=5, k2=3)
    with pytest.raises(stable.SampleSizeError):
        stable.estimate_tail_index(np.ones(10), k2=1)


def test_jump_intensity_values():
    assert stable.jump_intensity(2.0, 0.1, 1.0) == pytest.approx(0.01)
    assert stable.jump_intensity(1.0, 0.5, 0.5) == pytest.approx(2.0 * 0.5 ** 0.5)
    assert stable.jump_intensity(1.3, 1.0 - 1e-12, 0.5) == pytest.approx(2.0 / 1.3)
    with pytest.raises(stable.ParameterError):
        stable.jump_intensity(1.5, 1.5, 0.5)


def test_tail_normalization_matches_intensity():
    # with the tail scale, P(|X| > u) ~ (2/alpha) u^(-alpha): check at
    # u = 50 where the asymptote is accurate, via the cf-inversion oracle
    alpha = 1.5
    sig = stable.tail_normalization(alpha)
    assert sig == pytest.approx(3.3421710328413337 ** (1.0 / 1.5), rel=1e-12)
    oracle = sas_tail_mass(50.0 / sig, alpha)
    asymptote = (2.0 / alpha) * 50.0 ** -alpha
    assert oracle == pytest.approx(asymptote, rel=0.02)


def test_decompose_simple_series():
    cfg = stable.JumpDecompositionConfig(eps=0.5, delta=1.0)  # threshold 2
    ev = stable.decompose_jumps(np.array([0.5, 3.0, 0.2]), 1.0, cfg)
    assert list(ev.times) == [2.0]
    assert list(ev.sizes) == [3.0]
    assert list(ev.small_series) == [0.5, 0.0, 0.2]
    quiet = stable.decompose_jumps(np.array([0.1, -0.3]), 1.0, cfg)
    assert quiet.times.size == 0
    assert np.array_equal(quiet.small_series, [0.1, -0.3])


def test_threshold_tie_is_big_jump():
    cfg = stable.JumpDecompositionConfig(eps=0.5, delta=1.0)
    ev = stable.decompose_jumps(np.array([2.0, -2.0, 1.999]), 1.0, cfg)
    assert ev.sizes.tolist() == [2.0, -2.0]


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=200),
       st.floats(0.05, 0.9))
@settings(max_examples=80, deadline=None)
def test_decomposition_reassembles_exactly(series, eps):
    cfg = stable.JumpDecompositionConfig(eps=eps, delta=0.7)
    ev = stable.decompose_jumps(np.array(series), 0.5, cfg)
    assert np.array_equal(ev.reassemble(), np.array(series))


def test_decompose_event_rate_matches_oracle():
    # plain SaS(1) increments at h = 1, threshold 10: the event rate is the
    # tail mass of the increment law (cf-inversion oracle), which exceeds
    # the power-law intensity (2/alpha) 10^(-alpha) by ~5% at this threshold
    rng_law = stable.StableLaw(1.5)
    n = 10 ** 5
    inc = stable.sample_sas(rng_law, n, seed=21)
    cfg = stable.JumpDecompositionConfig(eps=0.1, delta=1.0)
    ev = stable.decompose_jumps(inc, 1.0, cfg)
    rate = ev.times.size / n
    assert abs(rate - TAIL_MASS_15_AT_10) / TAIL_MASS_15_AT_10 < 0.10


def test_interjump_exponential_mean():
    rng = np.random.default_rng(3)
    gaps = rng.exponential(scale=20.0, size=10 ** 4)
    times = np.cumsum(gaps)
    ev = stable.JumpEvents(times=times, sizes=np.full(times.size, 5.0),
                           small_series=np.zeros(1), threshold=5.0, step_h=1.0)
    rep = stable.interjump_time_test(ev, psi=0.05)
    assert 19.0 <= rep["empirical_mean"] <= 21.0
    assert rep["pass"]


def test_interjump_zero_rate_errors():
    ev = stable.JumpEvents(times=np.arange(1.0, 40.0), sizes=np.full(39, 9.0),
                           small_series=np.zeros(1), threshold=5.0, step_h=1.0)
    with pytest.raises(stable.ParameterError):
        stable.interjump_time_test(ev, psi=0.0)
    with pytest.raises(stable.SampleSizeError):
        stable.interjump_time_test(
            stable.JumpEvents(times=np.arange(1.0, 10.0), sizes=np.full(9, 9.0),
                              small_series=np.zeros(1), threshold=5.0, step_h=1.0),
            psi=1.0,
        )
