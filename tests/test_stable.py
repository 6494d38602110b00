import itertools
import math
import os
import pathlib
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyescape import stable

from oracles import sas_tail_mass, tail_index_two_buffers

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


def guard_trips(s, omega):
    """The symmetry guard's decision from the float64 sines, unsliced."""
    return abs(float(np.mean(np.sin(omega * s)))) >= 5 / math.sqrt(s.size)


def char_fn_reference(s, omega):
    """``empirical_char_fn`` without a screen: a sin pass, the guard, a cos pass."""
    imag = float(np.mean(np.sin(np.multiply(omega, s))))
    if abs(imag) >= 5.0 / math.sqrt(s.size):
        raise ValueError("symmetry guard")
    return float(np.mean(np.cos(np.multiply(omega, s))))


@pytest.fixture
def exact_sin_passes(monkeypatch):
    """A list that gets one entry per exact float64 sin pass slice."""
    calls, phase_slice = [], stable._phase_slice

    def counted(part, trig, omega, x, out):
        if trig is np.sin:
            calls.append(part)
        return phase_slice(part, trig, omega, x, out)

    monkeypatch.setattr(stable, "_phase_slice", counted)
    return calls


def test_char_fn_screen_decides_as_the_exact_guard(exact_sin_passes):
    # bisect the shift c of s + c to the two neighbouring floats where the
    # float64 guard flips: |mean sin| sits within rounding of 5/sqrt(n) there
    s = stable.sample_sas(stable.StableLaw(1.5), 10 ** 4, seed=31)
    under, over = 0.0, 1.0
    assert not guard_trips(s + under, 1.0) and guard_trips(s + over, 1.0)
    while (under + over) / 2 not in (under, over):
        mid = (under + over) / 2
        under, over = (under, mid) if guard_trips(s + mid, 1.0) else (mid, over)
    # exactly at the limit: sin(fl(pi/2)) is 1.0 and the sums are exact
    at_limit = [np.full(25, np.pi / 2), np.repeat([np.pi / 2, 0.0], 50)]
    for x in at_limit:
        assert abs(float(np.mean(np.sin(x)))) == 5 / math.sqrt(x.size)
    cases = [s + c for c in (0.0, 0.05, under, over, 0.5)] + at_limit
    for x in cases:
        if guard_trips(x, 1.0):
            with pytest.raises(ValueError, match="symmetry guard"):
                stable.empirical_char_fn(x, 1.0)
        else:
            assert stable.empirical_char_fn(x, 1.0) == float(np.mean(np.cos(x)))
    exact_sin_passes.clear()
    for x in at_limit:
        with pytest.raises(ValueError, match="symmetry guard"):
            stable.empirical_char_fn(x, 1.0)
    assert len(exact_sin_passes) == 2


def test_char_fn_screen_decides_every_criterion_1_input(exact_sin_passes):
    # the inputs of acceptance criterion 1 never need the float64 sin pass
    for alpha in (1.0, 1.2, 1.5, 1.8, 2.0):
        s = stable.sample_sas(stable.StableLaw(alpha), 10 ** 6, seed=int(alpha * 1000))
        for omega in (0.5, 1.0, 2.0):
            assert stable.empirical_char_fn(s, omega) == float(np.mean(np.cos(omega * s)))
    assert exact_sin_passes == []


def test_float32_sine_stays_within_the_screens_allowance():
    # the screen's one assumption, with a factor 4 to spare: past the cast's
    # own error 2^-24 min(|y|, 2^25), numpy's float32 sine errs by <= 2^-22
    flt_max = float(np.finfo(np.float32).max)
    y = np.geomspace(1e-300, flt_max, 400_001)
    y = np.concatenate([y, -y])
    with np.errstate(under="ignore"):
        sin32 = np.sin(y.astype(np.float32)).astype(float)
    excess = np.abs(sin32 - np.sin(y)) - 2.0 ** -24 * np.minimum(np.abs(y), 2.0 ** 25)
    assert np.all(excess <= 2.0 ** -22)


def _observed(call):
    """(value or error, warnings) of ``call()``, a NaN value as the string "nan"."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
            value = "nan" if math.isnan(value) else value
        except (ValueError, FloatingPointError) as exc:
            value = (type(exc), str(exc) if isinstance(exc, FloatingPointError) else None)
    return value, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("errstate", [{}, {"all": "raise"}, {"over": "raise", "invalid": "raise"}])
def test_char_fn_screen_leaves_nonfinite_inputs_to_the_exact_pass(errstate):
    # a NaN, an inf or |omega x| > FLT_MAX makes the screen's sum NaN; the
    # exact pass then gives the reference's value, warnings and errors.  A
    # subnormal makes the float64 sine underflow, which only all="raise" sees
    s = stable.sample_sas(stable.StableLaw(1.5), 1000, seed=32)
    cases = []
    for bad in (np.inf, -np.inf, np.nan, 1e39, 1e300, 1e-310):
        x = s.copy()
        x[7] = bad
        cases += [(x, 1.0), (x, 1e10), (x + 1.0, 1.0)]
    for x, omega in cases:
        with np.errstate(**errstate):
            got = _observed(lambda: stable.empirical_char_fn(x, omega))
            want = _observed(lambda: char_fn_reference(x, omega))
        assert got == want, (x[7], omega)


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


S = stable._SLICE


@pytest.mark.parametrize("n", [1, S, S + 1, 5 * S + 7])
@pytest.mark.parametrize("alpha", [0.5, 2.0 / 3.0, 1.0, 1.5, 2.0])
def test_transform_bit_equal_across_slice_edges(alpha, n):
    # 0.5 and 2/3 take ``**``'s special paths, 1 is tan and 2 the Gaussian
    # branch; a skipped slice leaves values unwritten, and with ``out`` the
    # angle uniforms, a repeated one transforms its values twice
    rng = np.random.default_rng(n)
    for shape in ((n,), (3, n, 2)):
        u_angle, u_exp = rng.random(shape), rng.random(shape)
        before = u_angle.tobytes(), u_exp.tobytes()
        expected = cms_reference(alpha, u_angle, u_exp).tobytes()
        assert stable.sas_from_uniforms(alpha, u_angle, u_exp).tobytes() == expected
        assert (u_angle.tobytes(), u_exp.tobytes()) == before
        strided = np.stack([u_angle, u_exp], axis=-1)  # each input's values 16 bytes apart
        assert strided[..., 0].strides[-1] == 16
        assert stable.sas_from_uniforms(alpha, strided[..., 0],
                                        strided[..., 1]).tobytes() == expected
        got = stable.sas_from_uniforms(alpha, u_angle, u_exp, out=u_angle)
        assert np.shares_memory(got, u_angle) and u_angle.tobytes() == expected
        assert u_exp.tobytes() == before[1]


def test_transform_rejects_an_out_it_cannot_fill():
    u = np.full((4, 3), 0.25)
    for out in (np.empty(12), np.empty((4, 3), dtype=np.float32), np.empty((3, 4)).T):
        with pytest.raises(ValueError, match="out must be"):
            stable.sas_from_uniforms(1.5, u, u, out=out)


def test_transform_by_parts_reads_its_uniforms_in_place():
    # each part is transformed from the uniforms as they are when it is
    # yielded, so inputs that would be copied first (strided, broadcast) are
    # refused; parts in any order give the bits of the default slices
    u = np.random.default_rng(4).random((4, 6))
    parts = [slice(0, 10), slice(10, 24)]
    for u_angle, u_exp in ((u[:, ::2], u[:, ::2]), (u, 0.5)):
        with pytest.raises(ValueError, match="C-contiguous"):
            stable.sas_from_uniforms(1.5, u_angle, u_exp, parts=parts)
    got = stable.sas_from_uniforms(1.5, u, u[::-1].copy(), parts=iter(parts[::-1]))
    assert got.tobytes() == stable.sas_from_uniforms(1.5, u, u[::-1].copy()).tobytes()


def test_sample_sas_scales_in_place_bit_equal():
    law = stable.StableLaw(1.3, sigma=2.5)
    rng = np.random.default_rng(8)
    u_angle, u_exp = rng.random(2 * S + 3), rng.random(2 * S + 3)
    got = stable.sample_sas(law, 2 * S + 3, seed=8)
    assert got.tobytes() == (2.5 * cms_reference(1.3, u_angle, u_exp)).tobytes()


@pytest.fixture
def one_worker(monkeypatch):
    """A pool of one slice worker, whatever the number of usable cores."""
    with ThreadPoolExecutor(1) as executor:
        monkeypatch.setattr(stable, "_pool", (executor, 1))
        yield


def test_slices_are_each_taken_once_by_more_workers_than_cores(monkeypatch):
    # out = u_angle: a slice taken twice is transformed twice, one never taken stays uniform
    rng = np.random.default_rng(3)
    uniforms, u_exp = rng.random(9 * S + 5), rng.random(9 * S + 5)
    expected = cms_reference(1.5, uniforms, u_exp).tobytes()
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(4) as executor:
        monkeypatch.setattr(stable, "_pool", (executor, 4))
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                u_angle = uniforms.copy()
                stable.sas_from_uniforms(1.5, u_angle, u_exp, out=u_angle)
                assert u_angle.tobytes() == expected
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("n", [1, S - 1, S, S + 1, 3 * S + 5])
def test_char_fn_screen_slices_are_each_taken_once(monkeypatch, exact_sin_passes, n):
    # a screen slice taken twice or never leaves its sums wrong; the value
    # and the guard's decision are the unsliced formula's, and a NaN at
    # either end of any slice leaves the decision to the exact sin pass
    s = stable.sample_sas(stable.StableLaw(1.2), n, seed=n)
    for at in {0, n - 1} | {k * S + e for k in range(1, -(-n // S)) for e in (-1, 0)}:
        x = s.copy()
        x[at] = np.nan
        exact_sin_passes.clear()
        assert math.isnan(stable.empirical_char_fn(x, 1.0)) and exact_sin_passes
    taken, screen_slice = [], stable._screen_slice

    def counted(i, *args):
        taken.append(i)
        return screen_slice(i, *args)

    monkeypatch.setattr(stable, "_screen_slice", counted)
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(4) as executor:
        monkeypatch.setattr(stable, "_pool", (executor, 4))
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                for x in (s, s + 1.0):
                    taken.clear()
                    if guard_trips(x, 1.0):
                        with pytest.raises(ValueError, match="symmetry guard"):
                            stable.empirical_char_fn(x, 1.0)
                    else:
                        assert stable.empirical_char_fn(x, 1.0) == float(np.mean(np.cos(x)))
                    assert sorted(taken) == list(range(-(-n // S)))
        finally:
            sys.setswitchinterval(interval)


def _zero_in_a_worker_slice(monkeypatch):
    # the calling thread holds its first slice until the worker has taken
    # one, and the worker's slices see u_exp = 0.0 at their first value
    caller, taken = threading.get_ident(), threading.Event()
    cms_slice = stable._cms_slice

    def kernel(part, alpha, u_angle, u_exp, out):
        if threading.get_ident() == caller:
            assert taken.wait(30)
            return cms_slice(part, alpha, u_angle, u_exp, out)
        taken.set()
        zeroed = u_exp[part].copy()
        zeroed[0] = 0.0
        return cms_slice(slice(0, zeroed.size), alpha, u_angle[part], zeroed, out[part])

    monkeypatch.setattr(stable, "_cms_slice", kernel)


def test_worker_slices_raise_under_the_callers_error_state(monkeypatch, one_worker):
    _zero_in_a_worker_slice(monkeypatch)
    u_angle, u_exp = np.full(5 * S, 0.3), np.full(5 * S, 0.5)
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        stable.sas_from_uniforms(1.5, u_angle, u_exp)


def test_worker_slices_stay_quiet_under_the_callers_error_state(monkeypatch, one_worker):
    # W = inf makes the result infinite through divisions by zero alone
    _zero_in_a_worker_slice(monkeypatch)
    u_angle, u_exp = np.full(5 * S, 0.3), np.full(5 * S, 0.5)
    with np.errstate(divide="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = stable.sas_from_uniforms(1.5, u_angle, u_exp)
    infinite = np.flatnonzero(np.isinf(x))
    assert infinite.size and np.all(infinite % S == 0)  # the first value of each worker slice


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_drops_the_pool_and_transforms():
    # the child has none of the parent's threads: it forgets the parent's
    # pool and must finish a five-slice transform on its own
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import os, sys, time\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import numpy as np\n"
        "from levyescape import stable\n"
        "stable._pool = (ThreadPoolExecutor(1), 1)\n"
        "u = np.full(5 * stable._SLICE, 0.25)\n"
        "want = stable.sas_from_uniforms(1.5, u, u)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    dropped = stable._pool is None\n"
        "    same = np.array_equal(stable.sas_from_uniforms(1.5, u, u), want)\n"
        "    os._exit(0 if dropped and same else 1)\n"
        "deadline = time.monotonic() + 60\n"
        "while time.monotonic() < deadline:\n"
        "    done, status = os.waitpid(pid, os.WNOHANG)\n"
        "    if done:\n"
        "        sys.exit(os.waitstatus_to_exitcode(status))\n"
        "    time.sleep(0.02)\n"
        "os.kill(pid, 9)\n"
        "sys.exit(3)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def _sum_in_order(x):
    """Last-axis sums of ``x``, each row added left to right from 0.0 in Python floats."""
    out = np.empty(x.shape[:-1])
    for row in np.ndindex(out.shape):
        total = 0.0
        for value in x[row]:
            total += float(value)
        out[row] = total
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33])
def test_row_sum_adds_in_index_order(d):
    # magnitudes over 16 decades, so any other order of the adds shows; up to
    # 7 terms np.sum adds in this order too, in either layout
    rng = np.random.default_rng(d)
    x = rng.standard_normal((50, d)) * 10.0 ** rng.uniform(-8.0, 8.0, (50, d))
    dense = rng.standard_normal((d, d)) * np.asfortranarray(x)[:, None, :]
    for batch in (x, np.asfortranarray(x), x[0], x[:1], dense):
        out = stable.row_sum(batch)
        assert np.shape(out) == batch.shape[:-1]
        assert np.asarray(out).tobytes() == _sum_in_order(batch).tobytes()
        if d <= 7:
            assert np.asarray(out).tobytes() == np.sum(batch, axis=-1).tobytes()
        if batch.ndim > 1 and not batch.flags.c_contiguous:
            assert out.flags.f_contiguous
    assert not np.shares_memory(stable.row_sum(x), x)


@pytest.mark.parametrize("d", [1, 2, 3, 9])
def test_row_sum_gives_np_sums_signed_zeros_nan_and_inf(d):
    # every mix of -0.0, 0.0, nan, inf, -inf and 1.0 in the first three terms:
    # a zero sum is 0.0 as from np.sum, also for a single -0.0, and nan and
    # inf propagate where np.sum has them
    specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1.0]
    k = min(d, 3)
    x = np.array(list(itertools.product(specials, repeat=k)))
    x = np.hstack([x, np.full((len(x), d - k), -0.0)])
    with np.errstate(invalid="ignore"):
        for batch in (x, np.asfortranarray(x)):
            out, ref = stable.row_sum(batch), np.sum(batch, axis=-1)
            assert np.array_equal(out, ref, equal_nan=True)
            assert np.array_equal(np.signbit(out[out == 0]), np.signbit(ref[ref == 0]))
            assert np.isnan(out).any() and np.isinf(out).any() and (out == 0).any()


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


def test_estimator_equals_two_buffer_formula_with_and_without_zeros():
    x = stable.sample_sas(stable.StableLaw(1.3), 40_000, seed=5)
    zeros = x.copy()
    zeros[::9] = 0.0
    cancel = np.repeat(x[:200], 2) * np.tile([1.0, -1.0], 200)  # every k2 = 2 block sums to 0
    cancel[:6] = [1.0, 2.0, 0.0, 3.0, -1.0, 4.0]
    for data, k1, k2 in ((x, 200, 200), (zeros, 200, 200), (x, 7, 5000), (cancel, 200, 2)):
        got = stable.estimate_tail_index(data, k1=k1, k2=k2)
        assert got == tail_index_two_buffers(data, k1, k2)
    assert stable.estimate_tail_index(zeros) == tail_index_two_buffers(zeros, 200, 200)


def test_estimator_size_errors():
    with pytest.raises(stable.SampleSizeError):
        stable.estimate_tail_index(np.ones(10), k1=5, k2=3)
    with pytest.raises(stable.SampleSizeError):
        stable.estimate_tail_index(np.ones(10), k2=1)


def test_estimator_refuses_data_without_a_finite_log_magnitude():
    # all zeros, or block sums that all cancel to 0, leave no log|.| to average
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, k2 in ((np.zeros(100), None), (np.tile([1.0, -1.0], 50), 2)):
            with pytest.raises(stable.SampleSizeError, match="finite, nonzero"):
                stable.estimate_tail_index(x, k2=k2)


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
