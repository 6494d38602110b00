import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyescape import landscapes

from oracles import finite_difference_gradient


def test_double_well_values():
    dw = landscapes.DoubleWell1D(150.0)
    assert dw.value(np.array([1.0])) == 0.0
    assert np.allclose(dw.gradient(np.array([1.0])), 0.0)
    dw4 = landscapes.DoubleWell1D(4.0)
    assert dw4.value(np.array([0.5])) == pytest.approx(0.25)
    assert dw4.gradient(np.array([0.5]))[0] == pytest.approx(1.0)


def test_double_well_nonnegative_and_minima():
    dw = landscapes.DoubleWell1D(7.0)
    xs = np.linspace(-2, 3, 501)
    assert np.all(dw.value(xs.reshape(-1, 1)) >= 0)
    assert dw.value(np.array([0.0])) == 0.0
    assert dw.value(np.array([1.0])) == 0.0
    assert dw.mu == pytest.approx(14.0)
    assert dw.ell == pytest.approx(14.0)


def test_landscapes_give_one_value_per_row():
    # a (1,) point gives a float, an (n, 1) batch an (n,) array
    dw = landscapes.DoubleWell1D(4.0)
    qb = landscapes.QuadraticBasin(H=np.array([[2.0]]), center=np.array([1.0]))
    for land in (dw, qb):
        assert type(land.value(np.array([0.5]))) is float
        assert land.value(np.array([[0.5]])).shape == (1,)
        batch = np.array([[0.5], [1.0], [2.0]])
        values = land.value(batch)
        assert values.shape == (3,)
        assert list(values) == [land.value(row) for row in batch]


def test_quadratic_eval():
    qb = landscapes.QuadraticBasin(H=np.diag([2.0, 8.0]), center=np.zeros(2),
                                   height=10.0)
    assert qb.value(np.array([1.0, 1.0])) == pytest.approx(5.0)
    assert np.allclose(qb.gradient(np.array([1.0, 1.0])), [2.0, 8.0])
    assert qb.mu == pytest.approx(2.0)
    assert qb.ell == pytest.approx(8.0)


def test_crossover_values():
    assert landscapes.DoubleWell1D(4.0).crossover() == pytest.approx(2.0 / 3.0)
    assert landscapes.DoubleWell1D(1.0).crossover() == pytest.approx(0.5)
    xc = landscapes.DoubleWell1D(150.0).crossover()
    assert xc == pytest.approx(math.sqrt(150) / (math.sqrt(150) + 1))
    assert xc == pytest.approx(0.9245, abs=5e-4)
    # bisection oracle: the branch values cross at x_c
    dw = landscapes.DoubleWell1D(150.0)
    lo, hi = 0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid ** 2 < 150.0 * (mid - 1.0) ** 2:
            lo = mid
        else:
            hi = mid
    assert xc == pytest.approx(lo, abs=1e-12)


def test_crossover_tie_takes_right_branch():
    # a = 1 puts the crossover at exactly 0.5, an exact float tie
    dw = landscapes.DoubleWell1D(1.0)
    g = dw.gradient(np.array([0.5]))[0]
    assert g == pytest.approx(2.0 * (0.5 - 1.0))
    assert g < 0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    dw = landscapes.DoubleWell1D(12.0)
    for x in 1.0 + 0.1 * rng.standard_normal(100):
        g = dw.gradient(np.array([x]))[0]
        fd = finite_difference_gradient(lambda z: dw.value(z), np.array([x]))[0]
        assert abs(g - fd) <= 1e-6 * max(1.0, abs(g))
    h = np.array([[3.0, 0.5], [0.5, 1.0]])
    qb = landscapes.QuadraticBasin(H=h, center=np.array([0.2, -0.1]), height=5.0)
    for _ in range(100):
        x = qb.center + 0.5 * rng.standard_normal(2)
        g = qb.gradient(x)
        fd = finite_difference_gradient(qb.value, x)
        assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(g))))


def test_right_basin_interval_is_level_cut():
    dw = landscapes.DoubleWell1D(150.0)
    lo, hi = dw.right_basin_interval()
    assert lo == pytest.approx(dw.crossover())
    assert hi == pytest.approx(2.0 - dw.crossover())
    # boundary values equal on both sides of the well
    assert 150.0 * (hi - 1.0) ** 2 == pytest.approx(lo ** 2, rel=1e-9)


def test_inner_basin_interval():
    spec = landscapes.BasinSpec(region=landscapes.IntervalRegion(-1.0, 1.0),
                                eps=0.01, gamma=1.0)
    assert spec.in_inner(np.array([0.5]))
    assert not spec.in_inner(np.array([0.995]))
    assert not spec.in_inner(np.array([1.5]))
    # -inf outside the open interval, its ends included
    assert np.array_equal(spec.region.boundary_distance(np.array([[-1.0], [0.5], [2.0]])),
                          [-np.inf, 0.5, -np.inf])


def test_inner_basin_quadratic_center():
    qb = landscapes.QuadraticBasin(H=np.diag([1.0, 4.0]), center=np.zeros(2),
                                   height=0.5)
    spec = landscapes.BasinSpec(region=qb, eps=0.05, gamma=1.0)
    assert spec.in_inner(np.zeros(2))
    assert spec.in_inner(np.zeros(2), margin_factor=2.0)


def test_double_well_point_left_of_crossover_outside_right_basin():
    dw = landscapes.DoubleWell1D(150.0)
    lo, hi = dw.right_basin_interval()
    spec = landscapes.BasinSpec(region=landscapes.IntervalRegion(lo, hi),
                                eps=0.01, gamma=1.0)
    assert not spec.in_inner(np.array([0.5]))


def test_inner_basin_monotone_in_gamma():
    qb = landscapes.QuadraticBasin(H=np.eye(2), center=np.zeros(2), height=0.5)
    rng = np.random.default_rng(1)
    for _ in range(50):
        theta = 0.9 * rng.standard_normal(2)
        lo = landscapes.BasinSpec(region=qb, eps=0.1, gamma=1.0)
        hi = landscapes.BasinSpec(region=qb, eps=0.1, gamma=2.0)
        if lo.in_inner(theta):
            assert hi.in_inner(theta)


def test_quadratic_boundary_distance_on_ray():
    qb = landscapes.QuadraticBasin(H=np.diag([4.0, 1.0]), center=np.zeros(2),
                                   height=0.5)
    # along the first axis the boundary is at x = 0.5
    assert qb.boundary_distance(np.array([0.2, 0.0])) == pytest.approx(0.3)
    assert qb.boundary_distance(np.array([0.0, 0.6])) == pytest.approx(0.4)
    assert qb.boundary_distance(np.zeros(2)) == pytest.approx(0.5)
    assert qb.boundary_distance(np.array([0.6, 0.0])) == -np.inf


def test_points_next_to_the_center_read_the_centers_ray_gap():
    # on the compare basin, ||d||^2 underflows to 0 at d = (1e-162, 0) while q
    # does not (inf * 0 read NaN), and h_f_star / q overflows at (1e-155, 0)
    # (read inf); like the center, both read the shortest semi-axis a_min
    qb = landscapes.QuadraticBasin(H=np.diag([10.0, 0.1]), center=np.zeros(2), height=0.5)
    spec = landscapes.BasinSpec(region=qb, eps=0.3, gamma=2.0)
    points = np.array([[1e-162, 0.0], [1e-155, 0.0], [0.0, 0.0]])
    a_min = math.sqrt(qb.h_f_star / qb.ell)
    assert qb.boundary_distance(points).tolist() == [a_min] * 3
    assert [qb.boundary_distance(p) for p in points] == [a_min] * 3
    assert spec.in_inner(points).all() and all(spec.in_inner(p) for p in points)


def test_in_inner_forms_the_quadratic_once(monkeypatch):
    qb = landscapes.QuadraticBasin(H=np.diag([4.0, 1.0]), center=np.zeros(2),
                                   height=0.5)
    spec = landscapes.BasinSpec(region=qb, eps=0.05, gamma=1.0)
    calls = []
    form = qb._offset_form

    def counting(theta):
        calls.append(1)
        return form(theta)

    monkeypatch.setattr(qb, "_offset_form", counting)
    spec.in_inner(np.zeros(2))
    spec.in_inner(np.zeros((7, 2)), margin_factor=2.0)
    assert len(calls) == 2


def _region(kind, d, rng):
    if kind == "interval":
        lo = rng.uniform(-2.0, 0.0)
        return landscapes.IntervalRegion(lo, lo + rng.uniform(0.1, 3.0))
    if kind == "diag":
        h = np.diag(rng.uniform(0.1, 10.0, d))
    else:
        a = rng.standard_normal((d, d))
        h = a @ a.T + 0.1 * np.eye(d)
    return landscapes.QuadraticBasin(H=h, center=rng.standard_normal(d),
                                     f_star=rng.uniform(-1.0, 1.0),
                                     height=rng.uniform(1.0, 3.0))


@given(st.sampled_from(["interval", "diag", "dense"]), st.integers(1, 8),
       st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
@example("dense", 8, 1998, 0)  # a batch of 2000 rows, as a flow's trajectory
@settings(max_examples=60, deadline=None)
def test_batched_membership_matches_rows(kind, d, n, seed):
    rng = np.random.default_rng(seed)
    d = 1 if kind == "interval" else d
    region = _region(kind, d, rng)
    if kind == "interval":
        center = np.array([0.5 * (region.lo + region.hi)])
    else:
        center = region.center
    # the center (q == 0 for a quadratic basin), random points, a far point
    pts = np.vstack([center,
                     center + rng.uniform(0.0, 3.0, (n, 1)) * rng.standard_normal((n, d)),
                     center + 100.0])
    spec = landscapes.BasinSpec(region=region, eps=rng.uniform(0.01, 0.5),
                                gamma=rng.uniform(0.5, 2.0))

    def contains(x):
        return region.boundary_distance(x) > -np.inf

    calls = [contains, region.boundary_distance, spec.in_inner,
             lambda x: spec.in_inner(x, margin_factor=2.0)]
    if kind != "interval":
        calls.append(region.value)
        assert all(bool(region.value(p) <= region.height) == bool(contains(p))
                   for p in pts)
    for call in calls:
        batch = call(pts)
        rows = [call(p) for p in pts]
        assert batch.shape == (pts.shape[0],)
        assert all(np.ndim(r) == 0 for r in rows)
        assert np.array_equal(batch, np.array(rows))
        assert np.array_equal(call(pts.reshape(1, -1, d)), batch[None])
    assert contains(center) and not contains(pts[-1])
    for p, inner in zip(pts, spec.in_inner(pts)):
        if spec.in_inner(p):
            assert inner
        else:
            assert not inner


def _level_basin(kind, d, rng):
    """A quadratic basin with a_min below 0.5, so that margins up to a_min are eps < 1."""
    basin = _region(kind, d, rng)
    a_min = rng.uniform(0.05, 0.5)
    return landscapes.QuadraticBasin(H=basin.H, center=basin.center, f_star=basin.f_star,
                                     height=basin.f_star + 0.5 * basin.ell * a_min ** 2)


@given(st.sampled_from(["interval", "diag", "dense"]), st.integers(1, 8),
       st.sampled_from([1.0, 2.0]), st.floats(-12.0, math.log10(1.0 - 1e-9)),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_in_inner_is_boundary_distance_at_least_the_margin(kind, d, factor, log_ratio, seed):
    # every region answers membership by the one rule, on single points and on
    # row- and column-major batches: rows a few ulps either side of the margin
    # and of the boundary, along random directions and the steepest one, and
    # NaN, infinite and center rows
    rng = np.random.default_rng(seed)
    if kind == "interval":
        d = 1
        region = _region(kind, d, rng)
        center = np.array([0.5 * (region.lo + region.hi)])
        a_min = 0.5 * (region.hi - region.lo)
        dirs = np.array([[-1.0], [1.0]])
        radii = np.full(2, a_min)
    else:
        region = _level_basin(kind, d, rng)
        center = region.center
        a_min = math.sqrt(region.h_f_star / region.ell)
        dirs = np.vstack([rng.standard_normal((6, d)), np.linalg.eigh(region.H)[1][:, -1]])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        # the boundary's distance from the center along each direction
        radii = np.sqrt(region.h_f_star / np.sum(dirs * (dirs @ region.H), axis=1))
    spec = landscapes.BasinSpec(region=region, eps=0.5 * a_min * 10.0 ** log_ratio, gamma=1.0)
    margin = factor * spec.margin
    steps = np.concatenate([np.arange(-8, 9), [-1, 1] * 2.0 ** np.arange(4, 42, 3)[:, None]],
                           axis=None)
    ulps = 1.0 + steps * 2.0 ** -52
    edges = [radii - margin, radii]
    pts = np.vstack([center + ((r[:, None] * ulps)[..., None] * dirs[:, None, :]).reshape(-1, d)
                     for r in edges]
                    + [np.full((1, d), v) for v in (np.nan, np.inf, -np.inf)] + [center])
    with np.errstate(invalid="ignore"):
        want = region.boundary_distance(pts) >= margin
        for batch in (pts, np.asfortranarray(pts)):
            assert np.array_equal(spec.in_inner(batch, margin_factor=factor), want)
        assert [spec.in_inner(p, margin_factor=factor) for p in pts] == want.tolist()
    assert want.any() and not want[:-4].all()
    assert not want[-4:-1].any() and want[-1]


@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
def test_diagonal_form_equals_the_dense_formulas(d, n):
    rng = np.random.default_rng(100 * d + n)
    basin = _region("diag", d, rng)
    dense = copy.copy(basin)
    dense._h = None  # the forms a dense H takes
    assert basin._h is not None and (d == 1 or _region("dense", d, rng)._h is None)
    pts = basin.center + rng.uniform(0.0, 3.0, (n, 1)) * rng.standard_normal((n, d))
    for name in ("gradient", "value", "boundary_distance"):
        assert getattr(basin, name)(pts).tobytes() == getattr(dense, name)(pts).tobytes()
    # an infinite row: inf under the diagonal form, NaN from the dense
    # form's zero terms, and outside under both
    far = np.full((1, d), np.inf)
    with np.errstate(invalid="ignore"):
        assert basin.value(far)[0] == np.inf and (d == 1 or np.isnan(dense.value(far)[0]))
        assert basin.boundary_distance(far)[0] == dense.boundary_distance(far)[0] == -np.inf


def test_landscape_validation():
    with pytest.raises(ValueError):
        landscapes.DoubleWell1D(0.0)
    with pytest.raises(ValueError):
        landscapes.QuadraticBasin(H=np.array([[1.0, 2.0], [0.0, 1.0]]),
                                  center=np.zeros(2))
    with pytest.raises(ValueError):
        landscapes.QuadraticBasin(H=-np.eye(2), center=np.zeros(2))
    with pytest.raises(ValueError):
        landscapes.IntervalRegion(1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(a=st.sampled_from([0.25, 1.0, 4.0, 150.0, 500.0, 1e5]),
       u=st.floats(-0.2, 1.2), v=st.floats(-0.2, 1.2), seed=st.integers(0, 2 ** 16))
def test_affine_gradient_claims_hold(a, u, v, seed):
    # where affine_gradient claims (gamma, c), the computed gradient is
    # gamma * (x - c) bit for bit at every point of the interval
    dw = landscapes.DoubleWell1D(a)
    x_c = dw.crossover()
    far = 3.0 if a <= 1.0 else math.sqrt(a) / (math.sqrt(a) - 1.0)
    lo, hi = sorted(x_c + t * (far - x_c) for t in (u, v))
    claim = dw.affine_gradient(lo, hi)
    if lo <= x_c or (a > 1.0 and hi >= far):
        assert claim is None
    if claim is not None:
        gamma, c = claim
        xs = np.random.default_rng(seed).uniform(lo, hi, 500)
        xs = np.concatenate([xs, [lo, hi], np.nextafter([lo, hi], [hi, lo])])
        assert np.array_equal(dw.gradient(xs[:, None])[:, 0], gamma * (xs - c))


def test_affine_gradient_of_quadratics_and_base():
    q = landscapes.QuadraticBasin(H=np.array([[2.5]]), center=np.array([0.3]))
    assert q.affine_gradient(-1.0, 1.0) == (2.5, 0.3)
    xs = np.linspace(-1.0, 1.0, 101)
    assert np.array_equal(q.gradient(xs[:, None])[:, 0], 2.5 * (xs - 0.3))
    assert landscapes.QuadraticBasin(H=np.eye(2), center=np.zeros(2)).affine_gradient(
        -1.0, 1.0) is None
    assert landscapes.Landscape().affine_gradient(-1.0, 1.0) is None
    dw = landscapes.DoubleWell1D(150.0)
    lo, hi = dw.right_basin_interval()
    assert dw.affine_gradient(lo, hi) is None  # lo sits on the crossover
    assert dw.affine_gradient(lo + 1e-9, hi) == (300.0, 1.0)


@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33])
@pytest.mark.parametrize("kind", ["diag", "dense"])
def test_column_major_batch_rounds_as_row_major(kind, d, n):
    # the generic loop keeps its state column-major at every d: a row's q
    # terms, its H d terms and its norm's are added in index order
    # (``stable.row_sum``) in either layout
    rng = np.random.default_rng(10 * d + n)
    basin = _region(kind, d, rng)
    rows = basin.center + rng.uniform(0.0, 3.0, (n, 1)) * rng.standard_normal((n, d))
    cols = np.asfortranarray(rows)
    assert cols.flags.f_contiguous and (n == 1 or d == 1 or not cols.flags.c_contiguous)
    assert basin._offset_form(cols)[1].tobytes() == basin._offset_form(rows)[1].tobytes()
    for name in ("gradient", "boundary_distance"):
        assert getattr(basin, name)(cols).tobytes() == getattr(basin, name)(rows).tobytes()
    # the gradient keeps the layout for either kind of H
    assert basin.gradient(cols).flags.f_contiguous
    spec = landscapes.BasinSpec(region=basin, eps=0.5)
    factor = 0.2 * math.sqrt(basin.h_f_star / basin.ell)  # a margin of a tenth of a_min
    assert np.array_equal(spec.in_inner(cols, factor), spec.in_inner(rows, factor))


@pytest.mark.parametrize("kind, d", [(kind, d) for kind in ("diag", "dense")
                                     for d in (1, 2, 3, 4, 5, 8)])
def test_batched_gradient_matches_rows(kind, d):
    rng = np.random.default_rng(d)
    basin = _region(kind, d, rng)
    pts = basin.center + rng.uniform(0.0, 3.0, (2000, 1)) * rng.standard_normal((2000, d))
    batch = basin.gradient(pts)
    assert batch.shape == (2000, d)
    assert np.array_equal(batch, np.array([basin.gradient(p) for p in pts]))
