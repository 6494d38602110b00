"""Escaping-set geometry and the heavy-tail Radon measure.

The escaping sets of the two optimizers at a quadratic minimum are
    W_sgd  = {y : y^T Sigma H Sigma y >= S^2 h_f*}
    W_adam = {y : y^T H y >= S^2 h_f*}
and the measure that controls mean exit times is
    m(W) = int_W ||y||^{-(d+alpha)} dy
         = (1/alpha) int_{S^{d-1}} (u^T A u / c)^{alpha/2} dsigma(u)
for W = {y : y^T A y >= c}.  The sphere integral depends only on the
eigenvalues lam of A / c.  It is closed-form in d = 1 and at alpha = 2.
Otherwise, with p = alpha / 2, one integral over the line serves every d:
    m(W) = pi^{d/2} / (Gamma(1-p) Gamma(d/2+p))
           * int_R (1 - prod_i (1 + lam_i e^x)^{-1/2}) e^{-p x} dx,
computed by a trapezoid rule whose step halves until two estimates agree,
within a budget of ``n_dirs`` integrand evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stable import ParameterError, check_interval

__all__ = [
    "Spectrum",
    "QuadraticEscapeSet",
    "build_escape_sets",
    "radon_measure",
    "ellipsoid_volume",
    "legacy_volume_echo",
    "compare_measures",
    "sphere_surface_area",
]


@dataclass
class Spectrum:
    """Curvature / noise spectra at a minimizer, in a shared eigenbasis.

    lambdas are the Hessian singular values (descending), sigma_i the noise
    scale along eigendirection i (any order), S the batch size, and h_f_star
    the basin height term 2 (height - f*).  The eigenbasis is the coordinate
    axes: every measure, volume and echo depends on the spectra alone.
    """

    lambdas: np.ndarray
    sigmas: np.ndarray
    batch_size: int = 1
    h_f_star: float = 1.0

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        if self.lambdas.size != self.sigmas.size:
            raise ParameterError("lambdas and sigmas must have the same length")
        if self.lambdas.size == 0:
            raise ParameterError("a spectrum needs at least one eigenvalue: lambdas is empty")
        if np.any(np.diff(self.lambdas) > 0):
            raise ParameterError("Hessian singular values must be in descending order")
        if not np.all((self.lambdas > 0) & (self.lambdas < np.inf)):
            raise ParameterError("Hessian singular values lambdas must be positive and finite")
        if not np.all((self.sigmas >= 0) & (self.sigmas < np.inf)):
            raise ParameterError("covariance singular values sigmas must be nonnegative and finite")
        if self.batch_size < 1:
            raise ParameterError("batch size must be >= 1")
        check_interval("h_f_star", self.h_f_star)

    @property
    def dim(self):
        return self.lambdas.size


@dataclass
class QuadraticEscapeSet:
    """W = {y : y^T A y >= c} with A symmetric PSD and c > 0."""

    A: np.ndarray
    c: float

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if not np.allclose(self.A, self.A.T, atol=1e-12):
            raise ParameterError("A must be symmetric")
        if np.any(np.linalg.eigvalsh(self.A) < -1e-12):
            raise ParameterError("A must be positive semidefinite")
        check_interval("threshold c", self.c)

    @property
    def dim(self):
        return self.A.shape[0]


def build_escape_sets(spec):
    """(W_sgd, W_adam) of a spectrum: A = diag(lambda sigma^2) and diag(lambda), c = S^2 h_f*."""
    c = spec.batch_size ** 2 * spec.h_f_star
    return (QuadraticEscapeSet(A=np.diag(spec.lambdas * spec.sigmas ** 2), c=c),
            QuadraticEscapeSet(A=np.diag(spec.lambdas), c=c))


def sphere_surface_area(d):
    """Surface measure of the unit sphere in R^d (two points for d = 1)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


_EPS = float(np.finfo(float).eps)
_LN2 = math.log(2.0)
_REL_TOL = 1e-12  # two successive trapezoid estimates agreeing this closely end the halving
_FIRST_INTERVALS = 8


def radon_measure(w, alpha, n_dirs=1_000_000, seed=0, with_stderr=False):
    """Tail measure m(W) = int_W ||y||^{-(d+alpha)} dy of a quadratic set.

    The value is (S_d / alpha) times the sphere mean of (u^T A u / c)^{alpha/2},
    which depends only on the eigenvalues of A / c.  It is closed-form in
    d = 1 and at alpha = 2; otherwise it is one deterministic integral over
    those eigenvalues in every d (see ``_sphere_quadrature``), and ``n_dirs``
    is its budget of integrand evaluations.  ``seed`` is ignored; it stays
    in the signature so that callers passing it keep working.

    Returns the value, or with ``with_stderr`` the pair (value, error bound).
    The bound is never 0: a rounding bound for the closed forms, otherwise
    the change in the last step halving plus the cut-off tails plus that
    bound.
    """
    val, err, _ = _radon_measure(w, alpha, n_dirs)
    return (val, err) if with_stderr else val


def _radon_measure(w, alpha, n_dirs):
    """(value, error bound, integrand evaluations) of ``radon_measure``."""
    check_interval("alpha", alpha, 2.0, closed=True)
    if n_dirs < 1:
        raise ParameterError(f"n_dirs must be >= 1, got {n_dirs}")
    if not np.any(w.A):
        raise ParameterError("degenerate escaping set: A is the zero matrix")
    d = w.dim
    p = alpha / 2.0
    if d == 1:
        val = (2.0 / alpha) * (float(w.A[0, 0]) / w.c) ** p
        err, evals = 4.0 * _EPS * val, 1
    else:
        mean, mean_err, evals = _sphere_quadrature(np.linalg.eigvalsh(w.A / w.c), p, n_dirs)
        factor = sphere_surface_area(d) / alpha
        val, err = factor * mean, factor * mean_err
    return val, err, evals


def _radon_integrand(x, log_mu, log_mu_sum, p):
    """(1 - prod_i (1 + mu_i e^x)^{-1/2}) e^{-p x} at each x, mu = exp(log_mu).

    Far below the spectrum, where every mu_i e^x < e^-40, the bracket is
    sum(mu) e^x / 2 to rounding, and the value is taken in log form so that
    neither e^x nor e^{-p x} leaves the float range.
    """
    far = x + log_mu_sum < -40.0
    out = np.empty_like(x)
    out[far] = np.exp((1.0 - p) * x[far] + log_mu_sum - _LN2)
    near = x[~far]
    half_log = 0.5 * np.logaddexp(0.0, np.add.outer(near, log_mu)).sum(axis=1)
    out[~far] = -np.expm1(-half_log) * np.exp(-p * near)
    return out


def _sphere_quadrature(lam, p, budget):
    """(mean, error bound, evaluations) of (u^T diag(lam) u)^p over S^{d-1}, d >= 2.

    lam is ascending.  By Jensen's inequality (p <= 1) the mean lies in
    [lam_min^p, mean(lam)^p]: at p = 1 it is mean(lam), and while fewer than
    two levels of ``_line_integral`` fit the budget, mean(lam)^p is the
    value and the interval's width the error.  Otherwise the value is the
    line integral and the error its last change and tails.  Each error adds
    ``_rounding_floor``, which may spend the budget the integral left over.
    """
    lam = np.clip(lam, 0.0, None)
    jensen = float(np.mean(lam)) ** p
    if p == 1.0:
        value, err, used, spare = jensen, 0.0, 1, 0
    elif budget < 2 * _FIRST_INTERVALS + 1:
        value, err, used, spare = jensen, jensen - float(lam[0]) ** p, 0, 0
    else:
        value, err, used = _line_integral(lam, p, budget)
        spare = budget - used
    floor, extra = _rounding_floor(lam, p, value, spare)
    return value, err + floor, used + extra


def _line_integral(lam, p, budget):
    """(mean, last change plus tails, evaluations) of the sphere mean for p < 1.

    lam is ascending and nonnegative with a positive largest value.  By
    z^p = p / Gamma(1-p) int_0^inf (1 - e^{-sz}) s^{-1-p} ds
    and E exp(-s X^T diag(lam) X) = prod_i (1 + 2 s lam_i)^{-1/2} for
    X ~ N(0, I), the mean is max(lam)^p p Gamma(d/2) / (Gamma(1-p) Gamma(d/2+p))
    times I = int_R f(x) dx, with f from ``_radon_integrand`` at
    mu = lam / max(lam).  Since f <= (sum(mu)/2) e^{(1-p)x} and
    f <= e^{-px}, cutting the line at X0 and X1 leaves tails of at most
    (sum(mu)/2) e^{(1-p)X0} / (1-p) and e^{-pX1} / p; each is set to eps
    times a lower bound on I, the integral for the largest eigenvalue alone.
    On [X0, X1], in y with x = sinh y, the trapezoid step halves from
    ``_FIRST_INTERVALS`` intervals, reusing the earlier nodes, until two
    estimates agree to ``_REL_TOL`` or the next level would take the
    evaluations past ``budget``; below two levels the change is infinite.
    """
    d, top = lam.size, float(lam[-1])
    mu = lam[lam > 0.0] / top
    log_mu, log_mu_sum = np.log(mu), math.log(float(np.sum(mu)))
    # I >= int_R (1 - (1 + e^x)^{-1/2}) e^{-px} dx = Gamma(1-p) Gamma(1/2+p) / (p sqrt(pi))
    tail = _EPS * math.exp(math.lgamma(1.0 - p) + math.lgamma(0.5 + p)
                           - math.log(p * math.sqrt(math.pi)))
    y0 = math.asinh((math.log(tail * (1.0 - p)) - log_mu_sum + _LN2) / (1.0 - p))
    y1 = math.asinh(-math.log(p * tail) / p)
    scale = top ** p * math.exp(math.log(p) + math.lgamma(d / 2.0) - math.lgamma(1.0 - p)
                                - math.lgamma(d / 2.0 + p))
    value, change, total, used, n = 0.0, math.inf, 0.0, 0, _FIRST_INTERVALS
    while True:
        k = np.arange(1, n, 2) if used else np.arange(n + 1)
        if used + k.size > budget:
            break
        y = y0 + (y1 - y0) / n * k
        f = _radon_integrand(np.sinh(y), log_mu, log_mu_sum, p) * np.cosh(y)
        if not used:
            f[[0, -1]] *= 0.5
        total += float(np.sum(f))
        est = scale * (y1 - y0) / n * total
        if used:
            change = abs(est - value)
        value, used, n = est, used + k.size, 2 * n
        if change <= _REL_TOL * value:
            break
    return value, change + 2.0 * scale * tail, used


def _rounding_floor(lam, p, value, spare):
    """(bound on the value's shift from eigenvalue and summation rounding, evaluations).

    A backward-stable symmetric eigensolver returns each eigenvalue within
    about d eps max(lam) of exact; allow 8 d eps max(lam) = delta.  Moving
    every eigenvalue by at most delta moves q = u^T diag(lam) u by at most
    delta, so q^p by at most delta^p (p <= 1), and by at most
    p delta (lam_min - delta)^(p - 1) when lam_min exceeds 2 delta.  Else,
    since the sphere mean M increases in every eigenvalue, its shift is at
    most M(lam + delta) - M(max(lam - delta, 0)) plus the last change and
    tails of those two line integrals (p < 1), which share the ``spare``
    evaluations when they fit two levels each; the smaller bound is taken.
    """
    delta = 8.0 * lam.size * _EPS * float(lam[-1])
    shift, evals = delta ** p, 0
    if lam[0] > 2.0 * delta:
        shift = min(shift, p * delta * (float(lam[0]) - delta) ** (p - 1.0))
    elif spare >= 2 * (2 * _FIRST_INTERVALS + 1):
        hi, hi_err, hi_evals = _line_integral(lam + delta, p, spare // 2)
        lo, lo_err, lo_evals = _line_integral(np.maximum(lam - delta, 0.0), p, spare // 2)
        shift, evals = min(shift, hi - lo + hi_err + lo_err), hi_evals + lo_evals
    return shift + 64.0 * _EPS * value, evals


def ellipsoid_volume(a, c):
    """Volume of {y : y^T A y < c}: V_d(1) c^{d/2} / sqrt(det A)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    check_interval("threshold c", c)
    det = np.linalg.det(a)
    if det <= 0:
        raise ParameterError("A must be nonsingular positive definite")
    d = a.shape[0]
    unit_ball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    return unit_ball * c ** (d / 2.0) / math.sqrt(det)


def legacy_volume_echo(lambdas, batch_size, h_f_star):
    """Echo of the published closed-form volume zeta * prod(lambda_i).

    zeta = 2 d^{-1} (pi S / h_f*)^{d/2} / Gamma(d/2).  This expression grows
    with the curvature product, whereas the standard ellipsoid volume of
    {y^T H y < S^2 h_f*} shrinks with it (prod lambda_i^{-1/2}); the two are
    reported side by side and flagged, not reconciled.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    d = lambdas.size
    zeta = (2.0 / d) * (math.pi * batch_size / h_f_star) ** (d / 2.0) / math.gamma(d / 2.0)
    return zeta * float(np.prod(lambdas))


def compare_measures(spec, alpha, n_dirs=1_000_000, seed=0):
    """Tail measures of both escaping sets plus the implied exit-time ratio.

    ``seed`` is ignored, as in ``radon_measure``.
    """
    w_sgd, w_adam = build_escape_sets(spec)
    m_sgd, err_sgd, evals_sgd = _radon_measure(w_sgd, alpha, n_dirs)
    m_adam, err_adam, evals_adam = _radon_measure(w_adam, alpha, n_dirs)
    vol_adam = ellipsoid_volume(w_adam.A, w_adam.c)
    echo = legacy_volume_echo(spec.lambdas, spec.batch_size, spec.h_f_star)
    return {
        "m_sgd": m_sgd,
        "m_sgd_stderr": err_sgd,
        "m_adam": m_adam,
        "m_adam_stderr": err_adam,
        "ratio_sgd_over_adam": m_sgd / m_adam,
        "predicted_exit_time_ratio_sgd_over_adam": m_adam / m_sgd,
        "complement_volume_adam": vol_adam,
        "complement_volume_echo": echo,
        "volume_echo_note": (
            "the closed-form echo scales with prod(lambda) while the standard "
            "ellipsoid volume scales with prod(lambda)^(-1/2); values disagree "
            "by construction"
        ),
        "n_dirs": n_dirs,
        "radon_evaluations": {"sgd": evals_sgd, "adam": evals_adam},
    }
