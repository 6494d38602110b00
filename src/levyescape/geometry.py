"""Escaping-set geometry and the heavy-tail Radon measure.

The escaping sets of the two optimizers at a quadratic minimum are
    W_sgd  = {y : y^T Sigma H Sigma y >= S^2 h_f*}
    W_adam = {y : y^T H y >= S^2 h_f*}
and the measure that controls mean exit times is
    m(W) = int_W ||y||^{-(d+alpha)} dy
         = (1/alpha) int_{S^{d-1}} (u^T A u / c)^{alpha/2} dsigma(u)
for W = {y : y^T A y >= c}.  The sphere integral depends only on the
eigenvalues of A / c.  It is closed-form in d = 1 and computed by
deterministic quadrature in d = 2 and 3: a trapezoid rule on the circle, and
Gauss-Legendre in the cosine of the polar angle with that circle rule on
each latitude ring.  Node counts double until two estimates agree, within
a budget of ``n_dirs`` integrand evaluations.  For d >= 4 it is estimated
by seeded direction sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stable import ParameterError

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

    lambdas are the Hessian singular values (descending), sigmas the noise
    covariance singular values (descending), S the batch size, and h_f_star
    the basin height term 2 (height - f*).  rotation_seed, if given, rotates
    the shared eigenbasis away from the axes.
    """

    lambdas: np.ndarray
    sigmas: np.ndarray
    batch_size: int = 1
    h_f_star: float = 1.0
    rotation_seed: int | None = None

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        if self.lambdas.size != self.sigmas.size:
            raise ParameterError("lambdas and sigmas must have the same length")
        if np.any(np.diff(self.lambdas) > 0) or np.any(np.diff(self.sigmas) > 0):
            raise ParameterError("singular values must be in descending order")
        if np.any(self.lambdas <= 0):
            raise ParameterError("Hessian singular values must be positive")
        if np.any(self.sigmas < 0):
            raise ParameterError("covariance singular values must be nonnegative")
        if self.batch_size < 1:
            raise ParameterError("batch size must be >= 1")
        if not self.h_f_star > 0:
            raise ParameterError("h_f_star must be positive")

    @property
    def dim(self):
        return self.lambdas.size

    def basis(self):
        if self.rotation_seed is None:
            return np.eye(self.dim)
        rng = np.random.default_rng(self.rotation_seed)
        q, r = np.linalg.qr(rng.standard_normal((self.dim, self.dim)))
        return q * np.sign(np.diag(r))


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
        if not self.c > 0:
            raise ParameterError("threshold c must be positive")

    @property
    def dim(self):
        return self.A.shape[0]

    def membership(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return bool(y @ self.A @ y >= self.c)


def build_escape_sets(spec):
    """Construct (W_sgd, W_adam) from a spectrum in its shared eigenbasis."""
    r = spec.basis()
    h = r @ np.diag(spec.lambdas) @ r.T
    a_sgd = r @ np.diag(spec.lambdas * spec.sigmas ** 2) @ r.T
    c = spec.batch_size ** 2 * spec.h_f_star
    return QuadraticEscapeSet(A=a_sgd, c=c), QuadraticEscapeSet(A=h, c=c)


def sphere_surface_area(d):
    """Surface measure of the unit sphere in R^d (two points for d = 1)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


_EPS = float(np.finfo(float).eps)
_REL_TOL = 1e-12  # two successive quadrature estimates agreeing this closely end the doubling


def radon_measure(w, alpha, n_dirs=1_000_000, seed=0, with_stderr=False,
                  with_evaluations=False):
    """Tail measure m(W) = int_W ||y||^{-(d+alpha)} dy of a quadratic set.

    The value is (S_d / alpha) times the sphere mean of (u^T A u / c)^{alpha/2}:
    - d = 1: closed form;
    - d = 2 and 3: deterministic quadrature over the eigenvalues of A / c
      (see ``_sphere_quadrature``).  ``n_dirs`` is the budget of integrand
      evaluations, and ``seed`` is not used;
    - d >= 4: the mean over ``n_dirs`` seeded normalized-Gaussian directions.

    With ``with_stderr`` the error estimate follows the value, never 0: for
    d >= 4 the sampling standard error (the integrand's range below two
    directions) floored at a rounding bound, otherwise the change in the
    last node doubling plus that bound.  With ``with_evaluations`` the number of
    integrand evaluations made comes last.
    """
    if not (0.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
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
        if d <= 3:
            mean, mean_err, evals = _sphere_quadrature(np.linalg.eigvalsh(w.A / w.c), p, n_dirs)
        else:
            mean, mean_err = _sampled_sphere_mean(w, p, n_dirs, seed)
            evals = n_dirs
        factor = sphere_surface_area(d) / alpha
        val, err = factor * mean, factor * mean_err
    out = (val,) + ((err,) if with_stderr else ()) + ((evals,) if with_evaluations else ())
    return out if len(out) > 1 else val


def _sampled_sphere_mean(w, p, n_dirs, seed):
    """Mean of (u^T A u / c)^p over seeded uniform directions, with its error.

    The error is the standard error, or, below two samples, the integrand's
    range over the sphere, lam_max^p - lam_min^p for the eigenvalues lam of
    A / c; either is floored at ``_rounding_floor``, so it is never 0.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    n_done = 0
    block = 200_000
    while n_done < n_dirs:
        nb = min(block, n_dirs - n_done)
        u = rng.standard_normal((nb, w.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        f = (np.einsum("ni,ij,nj->n", u, w.A, u) / w.c) ** p
        total += float(np.sum(f))
        total_sq += float(np.sum(f ** 2))
        n_done += nb
    mean = total / n_dirs
    lam = np.clip(np.linalg.eigvalsh(w.A / w.c), 0.0, None)
    if n_dirs < 2:
        err = float(lam[-1] ** p - lam[0] ** p)
    else:
        err = math.sqrt(max(total_sq / n_dirs - mean ** 2, 0.0) / n_dirs)
    return mean, max(err, _rounding_floor(lam, p, mean))


def _ring_means(a, b, p, n):
    """Circle means of (a cos^2 phi + b sin^2 phi)^p for arrays a, b.

    Trapezoid rule with n intervals on the quarter circle, which by the
    integrand's symmetry is the periodic trapezoid rule with 4n nodes; it
    converges exponentially while a and b are both positive.
    """
    phi = np.linspace(0.0, 0.5 * math.pi, n + 1)
    weights = np.full(n + 1, 1.0 / n)
    weights[[0, -1]] *= 0.5
    q = np.multiply.outer(a, np.cos(phi) ** 2) + np.multiply.outer(b, np.sin(phi) ** 2)
    return q ** p @ weights


def _gauss_legendre_half(m):
    """Positive nodes and their weights of the 2m-point Gauss-Legendre rule.

    Newton's method on the Legendre recurrence from Tricomi's initial
    guesses, which are within O(n^-4) of the roots; the weights of the half
    sum to 1.
    """
    n = 2 * m
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(
        math.pi * (np.arange(1, m + 1) - 0.25) / (n + 0.5))
    done = False
    for _ in range(10):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        if done:
            break
        dx = p1 / dp
        x = x - dx
        done = float(np.max(np.abs(dx))) <= 4.0 * _EPS
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _sphere_rule(lam, p, n):
    """Sphere mean of (u^T diag(lam) u)^p at resolution n.

    lam is ascending.  In d = 2 the circle rule with n intervals; in d = 3
    Gauss-Legendre with n positive nodes in t = cos(polar angle), measured
    from the axis of the smallest eigenvalue, times the circle rule on each
    latitude ring.
    """
    if lam.size == 2:
        return float(_ring_means(lam[1], lam[0], p, n))
    t, wt = _gauss_legendre_half(n)
    sin2, cos2 = (1.0 - t) * (1.0 + t), t * t
    rings = _ring_means(sin2 * lam[2] + cos2 * lam[0], sin2 * lam[1] + cos2 * lam[0], p, n)
    return float(rings @ wt)


def _sphere_quadrature(lam, p, budget):
    """(mean, error bound, evaluations) of (u^T diag(lam) u)^p over S^{d-1}, d = 2, 3.

    Doubles n in ``_sphere_rule`` from 4 until two successive estimates agree
    to ``_REL_TOL`` or the next one would take the evaluations past
    ``budget``, and returns the last estimate.  Its error bound is the last
    change plus a rounding floor.  Every rule here integrates quadratics
    exactly, so by Jensen's inequality (p <= 1) both an estimate and the true
    mean lie in [0, mean(lam)^p]; while fewer than two estimates fit the
    budget, that bound is the error and mean(lam)^p the value.
    """
    lam = np.clip(lam, 0.0, None)
    jensen = float(np.mean(lam)) ** p
    value, change, used, n = jensen, jensen, 0, 4
    while True:
        cost = (n + 1) * (1 if lam.size == 2 else n)
        if used + cost > budget:
            break
        est = _sphere_rule(lam, p, n)
        if used:
            change = abs(est - value)
        value, used, n = est, used + cost, 2 * n
        if change <= _REL_TOL * value:
            break
    return value, change + _rounding_floor(lam, p, value), used


def _rounding_floor(lam, p, value):
    """Bound on the value's shift from eigenvalue and summation rounding.

    A backward-stable symmetric eigensolver returns each eigenvalue within
    about d eps max(lam) of exact; allow 8 d eps max(lam) = delta.  Moving
    every eigenvalue by at most delta moves q = u^T diag(lam) u by at most
    delta, so q^p by at most delta^p (p <= 1), and by at most
    p delta (lam_min - delta)^(p - 1) when lam_min exceeds 2 delta.
    """
    delta = 8.0 * lam.size * _EPS * float(lam[-1])
    shift = delta ** p
    if lam[0] > 2.0 * delta:
        shift = min(shift, p * delta * (float(lam[0]) - delta) ** (p - 1.0))
    return shift + 64.0 * _EPS * value


def ellipsoid_volume(a, c):
    """Volume of {y : y^T A y < c}: V_d(1) c^{d/2} / sqrt(det A)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not c > 0:
        raise ParameterError("threshold c must be positive")
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
    """Tail measures of both escaping sets plus the implied exit-time ratio."""
    w_sgd, w_adam = build_escape_sets(spec)
    m_sgd, err_sgd, evals_sgd = radon_measure(w_sgd, alpha, n_dirs=n_dirs, seed=seed,
                                              with_stderr=True, with_evaluations=True)
    m_adam, err_adam, evals_adam = radon_measure(w_adam, alpha, n_dirs=n_dirs, seed=seed,
                                                 with_stderr=True, with_evaluations=True)
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
