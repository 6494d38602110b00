"""Synthetic objective functions with exact gradients and basin descriptions.

Each landscape exposes its dimension, analytic value/gradient, a minimizer,
and the local strong-convexity / smoothness constants (mu, ell) of the basin
around that minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stable import ParameterError

__all__ = [
    "Landscape",
    "QuadraticBasin",
    "DoubleWell1D",
    "IntervalRegion",
    "BasinSpec",
]


class Landscape:
    """Interface: an objective with analytic gradient and basin constants."""

    dim: int
    mu: float
    ell: float

    def value(self, theta):
        raise NotImplementedError

    def gradient(self, theta):
        raise NotImplementedError

    def minimizer(self):
        raise NotImplementedError

    def affine_gradient(self, lo, hi):
        """``(gamma, c)`` if the computed gradient is gamma (x - c) on [lo, hi], else None.

        Only 1D landscapes can answer; the base class never claims an affine
        gradient.
        """
        return None

    def eval(self, theta):
        """Return (value, gradient) at ``theta``."""
        theta = self._check(theta)
        return self.value(theta), self.gradient(theta)

    def _check(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {theta.shape[-1]}")
        return theta


@dataclass
class QuadraticBasin(Landscape):
    """F(y) = f_star + 1/2 (y - center)^T H (y - center), basin = level set at ``height``.

    The basin is {y : F(y) <= height}; the derived constant
    h_f_star = 2 (height - f_star) appears in the escaping-set thresholds.
    """

    H: np.ndarray
    center: np.ndarray
    f_star: float = 0.0
    height: float = 1.0

    def __post_init__(self):
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if self.H.shape[0] != self.H.shape[1] or self.H.shape[0] != self.center.size:
            raise ValueError("H must be square and match the center dimension")
        if not np.allclose(self.H, self.H.T, atol=1e-12):
            raise ValueError("H must be symmetric")
        eigvals = np.linalg.eigvalsh(self.H)
        if eigvals[0] <= 0:
            raise ValueError("H must be positive definite")
        if not self.height > self.f_star:
            raise ValueError("basin height must exceed the minimum value")
        self.dim = self.center.size
        self.mu = float(eigvals[0])
        self.ell = float(eigvals[-1])

    @property
    def h_f_star(self):
        return 2.0 * (self.height - self.f_star)

    def value(self, theta):
        _, q = self._offset_form(theta)
        out = self.f_star + 0.5 * q
        return float(out) if out.ndim == 0 else out

    def gradient(self, theta):
        d = np.asarray(theta, dtype=float) - self.center
        return d @ self.H  # H is symmetric; batched rows supported

    def minimizer(self):
        return self.center.copy()

    def affine_gradient(self, lo, hi):
        """``(H[0, 0], center[0])`` in 1D, where the gradient is affine everywhere."""
        if self.dim != 1:
            return None
        return float(self.H[0, 0]), float(self.center[0])

    def _offset_form(self, theta):
        """Offsets d = theta - center and quadratic forms q = d^T H d, per row.

        Elementwise products and last-axis sums keep each row's q independent
        of the rest of the batch; einsum's summation order changes with the
        batch size, so a point's basin membership would depend on its batch.
        """
        d = np.asarray(theta, dtype=float) - self.center
        return d, np.sum(d * np.sum(self.H * d[..., None, :], axis=-1), axis=-1)

    def boundary_distance(self, theta):
        """Ray distance from ``theta`` to the basin boundary per (..., d) row, -inf outside.

        The boundary point on the ray from the center through ``theta`` is
        center + s d with s = sqrt(h_f_star / q), q = d^T H d, so the gap
        along the ray is |s - 1| ||d||.  The ray ends on the boundary, so
        this is an upper bound on the Euclidean distance to the boundary, not
        the distance itself: the inner-basin margin admits some points that
        lie closer to the boundary than the margin.
        """
        d, q = self._offset_form(theta)
        with np.errstate(divide="ignore"):
            s = np.sqrt(self.h_f_star / np.where(q > 0, q, np.inf))
        # at the center: the shortest semi-axis, along the steepest direction
        gap = np.where(q > 0, np.abs(s - 1.0) * np.linalg.norm(d, axis=-1),
                       math.sqrt(self.h_f_star / self.ell))
        return np.where(self.f_star + 0.5 * q <= self.height, gap, -np.inf)


@dataclass
class DoubleWell1D(Landscape):
    """f(x) = min(x^2, a (x - 1)^2): two basins with minima at 0 and 1.

    The branches cross at x_c = sqrt(a) / (sqrt(a) + 1).  At the crossover
    the gradient takes the right (x = 1) branch.
    """

    a: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"asymmetry parameter a must be positive, got {self.a}")
        self.dim = 1
        # constants of the right (x = 1) basin
        self.mu = 2.0 * self.a
        self.ell = 2.0 * self.a

    def crossover(self):
        r = math.sqrt(self.a)
        return r / (r + 1.0)

    def _right_branch(self, x):
        # tie at the crossover goes to the right branch
        return self.a * (x - 1.0) ** 2 <= x ** 2

    def value(self, theta):
        x = np.asarray(theta, dtype=float)
        out = np.minimum(x ** 2, self.a * (x - 1.0) ** 2)
        return float(out.reshape(-1)[0]) if out.size == 1 else out

    def gradient(self, theta):
        x = np.asarray(theta, dtype=float)
        g = np.where(self._right_branch(x), 2.0 * self.a * (x - 1.0), 2.0 * x)
        return np.atleast_1d(g if x.ndim else float(g))

    def minimizer(self):
        return np.array([1.0])

    def affine_gradient(self, lo, hi):
        """``(2a, 1)`` when [lo, hi] lies on the right branch, else None.

        The right branch is where a (x - 1)^2 <= x^2: x >= x_c, and for
        a > 1 also x <= sqrt(a) / (sqrt(a) - 1).  ``gradient`` makes that
        test in floating point, so the interval must clear both crossings by
        more than the test's rounding: the branch gap x^2 - a (x - 1)^2,
        concave for a > 1 and increasing in x > 0 otherwise, is smallest at an
        end of [lo, hi], and each branch value is largest there too.
        """
        if not 0.0 < lo <= hi:
            return None
        left = [x * x for x in (lo, hi)]
        right = [self.a * (x - 1.0) ** 2 for x in (lo, hi)]
        gap = min(p - q for p, q in zip(left, right))
        if not gap > 32.0 * np.finfo(float).eps * max(left + right):
            return None
        return 2.0 * self.a, 1.0

    def right_basin_interval(self):
        """Level-cut basin of x = 1: (x_c, 2 - x_c), symmetric about 1."""
        x_c = self.crossover()
        return x_c, 2.0 - x_c


@dataclass
class IntervalRegion:
    """An open interval (lo, hi) serving as a 1D basin region."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("interval must have lo < hi")

    def boundary_distance(self, theta):
        """Distance to the nearer end per (..., 1) row, -inf outside (lo, hi)."""
        x = np.asarray(theta, dtype=float)[..., 0]
        gap = np.minimum(np.abs(x - self.lo), np.abs(x - self.hi))
        return np.where((self.lo < x) & (x < self.hi), gap, -np.inf)


@dataclass
class BasinSpec:
    """A basin region plus the inner-margin parameters (eps, gamma).

    The inner region keeps a safety margin eps^gamma from the boundary; the
    escape time is the first step the trajectory leaves that inner region.
    """

    region: object  # boundary_distance() on (..., d) batches, -inf outside
    eps: float
    gamma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ParameterError(f"eps must lie in (0, 1), got {self.eps}")
        if not self.gamma > 0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")

    @property
    def margin(self):
        return self.eps ** self.gamma

    def in_inner(self, theta, margin_factor=1.0):
        """Inner-basin membership of a (d,) point or a (..., d) batch of points."""
        return self.region.boundary_distance(theta) >= margin_factor * self.margin
