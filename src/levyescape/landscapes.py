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
        """F at a (d,) point, or one value per row of a (..., d) batch."""
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


@dataclass
class QuadraticBasin(Landscape):
    """F(y) = f_star + 1/2 (y - center)^T H (y - center), basin = level set at ``height``.

    The basin is {y : F(y) <= height}; the derived constant
    h_f_star = 2 (height - f_star) appears in the escaping-set thresholds.
    An H whose off-diagonal entries are all exactly 0 is kept as its
    diagonal ``_h``, and q and the gradient skip the zero terms.
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
        h = np.diag(self.H).copy()
        self._h = h if np.array_equal(self.H, np.diag(h)) else None
        # the exit screen's constants (``within``): the Gershgorin row-sum
        # bound G on lambda_max, exact for a diagonal H, gives a_min; q below
        # the floor may have underflowed; kappa is the screen's relative slack
        gershgorin = float(np.abs(self.H).sum(axis=1).max())
        self._a_min = math.sqrt(self.h_f_star / gershgorin)
        self._q_floor = 2.0 ** -900 * max(1.0, gershgorin)
        self._kappa = (4 * self.dim + 16) * 2.0 ** -53

    @property
    def h_f_star(self):
        return 2.0 * (self.height - self.f_star)

    def value(self, theta):
        """F per row.  A row with an infinite coordinate reads inf under a
        diagonal H, where the dense form's zero terms (inf * 0) read NaN; both
        lie outside the basin."""
        _, q = self._offset_form(theta)
        out = self.f_star + 0.5 * q
        return float(out) if out.ndim == 0 else out

    def gradient(self, theta):
        """H (theta - center) per row, as ``_offset_gradient`` forms it."""
        return self._offset_gradient(theta)[1]

    def minimizer(self):
        return self.center.copy()

    def affine_gradient(self, lo, hi):
        """``(H[0, 0], center[0])`` in 1D, where the gradient is affine everywhere."""
        if self.dim != 1:
            return None
        return float(self.H[0, 0]), float(self.center[0])

    def _offset_gradient(self, theta):
        """Offsets d = theta - center and gradients g = H d, per row.

        A diagonal H forms g_i = d_i h_i; a dense one g_i = sum_j H_ij d_j, whose
        off-diagonal terms are exact zeros for a diagonal H, so the two agree
        bit for bit on finite rows.  Elementwise products and last-axis sums
        keep each row's g independent of the rest of the batch, where a matrix
        product's rounding changes with the batch size, and keep a
        column-major batch column-major.  Up to d = 7 such a batch, which runs
        one inner loop per coordinate, adds each row in the same order
        (``escape._run_generic``).
        """
        d = np.asarray(theta, dtype=float) - self.center
        if self._h is not None:
            return d, d * self._h
        return d, np.sum(self.H * d[..., None, :], axis=-1)

    def _offset_form(self, theta):
        """Offsets d and quadratic forms q = sum_i d_i g_i per row, g from ``_offset_gradient``."""
        d, g = self._offset_gradient(theta)
        return d, np.sum(d * g, axis=-1)

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
        return np.where(self.f_star + 0.5 * q <= self.height, self._ray_gap(d, q), -np.inf)

    def _ray_gap(self, d, q):
        """The ray gap |s - 1| ||d|| of ``boundary_distance`` per row, for any q."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            gap = np.abs(np.sqrt(self.h_f_star / q) - 1.0) * np.linalg.norm(d, axis=-1)
        # at the center, or so near it that q or ||d||^2 underflows (inf or
        # inf * 0): the shortest semi-axis, along the steepest direction
        return np.where(np.isfinite(gap), gap, math.sqrt(self.h_f_star / self.ell))

    def within(self, theta, margin):
        """``boundary_distance(theta) >= margin`` per (..., d) row, for margin >= 0.

        Screen.  With a_min = sqrt(h_f_star / lambda_max), the shortest
        semi-axis, ||d||^2 >= q / lambda_max gives a ray gap
        (sqrt(h_f_star / q) - 1) ||d|| >= a_min (1 - sqrt(q / h_f_star)), so a
        row with q <= (1 - r/a_min)^2 h_f_star is at least r = ``margin``
        from the boundary along its ray (and in Euclidean distance: the
        ellipsoid scaled by 1 - r/a_min plus a ball of radius r lies inside
        the basin).  Such rows are accepted from q alone, rows outside the
        basin are rejected by the same value test as ``boundary_distance``,
        and only the rest (the shell) get the ray gap, by ``_ray_gap``.

        Rounding bound.  Every row the screen accepts has a computed ray gap
        g >= r, so the screen answers as ``boundary_distance`` does.  Take
        u = 2^-53, gamma_k = k u / (1 - k u), d the dimension, q~ a row's
        computed q and s^ = sqrt(q~ / h_f_star).
        - q: in any summation order |q~ - q| <= gamma_2d |d|^T |H| |d|
          <= gamma_2d G ||d||^2, where G, the greatest row sum of |H|, is at
          least ||H||_2 = lambda_max; so ||d||^2 >= (1 - gamma_3d) q~ / G~
          for the computed row sum G~, within gamma_(d-1) of G.
        - a_min: the screen reads a~ = sqrt(h_f_star / G~), to 2u, which is
          no larger than a_min beyond those roundings (G = lambda_max for a
          diagonal H; eigvalsh states no error bound to lean on instead), so
          ||d|| >= (1 - (2d + 2) u) s^ a~.
        - |s - 1|: the computed s is at least (1 - 2u) / s^, so s - 1 >=
          (1 - 2u - s^) / s^ before its own rounding.  Near the threshold
          s - 1 is about r / a_min, and its error relative to that is about
          2u a_min / r, which no fixed relative slack covers once r is small;
          the bound keeps 2u as an absolute term in 1 - 2u - s^ instead.
        With the roundings of the norm and the product, g >= (1 - (3d + 6) u)
        (1 - 2u - s^) a~.  The threshold T~ = h_f_star c^2 (1 - kappa), with
        c = max(0, 1 - (r / a~)(1 + kappa) - kappa) and kappa = (4d + 16) u,
        is at most h_f_star c^2 after its roundings, and c leaves
        1 - 2u - c >= (1 - 2u)(1 + kappa) r / a~.  So a row with q~ <= T~ has
        s^ <= c and g >= (1 - (3d + 6) u)(1 - 2u)(1 + kappa) r >= r; and
        0.5 q~ < height - f_star, so it passes the value test too.  The
        roundings are relative while nothing underflows: rows with q~ below
        2^-900 max(1, G~) go to the shell, which keeps ||d||^2 above 2^-901,
        and H's nonzero entries are taken to be far from the subnormal range.
        Overflow only makes g larger.
        """
        d, q = self._offset_form(theta)
        c = max(0.0, 1.0 - margin / self._a_min * (1.0 + self._kappa) - self._kappa)
        # an array, writable also for one (d,) point; boolean masks index a
        # (..., n, d) batch as they do a flat one
        far = np.asarray((q >= self._q_floor) & (q <= self.h_f_star * c * c * (1.0 - self._kappa)))
        if not far.all():
            shell = ~far & (self.f_star + 0.5 * q <= self.height)
            if shell.any():
                far[shell] = self._ray_gap(d[shell], q[shell]) >= margin
        return far


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
        x = np.asarray(theta, dtype=float)[..., 0]
        out = np.minimum(x ** 2, self.a * (x - 1.0) ** 2)
        return float(out) if out.ndim == 0 else out

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

    def within(self, theta, margin):
        """``boundary_distance(theta) >= margin`` per (..., 1) row."""
        return self.boundary_distance(theta) >= margin


@dataclass
class BasinSpec:
    """A basin region plus the inner-margin parameters (eps, gamma).

    The inner region keeps a safety margin eps^gamma from the boundary; the
    escape time is the first step the trajectory leaves that inner region.
    """

    region: object  # within(theta, margin) on (..., d) batches
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
        return self.region.within(theta, margin_factor * self.margin)
