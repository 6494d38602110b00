"""Independent numerical oracles used by the test suite.

Everything here is computed by a different method than the library uses:
characteristic-function inversion instead of sampling; polar/spherical grid
quadrature, a closed form for d = 4 and sphere sampling instead of the
library's one-dimensional integral over the eigenvalues; hit-or-miss Monte
Carlo instead of closed-form volumes.
"""

import math

import numpy as np
from scipy.integrate import quad


def sas_tail_mass(u, alpha):
    """P(|X| > u) for X ~ SaS(1), by Gil-Pelaez inversion of exp(-|w|^alpha)."""
    val, _ = quad(lambda w: math.sin(w * u) / w * math.exp(-(w ** alpha)), 0.0,
                  np.inf, limit=400)
    return 2.0 * (0.5 - val / math.pi)


def radon_measure_grid_2d(a, c, alpha, n_theta=4000):
    """m(W) for W = {y^T A y >= c} in d = 2 by angular grid quadrature.

    The radial integral is closed-form, so this reduces to a trapezoid rule
    over the angle; independent of the sphere-sampling path.
    """
    a = np.asarray(a, dtype=float)
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    f = (np.einsum("ni,ij,nj->n", u, a, u) / c) ** (alpha / 2.0)
    return float(np.mean(f)) * 2.0 * math.pi / alpha


def radon_measure_grid_3d(a, c, alpha, n_theta=400, n_phi=800):
    """Same as the 2D oracle but over a latitude/longitude grid on S^2."""
    a = np.asarray(a, dtype=float)
    # midpoint rule in cos(polar) x azimuth gives uniform area weights
    mu = (np.arange(n_theta) + 0.5) / n_theta * 2.0 - 1.0
    phi = (np.arange(n_phi) + 0.5) / n_phi * 2.0 * math.pi
    st = np.sqrt(1.0 - mu ** 2)
    x = st[:, None] * np.cos(phi)[None, :]
    y = st[:, None] * np.sin(phi)[None, :]
    z = np.broadcast_to(mu[:, None], x.shape)
    u = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    f = (np.einsum("ni,ij,nj->n", u, a, u) / c) ** (alpha / 2.0)
    return float(np.mean(f)) * 4.0 * math.pi / alpha


def radon_measure_d4_pairs(a, b, c, alpha):
    """m(W) for A with eigenvalues (a, a, b, b), a != b, in closed form.

    For u uniform on S^3, s = u_1^2 + u_2^2 is uniform on [0, 1], so the
    sphere mean of (u^T A u / c)^p is the mean of ((b + (a - b) s) / c)^p over s.
    """
    p = alpha / 2.0
    a, b = a / c, b / c
    mean = (a ** (p + 1.0) - b ** (p + 1.0)) / ((p + 1.0) * (a - b))
    return 2.0 * math.pi ** 2 / alpha * mean


def radon_measure_sampled(a, c, alpha, n_dirs, seed):
    """(m(W), standard error) from n_dirs seeded uniform directions, any d."""
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    done = 0
    while done < n_dirs:
        nb = min(200_000, n_dirs - done)
        u = rng.standard_normal((nb, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        f = (np.einsum("ni,ij,nj->n", u, a, u) / c) ** (alpha / 2.0)
        total += float(np.sum(f))
        total_sq += float(np.sum(f ** 2))
        done += nb
    mean = total / n_dirs
    stderr = math.sqrt(max(total_sq / n_dirs - mean ** 2, 0.0) / n_dirs)
    factor = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0) / alpha
    return factor * mean, factor * stderr


def ellipsoid_volume_mc(a, c, n=10_000_000, seed=0):
    """Hit-or-miss volume of {y^T A y < c} inside its bounding box."""
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    eigvals, eigvecs = np.linalg.eigh(a)
    half = math.sqrt(c) / np.sqrt(eigvals.min())
    rng = np.random.default_rng(seed)
    hits = 0
    block = 1_000_000
    done = 0
    while done < n:
        nb = min(block, n - done)
        pts = rng.uniform(-half, half, size=(nb, d))
        hits += int(np.sum(np.einsum("ni,ij,nj->n", pts, a, pts) < c))
        done += nb
    return hits / n * (2.0 * half) ** d


def finite_difference_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g
