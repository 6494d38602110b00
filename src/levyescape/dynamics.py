"""Integrators for the heavy-tail-driven SDE models of SGD, Adam, and SGD-M.

The continuous-time models are
    SGD:   dtheta = -grad F dt + eps Sigma dL
    Adam:  dtheta = -mu_t Q_t^{-1} m dt + eps Q_t^{-1} Sigma dL
           dm = beta1 (grad F - m) dt,  dv = beta2 (grad F^2 - v) dt
    SGD-M: Adam with Q_t = I (the same update, no second-moment preconditioning)
with dL a vector of independent symmetric alpha-stable increments,
Q_t = diag(sqrt(omega_t v) + eps_adam) (or a frozen ``q_fixed``), and the
bias corrections mu_t = 1/(1 - exp(-beta1 t)), omega_t = 1/(1 - exp(-beta2 t)).

Noise normalization: the increment over a step h is (K h)^{1/alpha} SaS(1)
per coordinate, where K is the tail constant of ``stable.tail_normalization``;
increments then exceed a threshold u at rate (2/alpha) u^{-alpha} per unit
time, matching the compound-Poisson intensity and the exit-time predictions.

``deterministic_flow`` steps each noise-free state with its one gradient and,
in one pass over the states, reports the Lyapunov value and, for Adam and SGD-M,
the assumption monitors rho_t and tau_t that ``probe.assumption_monitors`` selects.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .stable import ParameterError, sas_from_uniforms, tail_normalization

__all__ = [
    "DivergedError",
    "OptimizerConfig",
    "SdeState",
    "SasStream",
    "FlowRateReport",
    "levy_step",
    "deterministic_flow",
    "discrete_reference_step",
]

_KINDS = ("SGD", "ADAM", "SGDM")


class DivergedError(RuntimeError):
    """A non-finite gradient; carries the last finite state (a row tuple becomes a state)."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = SdeState(*last_state) if isinstance(last_state, tuple) else last_state


@dataclass
class OptimizerConfig:
    """Parameters of one SDE integrator run.

    ``noise_scale`` overrides the learning-rate-derived amplitude
    eta^((alpha-1)/alpha); it is required for alpha <= 1, where that formula
    degenerates.  ``drift_scale`` multiplies the drift step (useful for
    iteration-time runs where step_h = 1 counts iterations), and
    ``drift_substeps`` splits each SGD drift step for stiff basins (Adam and
    SGD-M ignore it).  ``q_fixed`` freezes Adam's preconditioner diagonal.
    Noise enters theta alone (``noise_term``), never the moments m and v.
    """

    kind: str = "SGD"
    eta: float = 1e-3
    alpha: float = 1.5
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8
    step_h: float = 1e-2
    sigma: np.ndarray | None = None  # None = identity; 1D = diagonal; 2D = dense
    noise_scale: float | None = None
    drift_scale: float = 1.0
    drift_substeps: int = 1
    q_fixed: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not (0.0 < self.alpha <= 2.0):
            raise ParameterError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not self.eta > 0:
            raise ParameterError(f"eta must be positive, got {self.eta}")
        if not self.step_h > 0:
            raise ParameterError(f"step_h must be positive, got {self.step_h}")
        if self.kind in ("ADAM", "SGDM"):
            for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
                if not (0.0 < b < 1.0):
                    raise ParameterError(f"{name} must lie in (0, 1), got {b}")
        if self.drift_substeps < 1:
            raise ParameterError("drift_substeps must be >= 1")
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
        if self.q_fixed is not None:
            self.q_fixed = np.asarray(self.q_fixed, dtype=float)
            if np.any(self.q_fixed <= 0):
                raise ParameterError("q_fixed entries must be positive")
        if self.noise_scale is None and self.alpha <= 1.0:
            raise ParameterError(
                "the amplitude formula eta^((alpha-1)/alpha) degenerates for "
                "alpha <= 1; set noise_scale directly"
            )

    @property
    def eps_noise(self):
        """Noise amplitude: explicit noise_scale, else eta^((alpha-1)/alpha)."""
        if self.noise_scale is not None:
            return self.noise_scale
        return self.eta ** ((self.alpha - 1.0) / self.alpha)

    def increment_scale(self, h):
        """Scale turning SaS(1) draws into Lévy increments over time h."""
        if self.alpha < 2.0:
            return tail_normalization(self.alpha) * h ** (1.0 / self.alpha)
        return h ** (1.0 / self.alpha)

    @property
    def adaptive(self):
        """Q_t follows the second moment v (Adam without ``q_fixed``)."""
        return self.kind == "ADAM" and self.q_fixed is None

    def preconditioner(self, v, omega_t):
        """Adam's Q_t: 1 without preconditioning, else q_fixed or sqrt(omega_t v) + eps_adam."""
        if self.kind != "ADAM":
            return 1.0
        if self.q_fixed is not None:
            return self.q_fixed
        return np.sqrt(omega_t * v) + self.eps_adam

    def noise_term(self, increment):
        """eps Sigma dL, the noise a step adds to theta (before Adam's Q_t^-1), for rows dL."""
        if self.sigma is None:
            return self.eps_noise * increment
        if self.sigma.ndim == 1:
            return self.eps_noise * (increment * self.sigma)
        return self.eps_noise * (increment @ self.sigma.T)


@dataclass
class SdeState:
    """Integrator state: parameters theta, Adam moments m and v, process time t.

    theta may carry a leading batch axis; m and v follow its shape.  A flow's
    trajectory stacks its states on a leading time axis, t too: state k is row
    k of theta, m, v and t.  A state unpacks as its ``(theta, m, v, t)`` row.
    """

    theta: np.ndarray
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: float = 0.0

    def __post_init__(self):
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if self.m is not None:
            self.m = np.asarray(self.m, dtype=float)
        if self.v is not None:
            self.v = np.asarray(self.v, dtype=float)
            if np.any(self.v < 0):
                raise ValueError("second-moment entries must be nonnegative")

    def __iter__(self):
        return iter((self.theta, self.m, self.v, self.t))

    @classmethod
    def initial(cls, theta0, kind):
        theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
        m = None if kind == "SGD" else np.zeros_like(theta0)
        return cls(theta0, m, np.zeros_like(theta0) if kind == "ADAM" else None)

    def take(self, keep):
        """The trajectories selected by ``keep`` along the leading batch axis."""
        return SdeState(self.theta[keep], None if self.m is None else self.m[keep],
                        None if self.v is None else self.v[keep], self.t)


# NumPy's SeedSequence constants (pool size 4, uint32 lanes)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init, mult, n):
    """The first n values of a SeedSequence hash constant, as uint32 scalars."""
    consts = [init]
    while len(consts) < n:
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return [np.uint32(c) for c in consts]


_HASH_A = _hash_constants(_INIT_A, _MULT_A, 17)  # 16 hashmix calls in mix_entropy
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 9)  # 8 output words


def _seed_words(seeds):
    """``SeedSequence(s).generate_state(4, np.uint64)`` for a uint64 array of seeds.

    NumPy's hash run over all seeds at once on uint32 lanes.  A seed's
    entropy is its little-endian 32-bit words, one below 2**32 and two from
    there on; the pool of four words is filled with the hashed entropy and
    then hashed zeros, and a missing high word hashes exactly as a zero, so
    both cases take one path.  Every pool word is then mixed into every
    other, and the pool is hashed out to eight uint32 words, read as four
    little-endian uint64 per seed.  Returns a ``(seeds, 4)`` uint64 array.
    """
    lo = (seeds & 0xFFFFFFFF).astype(np.uint32)
    zero = np.zeros_like(lo)
    consts = iter(zip(_HASH_A, _HASH_A[1:]))

    def hashmix(value):
        xor_const, mult_const = next(consts)
        value = (value ^ xor_const) * mult_const
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in (lo, (seeds >> 32).astype(np.uint32), zero, zero)]
    mult_l, mult_r = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * mult_l - hashmix(pool[src]) * mult_r
                pool[dst] = mixed ^ (mixed >> 16)
    out = []
    for i in range(8):
        value = (pool[i % 4] ^ _HASH_B[i]) * _HASH_B[i + 1]
        out.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([out[i] | (out[i + 1] << 32) for i in range(0, 8, 2)], axis=-1)


@functools.cache
def _state_words_type():
    """A seed sequence type that hands a bit generator one precomputed state row.

    Built on first use: subclassing ``ISeedSequence`` imports
    ``numpy.random`` (about 15 ms on a 2-vCPU x86 host), which importing the
    package does not.
    """

    class StateWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def _trial_seeds(seed):
    """``seed`` as a 1-D uint64 array, after checking it holds integers in [0, 2**63)."""
    seeds = np.asarray(seed)
    if seeds.ndim > 1 or seeds.dtype.kind not in "iu":
        raise ParameterError(f"seeds must be an int or a 1-D integer array, got {seed!r}")
    seeds = seeds.reshape(-1)
    if seeds.size and (seeds.min() < 0 or seeds.max() >= 2**63):
        raise ParameterError("seeds must lie in [0, 2**63)")
    return seeds.astype(np.uint64)


# PCG64 as NumPy runs it (O'Neill 2014): a 128-bit LCG, state -> state * _PCG_MULT
# + inc modulo 2**128 with a per-stream odd inc, whose output is the XSL-RR
# permutation of the new state.  A 128-bit value is a (high, low) pair of
# uint64 arrays; uint64 arithmetic wraps modulo 2**64.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = 0xFFFFFFFF


def _mul_hi64(a, b):
    """High 64 bits of the 128-bit product of a uint64 array and an int below 2**64.

    Schoolbook on 32-bit halves; no partial sum below can pass 2**64.
    """
    a_lo, a_hi = a & _LOW32, a >> 32
    b_lo, b_hi = b & _LOW32, b >> 32
    cross = a_hi * b_lo + ((a_lo * b_lo) >> 32)
    mid = a_lo * b_hi + (cross & _LOW32)
    return a_hi * b_hi + (cross >> 32) + (mid >> 32)


def _mul_add128(x, mult, y):
    """x * mult + y modulo 2**128, for (high, low) pairs x and y and an int mult."""
    (x_hi, x_lo), (y_hi, y_lo) = x, y
    m_hi, m_lo = mult >> 64, mult & 0xFFFFFFFFFFFFFFFF
    lo = x_lo * m_lo + y_lo
    return _mul_hi64(x_lo, m_lo) + x_lo * m_hi + x_hi * m_lo + y_hi + (lo < y_lo), lo


def _pcg_seed(words):
    """(state, inc) of ``PCG64`` seeded with ``_seed_words`` rows, before its first output.

    Words 0-1 are the initial state and words 2-3 the stream, high word
    first; the increment is stream * 2 + 1, and seeding steps from state 0,
    adds the initial state and steps again.
    """
    w = words.T
    inc = ((w[2] << 1) | (w[3] >> 63), (w[3] << 1) | 1)
    lo = inc[1] + w[1]
    return _mul_add128((inc[0] + w[0] + (lo < w[1]), lo), _PCG_MULT, inc), inc


@functools.cache
def _pcg_jump_constants(delta):
    """(A, G) with delta steps taking state s to A s + G inc modulo 2**128.

    A = M**delta and G = 1 + M + ... + M**(delta - 1) for M = _PCG_MULT;
    G = (M**delta - 1) / (M - 1) is exact once M**delta is reduced modulo
    (M - 1) * 2**128.  delta = -1 rewinds one step: M is odd and coprime to
    M - 1, so M is invertible modulo (M - 1) * 2**128.
    """
    a = pow(_PCG_MULT, delta, 2**128)
    g = (pow(_PCG_MULT, delta, (_PCG_MULT - 1) << 128) - 1) // (_PCG_MULT - 1)
    return a, g


def _pcg_jump(state, inc, delta):
    """The states ``delta`` steps after ``state`` (``bit_generator.advance(delta)``)."""
    a, g = _pcg_jump_constants(delta)
    return _mul_add128(state, a, _mul_add128(inc, g, (0, 0)))


def _pcg_words_for(state, inc):
    """``_seed_words`` rows that ``PCG64`` seeds to ``state`` with increment ``inc``.

    The inverse of ``_pcg_seed``, so a generator can start at any cursor
    without an ``advance`` call.  Seeding ends in s = (init + inc) M + inc,
    so init is s rewound one step, minus inc.  Returns uint64 words along a
    new last axis.
    """
    a, g = _pcg_jump_constants(-1)
    init = _mul_add128(state, a, _mul_add128(inc, (g - 1) % 2**128, (0, 0)))
    stream = (inc[0] >> 1, (inc[1] >> 1) | (inc[0] << 63))
    return np.stack(np.broadcast_arrays(*init, *stream), axis=-1)


def _pcg_doubles(hi, lo):
    """``Generator.random``'s doubles for the states whose outputs they are.

    XSL-RR: the xor of the state's halves rotated right by its top six bits;
    a double is the output's top 53 bits times 2**-53.  Works in place in
    ``hi`` and ``lo``.
    """
    out = np.bitwise_xor(hi, lo, out=lo)
    rot = np.right_shift(hi, 58, out=hi)
    right = out >> rot
    np.subtract(64, rot, out=rot)
    rot &= 63
    out <<= rot
    out |= right
    out >>= 11
    return out * 2.0 ** -53


# The start of the last stream whose first draw the stepper served, as
# ((alpha, dim, n), seeds, rows, cursors, inc) with every array read-only; see
# SasStream.  One tuple, replaced whole, so threads read it without a lock.
_start_memo = None
_START_MEMO_BYTES = 1 << 20  # larger rows are not kept; the buffer they view is twice their size


class SasStream:
    """Per-trial streams of SaS(1) draws, one row of ``dim`` values per step.

    ``seed`` is an int, and ``draw(n)`` returns ``(n, dim)`` rows, or a 1-D
    array of seeds, one trial each, and ``draw(n)`` returns
    ``(trials, n, dim)``; trial i then sees exactly the rows of
    ``SasStream(alpha, dim, seed[i])``.  Seeds are integers in [0, 2**63).
    An int seed runs as the one-seed array ``[seed]``, and its draws drop
    the trial axis.  All trials share one row cursor, since an ensemble
    steps them in lockstep.

    Block layout: trial i's uniforms come from the PCG64 generator of
    ``np.random.default_rng(seed[i])``, in blocks of ``BLOCK`` rows, first
    ``BLOCK * dim`` angle uniforms, then ``BLOCK * dim`` exponential
    uniforms, and row r of a block is the CMS transform of angle row r and
    exponential row r.  The values for a seed therefore do not depend on the
    request pattern: a trajectory stepping one draw at a time and an
    ensemble pulling chunks see the same stream.

    Seeding: the generators' ``SeedSequence`` states are hashed for the
    whole seed array in one vectorized pass (``_seed_words``), so no trial
    builds a ``SeedSequence``.  The constructor only checks the seeds; the
    first draw, or ``take``, seeds the cursors (``_start``).

    Reading: ``Generator.random`` spends exactly one PCG64 output per
    float64, so each trial keeps two cursors on its generator's output
    sequence, an angle cursor at its angle row r and an exponential cursor
    ``BLOCK * dim`` outputs ahead, at exponential row r.  Rows [r, r + k)
    are then the next k * dim outputs of each.

    First rows: the cursors start as PCG64 states of the whole ensemble,
    stepped together in uint64 arithmetic (``_pcg_seed``, ``_pcg_jump``,
    ``_mul_add128``), which serves every draw that ends within the first
    ``_STEPPED`` outputs of each cursor.  Most trials of a basin they leave
    within a few steps never get further.  The first draw past them builds
    per-trial generators for the trials still present, each
    ``Generator(PCG64(words))`` with words that seed it to its cursor's
    state (``_pcg_words_for``); from then on rows [r, r + k) are one
    ``random`` call on each cursor's generator.  When a block ends, the
    exponential cursor sits at the next block's angle row 0, so the two
    swap roles and the old angle cursor, at the old block's exponential
    row 0, moves ``2 * BLOCK * dim`` outputs ahead.  Only the rows handed
    out are transformed, in one ``sas_from_uniforms`` call per draw that
    writes over the angle uniforms and spreads its slices over the usable
    cores.  A draw from generators hands that call its slices of trials as
    it fills them (``_fill``), so the slice pool transforms one slice while
    the calling thread fills the next.

    Start memo: ensembles that share their seeds read the same streams
    (``compare_optimizers`` runs one per optimizer, ``scaling_sweep`` one
    per amplitude), and their trials mostly leave within the first draw.
    So the module keeps one entry, ``_start_memo``: the first draw of the
    last stream whose first draw the stepper served, keyed by
    ``(alpha, dim, n)`` and the seed array, with the cursors after it.  A
    fresh stream whose first ``draw(n)`` has that key returns the kept rows
    and continues from the kept cursors, with no seeding, stepping or
    transform; every value is the one it would have computed.  The rows are
    read-only.  A stream that came from ``take`` never reads the memo, and
    first draws above ``_START_MEMO_BYTES`` are not kept.
    """

    BLOCK = 512
    # Outputs per cursor the stepper serves.  Measured against building and
    # reading generators (2-vCPU x86): the stepper costs less up to about 64
    # outputs at 2000 trials and about 20 at 100; 32 covers the escape
    # loops' first two 8-row chunks up to dim 2 (and the first up to dim 4),
    # so trials that leave a thinning basin by step 16 build no generators.
    _STEPPED = 32
    _SLICE = 32768  # values per slice of trials that ``_fill`` yields: the transform's slice

    def __init__(self, alpha, dim, seed):
        self.alpha = alpha
        self.dim = dim
        self._batched = np.ndim(seed) > 0
        self._seeds = _trial_seeds(seed)  # until the cursors are seeded (``_start``)
        self._cursors = self._inc = None  # (high/low word, angle/exp, trial) and (high/low, trial)
        self._angle = self._exp = None  # per-trial generators, once built
        self._row = 0  # cursor within the current block, shared by all trials

    def _start(self):
        """Seed the cursors from the seeds, unless they already are."""
        if self._seeds is None:
            return
        state, inc = _pcg_seed(_seed_words(self._seeds))
        exp = _pcg_jump(state, inc, self.BLOCK * self.dim)
        self._cursors = np.stack([state, exp], axis=1)
        self._inc = np.stack(inc)
        self._seeds = None

    def take(self, keep):
        """The trials selected by ``keep``, continuing at the same row.

        The selected generators move to the returned stream; keep drawing
        from that one only.  The returned stream never reads the start memo.
        """
        self._start()
        out = copy.copy(self)
        out._cursors, out._inc = self._cursors[..., keep], self._inc[:, keep]
        if self._angle is not None:
            out._angle, out._exp = self._angle[keep], self._exp[keep]
        return out

    def draw(self, n):
        if self._seeds is not None and n * self.dim <= self._STEPPED:
            rows = self._first_draw(n)
        else:
            self._start()
            if self._angle is None and (self._row + n) * self.dim <= self._STEPPED:
                uniforms = self._stepped_uniforms(n)
            else:
                uniforms = self._generated_uniforms(n)
            rows = self._transform(*uniforms)
        return rows if self._batched else rows[0]

    def _first_draw(self, n):
        """Rows [0, n) of every trial of a fresh stream, from the start memo if its key matches."""
        global _start_memo
        key, seeds, memo = (self.alpha, self.dim, n), self._seeds, _start_memo
        if memo is not None and memo[0] == key and np.array_equal(memo[1], seeds):
            _, _, rows, self._cursors, self._inc = memo
            self._seeds, self._row = None, n
            return rows
        self._start()
        rows = self._transform(*self._stepped_uniforms(n))
        if rows.nbytes <= _START_MEMO_BYTES:
            for kept in (seeds, rows, self._cursors, self._inc):
                kept.flags.writeable = False
            _start_memo = (key, seeds, rows, self._cursors, self._inc)
        return rows

    def _transform(self, u_angle, u_exp, parts=None):
        """The CMS transform of the uniforms, written over ``u_angle``, which it returns."""
        sas_from_uniforms(self.alpha, u_angle, u_exp, out=u_angle, parts=parts)
        return u_angle

    def _stepped_uniforms(self, n):
        """Angle and exponential uniforms of the next n rows, stepped from the cursors."""
        trials = self._cursors.shape[2]
        outputs = (2, trials, n * self.dim)
        hi, lo = np.empty(outputs, dtype=np.uint64), np.empty(outputs, dtype=np.uint64)
        state, inc = tuple(self._cursors), tuple(self._inc)
        for j in range(outputs[-1]):
            state = _mul_add128(state, _PCG_MULT, inc)
            hi[..., j], lo[..., j] = state
        self._cursors = np.stack(state)
        self._row += n
        return _pcg_doubles(hi, lo).reshape(2, trials, n, self.dim)

    def _generated_uniforms(self, n):
        """Arrays for the angle and exponential uniforms of the next n rows, and ``_fill``."""
        if self._angle is None:
            self._build_generators()
        u_angle = np.empty((self._angle.size, n, self.dim))
        u_exp = np.empty_like(u_angle)
        return u_angle, u_exp, self._fill(u_angle, u_exp)

    def _fill(self, u_angle, u_exp):
        """Fill ``(trials, n, dim)`` uniforms from the generators, yielding the
        value slice of each ``_SLICE // (n * dim)`` trials (at least one) once
        its rows are written: in the draw's last block, after every trial's
        rows of the blocks before."""
        trials, n, d = u_angle.shape
        block, width, done = self.BLOCK, max(1, self._SLICE // max(1, n * d)), 0
        while done < n:
            k = min(n - done, block - self._row)
            rows, last = slice(done, done + k), done + k == n
            for lo in range(0, trials, width):
                sl = slice(lo, lo + width)
                for angle, exp, angle_rows, exp_rows in zip(
                        self._angle[sl], self._exp[sl], u_angle[sl, rows], u_exp[sl, rows]):
                    angle.random(out=angle_rows)
                    exp.random(out=exp_rows)
                if last:
                    yield slice(lo * n * d, (lo + width) * n * d)
            self._row += k
            if self._row == block:
                self._angle, self._exp = self._exp, self._angle
                for rng in self._exp:
                    rng.bit_generator.advance(2 * block * d)
                self._row = 0
            done += k

    def _build_generators(self):
        """Each trial's two cursors as generators, seeded to start at the cursors' states."""
        state_words = _state_words_type()
        generators = []
        for words in _pcg_words_for(tuple(self._cursors), tuple(self._inc)):
            rngs = np.empty(len(words), dtype=object)
            rngs[:] = [np.random.Generator(np.random.PCG64(state_words(w))) for w in words]
            generators.append(rngs)
        self._angle, self._exp = generators


def _bias_corrections(cfg, t_next):
    mu_t = 1.0 / (1.0 - math.exp(-cfg.beta1 * t_next))
    omega_t = 1.0 / (1.0 - math.exp(-cfg.beta2 * t_next))
    return mu_t, omega_t


def _checked_gradient(landscape, theta, last):
    g = landscape.gradient(theta)
    if not np.all(np.isfinite(g)):
        raise DivergedError("non-finite gradient", last)
    return g


def levy_step(state, landscape, cfg, noise_increment):
    """One integrator step; ``noise_increment`` is the Lévy increment over step_h.

    The caller supplies the increment already time-scaled (see
    ``OptimizerConfig.increment_scale``); this function applies the amplitude
    eps_noise, the covariance factor Sigma, and for Adam the preconditioner.
    States with a leading batch axis step all trajectories in lockstep; a
    non-finite gradient raises DivergedError carrying the input state.
    """
    g = _checked_gradient(landscape, state.theta, state)
    return SdeState(*_advance(state, g, landscape, cfg, noise_increment))


def _advance(row, g, landscape, cfg, noise_increment):
    """The ``(theta, m, v, t)`` row after ``row`` (a tuple or ``SdeState``), from its checked g."""
    theta0, m0, v0, t = row
    h = cfg.step_h
    noise = cfg.noise_term(np.asarray(noise_increment, dtype=float))
    t_next = t + h

    if cfg.kind == "SGD":
        step = h * cfg.drift_scale / cfg.drift_substeps
        theta = theta0 - step * g
        for _ in range(cfg.drift_substeps - 1):
            theta = theta - step * _checked_gradient(landscape, theta, row)
        return theta + noise, None, None, t_next

    mu_t, omega_t = _bias_corrections(cfg, t_next)
    m = m0 + h * cfg.beta1 * (g - m0)
    v = v0
    if cfg.adaptive:
        # the clamp matters once step_h * beta2 > 1, where the Euler step overshoots
        v = np.maximum(v0 + h * cfg.beta2 * (g ** 2 - v0), 0.0)
    q = cfg.preconditioner(v, omega_t)
    theta = theta0 - h * cfg.drift_scale * mu_t * m / q + noise / q
    return theta, m, v, t_next


@dataclass
class FlowRateReport:
    """Fitted vs predicted exponential decay rate of a noise-free flow."""

    observed_rate: float | None
    predicted_rate: float
    lyapunov_series: np.ndarray  # columns (t, L)
    tau: float | None = None
    v_max: float | None = None
    monitor_series: np.ndarray | None = None  # momentum: (t, rho, tau) from state 1 on


def _fit_decay_rate(ts, ls):
    keep = ls > 1e-300
    if np.count_nonzero(keep) < 2:
        return None
    return -float(np.polyfit(ts[keep], np.log(ls[keep]), 1)[0])


def _momentum_ratio(m, g):
    """tau = ||m|| / ||grad F||, or NaN where ||grad F|| is below 1e-12.

    Each norm is sqrt(x @ x), as ``np.linalg.norm`` forms it for a vector.
    """
    g_norm = math.sqrt(g @ g)
    return math.sqrt(m @ m) / g_norm if g_norm > 1e-12 else math.nan


def deterministic_flow(state0, landscape, cfg, T):
    """Integrate the noise-free flow and fit the decay rate of its Lyapunov value.

    Returns the trajectory, one ``SdeState`` whose theta, m, v and t carry a
    leading time axis (state k is row k), and the ``FlowRateReport``.  SGD
    on a quadratic (a landscape with an ndarray ``H``) takes the exact
    backward Euler step of size h * drift_scale, with no drift substeps, so
    the fitted rate approaches the continuous-flow rate 2 mu drift_scale
    from below; every other flow takes ``levy_step``'s step (``_advance``,
    on plain arrays) with zero noise, from the one checked gradient of each
    state.  A momentum flow also reports the assumption monitors in
    ``monitor_series``: rho_t = (10/t) times the trapezoidal integral of
    <g / (1 + F - F*), mu_t Q_t^{-1} m> from the first state, and
    tau_t = ``_momentum_ratio``.  The Lyapunov value of a momentum flow is
    L = F - F* + 1/2 ||m||^2 weighted by 1/s_t, s_t = (beta1/mu_t) Q_t.
    The predicted Adam rate uses tau, the sup of tau_t over the trajectory,
    and bounds Q_t by v_max + eps_adam, or by max(Q) when Q is constant
    (``q_fixed``, SGD-M).
    """
    if not T > 0:
        raise ParameterError(f"horizon T must be positive, got {T}")
    h = cfg.step_h
    rows, grads = [tuple(state0)], []
    if cfg.kind == "SGD" and isinstance(getattr(landscape, "H", None), np.ndarray):
        # (I + h drift_scale H)(theta' - c) = theta - c
        a, c = np.eye(landscape.dim) + h * cfg.drift_scale * landscape.H, landscape.center
        for _ in range(int(round(T / h))):
            theta, _, _, t = rows[-1]
            rows.append((c + np.linalg.solve(a, theta - c), None, None, t + h))
    else:
        zero_noise = replace(cfg, noise_scale=0.0)
        for _ in range(int(round(T / h))):
            row = rows[-1]
            grads.append(_checked_gradient(landscape, row[0], row))
            rows.append(_advance(row, grads[-1], landscape, zero_noise, np.zeros_like(row[0])))
    traj = SdeState(*(None if col[-1] is None else np.array(col) for col in zip(*rows)))
    gaps = landscape.value(traj.theta) - landscape.value(landscape.minimizer())
    ls, monitors = gaps, None
    if cfg.kind != "SGD":
        grads.append(_checked_gradient(landscape, rows[-1][0], rows[-1]))
        g, m = np.array(grads), traj.m
        v = traj.v if cfg.kind == "ADAM" else np.zeros(1)
        mu_t, omega_t = np.hsplit(np.array([_bias_corrections(cfg, max(t, h)) for t in traj.t]), 2)
        q = cfg.preconditioner(v, omega_t)
        ls = gaps + 0.5 * np.sum(m ** 2 / ((cfg.beta1 / mu_t) * q), axis=1)
        # one dot product per row: a batched sum rounds differently for d >= 2
        integrands = np.array([a @ b for a, b in zip(g / (1.0 + gaps[:, None]), mu_t * m / q)])
        ratios = [_momentum_ratio(a, b) for a, b in zip(m, g)]
        # a leading 0.0 makes cumsum an accumulator started at 0.0, down to the sign of zero
        trapezoids = np.r_[0.0, 0.5 * (integrands[:-1] + integrands[1:]) * h]
        rho = (10.0 / traj.t[1:]) * np.cumsum(trapezoids)[1:]
        monitors = np.column_stack([traj.t[1:], rho, ratios[1:]])
    series = np.column_stack([traj.t, ls])
    if ls[0] <= 1e-300:
        return traj, FlowRateReport(None, 0.0, series, monitor_series=monitors)
    observed = _fit_decay_rate(traj.t, ls)
    if cfg.kind == "SGD":
        return traj, FlowRateReport(observed, 2.0 * landscape.mu * cfg.drift_scale, series)
    tau = max((r for r in ratios if r > 0), default=None)
    v_max = float(np.sqrt(v).max())
    predicted = 0.0
    if tau is not None:
        mu = landscape.mu
        q_max = v_max + cfg.eps_adam if cfg.adaptive else np.max(cfg.preconditioner(None, None))
        predicted = (
            2.0 * mu * tau / (cfg.beta1 * q_max + mu * tau)
        ) * (cfg.beta1 - cfg.beta2 / 4.0)
    return traj, FlowRateReport(observed, predicted, series, tau, v_max, monitors)


def discrete_reference_step(state, minibatch_gradient, cfg):
    """The discrete optimizer updates with integer-step bias corrections.

    ``state.t`` counts completed steps; corrections use 1 - beta^t with
    t = step + 1 for the incoming step, matching the usual Adam recursion.
    """
    g = np.asarray(minibatch_gradient, dtype=float)
    step = int(round(state.t)) + 1
    if cfg.kind == "SGD":
        return SdeState(theta=state.theta - cfg.eta * g, t=float(step))
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
    m_hat = m / (1.0 - cfg.beta1 ** step)
    if cfg.kind == "SGDM":
        return SdeState(theta=state.theta - cfg.eta * m_hat, m=m, t=float(step))
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * g ** 2
    v_hat = v / (1.0 - cfg.beta2 ** step)
    theta = state.theta - cfg.eta * m_hat / (np.sqrt(v_hat) + cfg.eps_adam)
    return SdeState(theta=theta, m=m, v=v, t=float(step))
