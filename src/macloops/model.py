"""Plant models, loop/scenario configuration and seeded random-number
streams.

All configuration types are immutable after construction (arrays are frozen),
so scenarios can be shared freely across concurrent episode workers.  Every
random draw flows through an explicitly coordinated RngStream, which is what
makes episodes bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .network import CrmConfig, TrafficSource
from .scheduling import SchedulerPolicy

# Eigenvalues of a covariance may dip this far below zero before the matrix
# is rejected; anything in [-PSD_CLIP, 0) is clipped to zero.
PSD_CLIP = 1e-12


def _array(value, name: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be numeric, got {value!r}") from None
    arr = np.atleast_2d(arr) if ndim == 2 else np.atleast_1d(arr)
    if arr.ndim != ndim:
        what = "matrix" if ndim == 2 else "vector"
        raise ConfigurationError(f"{name} must be a {what}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"{name} must be finite, got {arr.tolist()}")
    return arr


def as_matrix(value, name: str) -> np.ndarray:
    """Coerce a scalar or nested sequence to a finite 2-D float array."""
    return _array(value, name, 2)


def as_vector(value, name: str) -> np.ndarray:
    """Coerce a scalar or sequence to a finite 1-D float array."""
    return _array(value, name, 1)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def check_symmetric_psd(mat: np.ndarray, name: str) -> None:
    if mat.shape[0] != mat.shape[1]:
        raise ConfigurationError(f"{name} must be square, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ConfigurationError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if eigs.min(initial=0.0) < -PSD_CLIP * max(1.0, abs(eigs).max(initial=0.0)):
        raise ConfigurationError(f"{name} must be positive semi-definite, eigenvalues {eigs}")


def check_symmetric_pd(mat: np.ndarray, name: str) -> None:
    check_symmetric_psd(mat, name)
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if eigs.min() <= 0.0:
        raise ConfigurationError(f"{name} must be positive definite, eigenvalues {eigs}")


def psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix with small-eigenvalue clipping."""
    cov = 0.5 * (cov + cov.T)
    eigval, eigvec = np.linalg.eigh(cov)
    if eigval.min(initial=0.0) < -PSD_CLIP * max(1.0, abs(eigval).max(initial=0.0)):
        raise ConfigurationError(f"covariance is not PSD, eigenvalues {eigval}")
    eigval = np.clip(eigval, 0.0, None)
    return (eigvec * np.sqrt(eigval)) @ eigvec.T


# numpy's SeedSequence (O'Neill's hashmix over a 4-word pool) and PCG64
# (128-bit LCG, XSL-RR output), whose streams NEP 19 keeps stable.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1
# generate_state(4, uint64) hashes the pool, cycled twice: word t is
# ((pool[t % 4] ^ XOR[t]) * MULT[t]) mod 2^32, then xorshifted
_STATE_XOR = np.array([_INIT_B * pow(_MULT_B, t, 1 << 32) & _M32
                       for t in range(2 * _POOL)], dtype=np.uint64)
_STATE_MULT = _STATE_XOR * _MULT_B & _M32
# The 20 limb products of init * M^(k+1) + inc * S_(k+2) that land below
# 2^128, grouped by their 32-bit column: (init or inc limb, constant limb).
_PAIRS = [(4 * o + i, 4 * o + col - i) for col in range(4) for i in range(col + 1)
          for o in range(2)]
_PAIR_X = [x for x, _ in _PAIRS]
_PAIR_C = [c for _, c in _PAIRS]
_COLUMNS = [slice(0, 2), slice(2, 6), slice(6, 12), slice(12, 20)]


def _seed_words(value: int) -> list[int]:
    """A non-negative integer as little-endian 32-bit words (0 is one word)."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _hashmix(value: int, hc: int) -> tuple[int, int]:
    """One hashmix step; returns the mixed word and the next hash constant."""
    nxt = hc * _MULT_A & _M32
    value = (value ^ hc) * nxt & _M32
    return value ^ (value >> 16), nxt


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> 16)


def _absorb(pool: list[int], hc: int, words) -> int:
    """Mix entropy words past the pool size into every pool word."""
    for word in words:
        for dst in range(_POOL):
            h, hc = _hashmix(word, hc)
            pool[dst] = _mix(pool[dst], h)
    return hc


@lru_cache(maxsize=16)
def _seed_pool(run: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool and hash constant after the run entropy words."""
    hc = _INIT_A
    pool = []
    for i in range(_POOL):
        value, hc = _hashmix(run[i] if i < len(run) else 0, hc)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h, hc = _hashmix(pool[src], hc)
                pool[dst] = _mix(pool[dst], h)
    hc = _absorb(pool, hc, run[_POOL:])
    return tuple(pool), hc


@lru_cache(maxsize=16)
def _word_constants(hc: int, n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """The hashmix constants of the next n_words words, one row per word."""
    xors, mults = [], []
    for _ in range(n_words * _POOL):
        xors.append(hc)
        hc = hc * _MULT_A & _M32
        mults.append(hc)
    shape = (n_words, _POOL)
    return (_frozen_words(xors).reshape(shape), _frozen_words(mults).reshape(shape))


def _frozen_words(values) -> np.ndarray:
    """A read-only uint64 copy, safe to hand out from a cache."""
    arr = np.array(values, dtype=np.uint64)
    arr.flags.writeable = False
    return arr


def _limbs(value: int) -> list[int]:
    return [(value >> (32 * i)) & _M32 for i in range(4)]


@lru_cache(maxsize=8)
def _jump_limbs(count: int) -> np.ndarray:
    """Limbs of M^(k+1) and S_(k+2) = 1 + M + ... + M^(k+1) for k = 1..count,
    as the constant factors of _PAIRS, shape (pair, 1, k).

    After seeding from (init, inc), PCG64's k-th output comes from the state
    init * M^(k+1) + inc * S_(k+2) mod 2^128.
    """
    rows = []
    power, total = _PCG_MULT, 1 + _PCG_MULT
    for _ in range(count):
        power = power * _PCG_MULT & _M128
        total = (total + power) & _M128
        rows.append(_limbs(power) + _limbs(total))
    return _frozen_words(np.array(rows, dtype=np.uint64)[:, _PAIR_C].T[:, None, :])


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream addressed by (master_seed, coordinates).

    Identical coordinates yield identical draw sequences; distinct coordinates
    yield statistically independent streams (numpy SeedSequence spawning).
    """

    master_seed: int
    coords: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.coords)
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, *extra: int) -> "RngStream":
        return RngStream(self.master_seed, self.coords + tuple(map(int, extra)))

    def uniforms(self, children, count: int) -> np.ndarray:
        """The first `count` uniforms of many child streams at once.

        Row i equals ``self.child(*children[i]).generator().random(count)``
        bit for bit: SeedSequence mixing, PCG64 seeding and output are
        rebuilt on uint64 arrays of 32-bit words.  The words this stream
        shares with every child are mixed once, in Python integers.  Every
        child has the same number of coordinates, each in [0, 2**32), so
        that it is one word.
        """
        try:
            keys = np.array(children, dtype=np.int64)
        except OverflowError:
            raise ValueError("child coordinates must lie in [0, 2**32)") from None
        if keys.ndim != 2:
            raise ValueError(f"children must be equal-length tuples, got shape {keys.shape}")
        if ((keys < 0) | (keys > _M32)).any():
            raise ValueError("child coordinates must lie in [0, 2**32)")
        n, n_words = keys.shape

        # SeedSequence: the run entropy is zero-padded to the pool size when
        # there is a spawn key; the spawn key's words are then absorbed
        run = _seed_words(int(self.master_seed))
        if (self.coords or n_words) and len(run) < _POOL:
            run += [0] * (_POOL - len(run))
        pool_words, hc = _seed_pool(tuple(run))
        pool_words = list(pool_words)
        hc = _absorb(pool_words, hc, [w for c in self.coords for w in _seed_words(int(c))])
        pool = np.array(pool_words, dtype=np.uint64)
        xors, mults = _word_constants(hc, n_words)
        for word, xor, mult in zip(keys.astype(np.uint64).T, xors, mults):
            h = (word[:, None] ^ xor) * mult & _M32
            pool = _mix(pool, h ^ (h >> 16))
        pool = np.broadcast_to(pool, (n, _POOL))
        state = (pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_XOR) * _STATE_MULT & _M32
        state ^= state >> 16

        # PCG64 srandom(init, seq) with 64-bit words s_j = w_2j | w_2j+1 << 32,
        # init = s0:s1 and seq = s2:s3, as little-endian 32-bit limbs;
        # inc = 2 seq + 1
        seq = state[:, [6, 7, 4, 5]]
        inc = (seq << 1) & _M32
        inc[:, 0] |= 1
        inc[:, 1:] |= seq[:, :3] >> 31
        limbs = np.concatenate([state[:, [2, 3, 0, 1]], inc], axis=1)

        # the k-th state: column sums of 32-bit halves, then carries
        prods = limbs.T[_PAIR_X, :, None] * _jump_limbs(count)
        hi = prods[:_COLUMNS[2].stop] >> 32
        prods &= _M32
        cols = [prods[c].sum(axis=0) for c in _COLUMNS]
        for c in range(1, 4):
            cols[c] += hi[_COLUMNS[c - 1]].sum(axis=0) + (cols[c - 1] >> 32)
        r0, r1, r2, r3 = (col & _M32 for col in cols)

        # XSL-RR output, then the double (x >> 11) * 2^-53
        x = ((r3 << 32) | r2) ^ ((r1 << 32) | r0)
        rot = r3 >> 26
        out = (x >> rot) | (x << ((64 - rot) & 63))
        return (out >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)


@dataclass(frozen=True, eq=False)
class PlantModel:
    """Discrete-time linear plant x+ = A x + B u + w at its own sampling scale.

    `period` and `phase` place the plant on the global tick grid: the loop
    samples, schedules and actuates at ticks phase, phase+period,
    phase+2*period, ...  The default phase 0 synchronizes all loops of equal
    period on the same contention instants.
    """

    A: np.ndarray
    B: np.ndarray
    Rw: np.ndarray
    R0: np.ndarray
    x0_mean: Optional[np.ndarray] = None
    period: int = 1
    phase: int = 0

    def __post_init__(self):
        object.__setattr__(self, "A", _freeze(as_matrix(self.A, "A")))
        object.__setattr__(self, "B", _freeze(as_matrix(self.B, "B")))
        object.__setattr__(self, "Rw", _freeze(as_matrix(self.Rw, "Rw")))
        object.__setattr__(self, "R0", _freeze(as_matrix(self.R0, "R0")))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigurationError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise ConfigurationError(
                f"B must have {n} rows to match A, got {self.B.shape}"
            )
        if self.Rw.shape != (n, n) or self.R0.shape != (n, n):
            raise ConfigurationError("Rw and R0 must be n x n")
        check_symmetric_psd(self.Rw, "Rw")
        check_symmetric_psd(self.R0, "R0")
        mean = np.zeros(n) if self.x0_mean is None else as_vector(self.x0_mean, "x0_mean")
        if mean.shape != (n,):
            raise ConfigurationError(f"x0_mean must have length {n}")
        object.__setattr__(self, "x0_mean", _freeze(mean))
        if int(self.period) != self.period or self.period < 1:
            raise ConfigurationError(f"period must be a positive integer, got {self.period}")
        object.__setattr__(self, "period", int(self.period))
        if int(self.phase) != self.phase or not 0 <= self.phase < self.period:
            raise ConfigurationError(
                f"phase must be an integer in [0, period), got {self.phase}"
            )
        object.__setattr__(self, "phase", int(self.phase))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True, eq=False)
class LoopConfig:
    """One control loop: plant, scheduler policy, horizon and cost weights."""

    plant: PlantModel
    scheduler: SchedulerPolicy
    horizon: int
    Q0: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    net_penalty: float = 0.0

    def __post_init__(self):
        if int(self.horizon) != self.horizon or self.horizon < 1:
            raise ConfigurationError(f"horizon must be a positive integer, got {self.horizon}")
        object.__setattr__(self, "horizon", int(self.horizon))
        n, m = self.plant.n, self.plant.m
        if self.scheduler.kind == "halfline" and n != 1:
            raise ConfigurationError(
                f"half-line scheduling is defined for scalar states only, got n = {n}",
                field="scheduler")
        q0 = as_matrix(self.Q0, "Q0")
        q1 = as_matrix(self.Q1, "Q1")
        q2 = as_matrix(self.Q2, "Q2")
        if q0.shape != (n, n) or q1.shape != (n, n):
            raise ConfigurationError("Q0 and Q1 must be n x n")
        if q2.shape != (m, m):
            raise ConfigurationError("Q2 must be m x m")
        check_symmetric_psd(q0, "Q0")
        check_symmetric_psd(q1, "Q1")
        check_symmetric_pd(q2, "Q2")
        object.__setattr__(self, "Q0", _freeze(q0))
        object.__setattr__(self, "Q1", _freeze(q1))
        object.__setattr__(self, "Q2", _freeze(q2))
        if self.net_penalty < 0.0:
            raise ConfigurationError(f"net_penalty must be >= 0, got {self.net_penalty}")


@dataclass(frozen=True, eq=False)
class NetworkScenario:
    """A set of loops plus exogenous sources contending through one CRM."""

    loops: tuple[LoopConfig, ...]
    crm: CrmConfig
    sources: tuple[TrafficSource, ...] = ()
    global_horizon: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "loops", tuple(self.loops))
        object.__setattr__(self, "sources", tuple(self.sources))
        if not self.loops:
            raise ConfigurationError("scenario needs at least one loop")
        needed = max(lc.plant.phase + lc.horizon * lc.plant.period for lc in self.loops)
        horizon = needed if self.global_horizon is None else int(self.global_horizon)
        if horizon < needed:
            raise ConfigurationError(
                f"global_horizon {horizon} cannot contain the slowest loop "
                f"(needs {needed} ticks)"
            )
        object.__setattr__(self, "global_horizon", horizon)
