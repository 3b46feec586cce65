"""Plant models, loop/scenario configuration and seeded random-number
streams.

All configuration types are immutable after construction (arrays are frozen),
so scenarios can be shared freely across concurrent episode workers; each
checks its matrices here and its scalars by the one rule of `errors`.  Every
random draw flows through an explicitly coordinated RngStream, one numpy
stream per (master seed, coordinates), which makes episodes bit-reproducible.
The engine draws each episode from three streams, its noise, its traffic and
its contention, keyed and laid out as `sim._Layout` states, and seeds those
of a whole chunk of episodes at once: `pcg64_states` computes the PCG64
state numpy's SeedSequence gives each spawn key, and the engine checks the
first of each chunk and role against `RngStream.generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import _NONNEGATIVE, ConfigurationError, _count, _integer, _real
from .network import CrmConfig, TrafficSource
from .scheduling import SchedulerPolicy

# Eigenvalues of a covariance may dip this far below zero before the matrix
# is rejected; anything in [-PSD_CLIP, 0) is clipped to zero.
PSD_CLIP = 1e-12


def _array(value, name: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be numeric, got {value!r}", field=name) from None
    arr = np.atleast_2d(arr) if ndim == 2 else np.atleast_1d(arr)
    if arr.ndim != ndim:
        what = ("vector", "matrix", "stack of matrices")[ndim - 1]
        raise ConfigurationError(f"{name} must be a {what}, got shape {arr.shape}", field=name)
    if not np.isfinite(arr).all():
        raise ConfigurationError(f"{name} must be finite, got {arr.tolist()}", field=name)
    return arr


def as_matrix(value, name: str) -> np.ndarray:
    """Coerce a scalar or nested sequence to a finite 2-D float array; a
    bad value raises a ConfigurationError whose `field` is `name`."""
    return _array(value, name, 2)


def as_vector(value, name: str) -> np.ndarray:
    """Coerce a scalar or sequence to a finite 1-D float array."""
    return _array(value, name, 1)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def check_symmetric_psd(mat: np.ndarray, name: str, definite: bool = False) -> None:
    """Reject a matrix that is not symmetric positive semi-definite, or not
    positive definite if `definite` is set, with `name` as the field.

    `mat` may also be a (P, k, k) stack, checked in one pass: each matrix
    is judged at the scale of its own eigenvalues, and an error shows the
    eigenvalues of the first that fails.
    """
    if mat.shape[-1] != mat.shape[-2]:
        raise ConfigurationError(f"{name} must be square, got shape {mat.shape}", field=name)
    mat_t, scalar = mat.swapaxes(-1, -2), mat.shape[-1] == 1
    # np.allclose(mat, mat_t, atol=1e-10) on finite values, without its
    # overhead; a 1 x 1 matrix is symmetric
    if not scalar and not (abs(mat - mat_t) <= 1e-10 + 1e-5 * abs(mat_t)).all():
        raise ConfigurationError(f"{name} must be symmetric", field=name)
    # an entry past half the largest float symmetrizes to inf: the engine's
    # finiteness check locates that failure, so numpy need not warn of it
    with np.errstate(over="ignore"):
        sym = 0.5 * (mat + mat_t)
    # a 1 x 1 matrix is its one eigenvalue, which eigvalsh returns as it is
    eigs = np.atleast_2d(sym[..., 0] if scalar else np.linalg.eigvalsh(sym))
    scale = np.maximum(1.0, abs(eigs).max(axis=-1, initial=0.0))
    # a 0 x 0 matrix is not positive definite: no loop runs without an input
    pd = (eigs > 0.0).all(axis=-1) & (eigs.shape[-1] > 0)
    for bad, what in ((eigs.min(axis=-1, initial=0.0) < -PSD_CLIP * scale, "semi-definite"),
                      (definite & ~pd, "definite")):
        if bad.any():
            raise ConfigurationError(f"{name} must be positive {what}, "
                                     f"eigenvalues {eigs[bad.argmax()]}", field=name)


def lq_matrices(A, B, Q0, Q1, Q2) -> tuple[np.ndarray, ...]:
    """The dynamics A, B and the LQ weights Q0, Q1, Q2 as float arrays.

    A must be n x n, B n x m, Q0 and Q1 n x n and Q2 m x m, all finite,
    Q0 and Q1 positive semi-definite and Q2 positive definite; a bad one
    raises a ConfigurationError whose `field` names it.  If A is 3-D, the
    five are a stack of P problems of equal n and m, as (P, n, n),
    (P, n, m) and (P, m, m) arrays.  Either form is checked in one pass,
    each problem at its own PSD scale (`check_symmetric_psd`), and
    returned in its form.
    """
    try:
        ndim = 3 if np.ndim(A) == 3 else 2
    except ValueError:
        # a ragged A, which _array rejects and names
        ndim = 2
    A, B, Q0, Q1, Q2 = (_array(value, name, ndim) for name, value in
                        (("A", A), ("B", B), ("Q0", Q0), ("Q1", Q1), ("Q2", Q2)))
    n, m = A.shape[-1], B.shape[-1]
    if A.shape[-2] != n:
        raise ConfigurationError(f"A must be square, got shape {A.shape}", field="A")
    for name, mat, shape in (("B", B, (n, m)), ("Q0", Q0, (n, n)), ("Q1", Q1, (n, n)),
                             ("Q2", Q2, (m, m))):
        want = A.shape[:-2] + shape
        if mat.shape != want:
            raise ConfigurationError(f"{name} must be {' x '.join(map(str, want))} "
                                     f"(n = {n}, m = {m}), got shape {mat.shape}", field=name)
    for name, mat in (("Q0", Q0), ("Q1", Q1), ("Q2", Q2)):
        check_symmetric_psd(mat, name, definite=name == "Q2")
    return A, B, Q0, Q1, Q2


def psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix with small-eigenvalue clipping."""
    with np.errstate(over="ignore"):   # as in check_symmetric_psd
        cov = 0.5 * (cov + cov.T)
    eigval, eigvec = np.linalg.eigh(cov)
    if eigval.min(initial=0.0) < -PSD_CLIP * max(1.0, abs(eigval).max(initial=0.0)):
        raise ConfigurationError(f"covariance is not PSD, eigenvalues {eigval}")
    eigval = np.clip(eigval, 0.0, None)
    return (eigvec * np.sqrt(eigval)) @ eigvec.T


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream addressed by (master_seed, coordinates).

    Identical coordinates yield identical draw sequences; distinct coordinates
    yield statistically independent streams (numpy SeedSequence spawning).
    `generator` builds one stream the way numpy does, and is the reference
    for `pcg64_states`, which gives the starting states of many streams at
    once; the engine seeds its streams that way and checks the first of each
    chunk and role against this one.
    """

    master_seed: int
    coords: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.coords)
        return np.random.Generator(np.random.PCG64(seq))


# numpy's SeedSequence constants (pool of 4 words) and PCG64's multiplier;
# NEP 19 keeps the seeding algorithms fixed across numpy releases
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _words(value: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: 32-bit words, lowest first."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _constants(h: int, mult: int, calls: int) -> list[int]:
    """The hash constants of `calls` hashing calls from h: call i XORs in
    the i-th and multiplies by the next, each the last one times `mult`."""
    out = [h]
    for _ in range(calls):
        out.append(out[-1] * mult & _MASK32)
    return out


# The hashing and mixing steps run on Python ints and uint32 arrays alike;
# the constants stay masked Python ints, since numpy scalars warn on overflow.
def _hash(value, xor, mult):
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def pcg64_states(seed: int, keys) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that `RngStream(seed, key).generator()` starts
    from, for each spawn key of non-negative ints in `keys`, all keys at
    once.  `keys` is a sequence of keys, which may differ in length, or an
    (n, K) int array of them, each padded with -1 past its end.

    It runs numpy's SeedSequence for all rows at once: the seed's 32-bit
    words, zero-padded to the pool size, fill the pool and are mixed across
    it, the same for every row; every further word, the seed's and then the
    key's, is hashed with four constants and mixed into the four pool words,
    one array step per word position.  Then `generate_state(4, uint64)`,
    and PCG64's two-step `srandom` on 128-bit Python ints.
    """
    if not isinstance(keys, np.ndarray):
        width = max(map(len, keys))
        keys = [[*key, *[-1] * (width - len(key))] for key in keys]
    try:
        keys = np.array(keys, dtype=np.int64).reshape(len(keys), -1)
    except OverflowError:
        # entries past int64 are split as Python ints
        keys = np.array(keys, dtype=object).reshape(len(keys), -1)
    n, valid = len(keys), keys >= 0
    # without a key numpy does not pad, but fills the pool with the hash of 0
    # all the same
    entropy = _words(seed)
    entropy += [0] * (_POOL - len(entropy))
    # each row's further words, left-aligned: the seed's past the pool, then
    # each key entry's in turn, split as numpy splits it (0 is one word); a
    # row has `lengths` of them
    levels, rest = [], np.where(valid, keys, 0)
    while not levels or valid.any():
        levels.append(((rest & _MASK32).astype(np.uint32), valid))
        rest = rest >> 32
        valid = rest > 0
    words, present = (np.stack(arrays).transpose(2, 0, 1).reshape(-1, n)
                      for arrays in zip(*levels))
    extra = len(entropy) - _POOL
    words = np.concatenate((np.repeat(np.array(entropy[_POOL:], dtype=np.uint32)[:, None],
                                      n, axis=1), words))
    present = np.concatenate((np.ones((extra, n), dtype=bool), present))
    lengths = present.sum(axis=0)
    if not present.all():
        words = np.take_along_axis(words, np.argsort(~present, axis=0, kind="stable"), axis=0)
    # one hashing call per pool word, one per ordered pair of pool words,
    # then four per further word
    c = _constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * len(words))
    pool = [_hash(entropy[i], c[i], c[i + 1]) for i in range(_POOL)]
    i = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], c[i], c[i + 1]))
                i += 1
    c = np.array(c[i:], dtype=np.uint32)
    hashed = _hash(words[:, None], c[:-1].reshape(-1, _POOL, 1), c[1:].reshape(-1, _POOL, 1))
    pool = np.repeat(np.array(pool, dtype=np.uint32)[:, None], n, axis=1)
    for j, row in enumerate(hashed):
        pool = np.where(j < lengths, _mix(pool, row), pool)
    # generate_state(4, uint64): eight words from the pool, twice round,
    # paired little-endian into seed = s0 << 64 | s1, sequence = i0 << 64 | i1
    c = np.array(_constants(_INIT_B, _MULT_B, 2 * _POOL), dtype=np.uint32)[:, None]
    state = _hash(pool, c[:-1].reshape(2, _POOL, 1), c[1:].reshape(2, _POOL, 1))
    state = state.reshape(2 * _POOL, n).astype(np.uint64)
    s0, s1, i0, i1 = (state[0::2] | state[1::2] << 32).astype(object)
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    start = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    return list(zip(start.tolist(), inc.tolist()))


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
        for name in ("A", "B", "Rw", "R0"):
            object.__setattr__(self, name, _freeze(as_matrix(getattr(self, name), name)))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigurationError(f"A must be square, got {self.A.shape}", field="A")
        if self.B.shape[0] != n:
            raise ConfigurationError(f"B must have {n} rows to match A, got {self.B.shape}",
                                     field="B")
        for name in ("Rw", "R0"):
            mat = getattr(self, name)
            if mat.shape != (n, n):
                raise ConfigurationError(f"{name} must be {n} x {n}, got shape {mat.shape}",
                                         field=name)
            check_symmetric_psd(mat, name)
        mean = np.zeros(n) if self.x0_mean is None else as_vector(self.x0_mean, "x0_mean")
        if mean.shape != (n,):
            raise ConfigurationError(f"x0_mean must have length {n}", field="x0_mean")
        object.__setattr__(self, "x0_mean", _freeze(mean))
        period = _integer(self.period, "period", "a positive integer", 1)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "phase", _integer(
            self.phase, "phase", "an integer in [0, period)", 0, period - 1))

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
        object.__setattr__(self, "horizon",
                           _count(self.horizon, "horizon", "a positive integer"))
        n = self.plant.n
        if self.scheduler.kind == "halfline" and n != 1:
            raise ConfigurationError(
                f"half-line scheduling is defined for scalar states only, got n = {n}",
                field="scheduler")
        weights = lq_matrices(self.plant.A, self.plant.B, self.Q0, self.Q1, self.Q2)[2:]
        for name, mat in zip(("Q0", "Q1", "Q2"), weights):
            object.__setattr__(self, name, _freeze(mat))
        object.__setattr__(self, "net_penalty",
                           _real(self.net_penalty, "net_penalty", *_NONNEGATIVE))


@dataclass(frozen=True, eq=False)
class NetworkScenario:
    """A set of loops plus exogenous sources contending through one CRM."""

    loops: tuple[LoopConfig, ...]
    crm: CrmConfig
    sources: tuple[TrafficSource, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "loops", tuple(self.loops))
        object.__setattr__(self, "sources", tuple(self.sources))
        if not self.loops:
            raise ConfigurationError("scenario needs at least one loop")
