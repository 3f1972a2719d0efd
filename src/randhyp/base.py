"""Ergodic base systems: two-sided Bernoulli and Markov shifts, circle
rotations, and the trivial one-point base.

A base state is a point of the driving system together with the shift map
and its inverse.  Symbol sequences are realized lazily from a counter-based
hash keyed by (seed, absolute position), so stepping backwards needs no
stored history and every symbol is a pure function of (seed, position).
"""

from bisect import bisect_right

import numpy as np

from ._record import Record, field
from .errors import (ConfigurationError, ContractError,
                     UnsupportedOperationError, WindowLimitError)

# Positions a single state may address on either side of its origin.
WINDOW_LIMIT = 1_000_000

# Stream tags keep independent random uses (symbols, angles, sub-seeds,
# manifold points) from colliding on the same hash counter.
STREAM_SYMBOL = 0x53594D42
STREAM_ANGLE = 0x414E474C
STREAM_SAMPLE = 0x53554253
STREAM_POINT = 0x504F494E

_U64 = np.uint64
_SHIFT_30 = _U64(30)
_SHIFT_27 = _U64(27)
_SHIFT_31 = _U64(31)
_SHIFT_11 = _U64(11)
_C1 = _U64(0x9E3779B97F4A7C15)
_C2 = _U64(0xBF58476D1CE4E5B9)
_C3 = _U64(0x94D049BB133111EB)
_TO_UNIT = 2.0 ** -53
_MASK = 0xFFFFFFFFFFFFFFFF


def as_floats(values, name, depth=1):
    """`values`, a number (`depth` 0), a list of numbers (1) or a list of
    such lists (2), as a float or nested tuples of floats."""
    kind = ("a number", "a list of numbers", "a list of lists of numbers")[depth]

    def convert(v, d):
        if isinstance(v, (list, tuple, np.ndarray)) != (d > 0):
            raise ConfigurationError(f"{name} must be {kind}")
        return tuple(convert(u, d - 1) for u in v) if d else float(v)
    return convert(values, depth)


def _mix64(z):
    """SplitMix64 finalizer on uint64 scalars or arrays (wraps mod 2^64)."""
    z = z + _C1
    z = (z ^ (z >> _SHIFT_30)) * _C2
    z = (z ^ (z >> _SHIFT_27)) * _C3
    return z ^ (z >> _SHIFT_31)


def _uniforms(seed, stream, positions):
    """Deterministic uniforms in [0,1) for int64 positions.  The seed is an
    int or a uint64 array; seeds and positions broadcast together, and a
    scalar seed and position give one numpy float."""
    ks = np.asarray(positions, dtype=np.int64).view(_U64)
    with np.errstate(over="ignore"):
        h = _mix64(_mix64(_U64(seed & _MASK) ^ _U64(stream)) + _mix64(ks))
    return (h >> _SHIFT_11).astype(np.float64) * _TO_UNIT


def derive_seed(seed, stream, index):
    """Child seed for sample `index`, independent across indices; a uint64
    array of indices gives the uint64 array of their child seeds."""
    with np.errstate(over="ignore"):
        h = _mix64(_mix64(_U64(seed & _MASK) ^ _U64(stream)) + _U64(index & _MASK))
    return h if isinstance(h, np.ndarray) else int(h)


def _stationary_distribution(transition):
    """Left fixed vector of a stochastic matrix, normalized to sum 1."""
    p = np.asarray(transition, dtype=np.float64)
    n = p.shape[0]
    a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return np.clip(pi, 0.0, None) / np.sum(np.clip(pi, 0.0, None))


def _cdf(weights):
    """Cumulative sums along the last axis, ending at exactly 1.0: a float
    cumsum can end below 1 (0.9999999999999999 for [0.1] * 10), and a
    uniform past its end would draw the symbol `alphabet_size`."""
    c = np.cumsum(weights, axis=-1)
    c[..., -1] = 1.0
    return c


def _symbol_tables(spec):
    """The stationary CDF of a shift base and, for a Markov base, the CDF rows
    of the forward and of the time-reversed chain, as lists for `bisect`."""
    pi = np.asarray(spec.stationary, dtype=np.float64)
    if spec.kind != "markov":
        return _cdf(pi), None, None
    p = np.asarray(spec.transition, dtype=np.float64)
    rev = (p.T * pi[None, :]) / pi[:, None]
    rev = rev / rev.sum(axis=1, keepdims=True)
    return _cdf(pi), _cdf(p).tolist(), _cdf(rev).tolist()


def _is_irreducible(transition):
    p = np.asarray(transition) > 0.0
    n = p.shape[0]
    reach = np.eye(n, dtype=bool) | p
    for _ in range(n):
        reach = reach | (reach @ reach)
    return bool(reach.all())


class BaseSystemSpec(Record):
    """Description of one driving system.

    kind is a key of BASE_CATALOG, whose factories build each kind.  Bernoulli
    carries a probability vector, Markov a stochastic transition matrix
    (must be irreducible), rotation a rotation number in (0,1) whose
    irrationality is the caller's responsibility (not checkable at runtime).
    """

    kind: str
    alphabet_size: int = 1
    probabilities: tuple = None
    transition: tuple = None
    rotation_number: float = None
    stationary: tuple = field(default=None, compare=False)
    tables: tuple = field(default=None, compare=False, repr=False, init=False)

    def __post_init__(self):
        errors = self.validation_errors()
        if errors:
            raise ConfigurationError(errors)
        if self.kind == "markov" and self.stationary is None:
            pi = _stationary_distribution(self.transition)
            object.__setattr__(self, "stationary", tuple(float(v) for v in pi))
        if self.kind == "bernoulli" and self.stationary is None:
            object.__setattr__(self, "stationary", tuple(self.probabilities))
        if self.stationary is not None:     # CDF tables, built once per spec
            object.__setattr__(self, "tables", _symbol_tables(self))

    def validation_errors(self):
        errs = []
        if self.kind not in BASE_CATALOG:
            return [f"unknown base kind {self.kind!r}"]
        if self.kind == "bernoulli":
            p = self.probabilities
            if p is None or len(p) != self.alphabet_size:
                errs.append("probabilities must have length alphabet_size")
            else:
                if not all(v >= 0 for v in p):
                    errs.append("probabilities must be nonnegative")
                if not abs(sum(p) - 1.0) <= 1e-12:
                    errs.append("probabilities must sum to 1 within 1e-12")
        elif self.kind == "markov":
            t = self.transition
            if t is None or len(t) != self.alphabet_size or any(len(r) != self.alphabet_size for r in t):
                errs.append("transition must be a square alphabet_size matrix")
            else:
                for i, row in enumerate(t):
                    if not all(v >= 0 for v in row):
                        errs.append(f"transition row {i} has negative entries")
                    if not abs(sum(row) - 1.0) <= 1e-12:
                        errs.append(f"transition row {i} must sum to 1 within 1e-12")
                if not errs and not _is_irreducible(t):
                    errs.append("transition matrix must be irreducible")
        elif self.kind == "rotation":
            r = self.rotation_number
            if r is None or not (0.0 < r < 1.0):
                errs.append("rotation_number must lie in (0, 1)")
        return errs

    @staticmethod
    def bernoulli(probabilities):
        p = as_floats(probabilities, "probabilities")
        return BaseSystemSpec(kind="bernoulli", alphabet_size=len(p), probabilities=p)

    @staticmethod
    def markov(transition):
        t = as_floats(transition, "transition", 2)
        return BaseSystemSpec(kind="markov", alphabet_size=len(t), transition=t)

    @staticmethod
    def rotation(rotation_number):
        r = as_floats(rotation_number, "rotation_number", 0)
        return BaseSystemSpec(kind="rotation", rotation_number=r)

    @staticmethod
    def dirac():
        return BaseSystemSpec(kind="dirac")

    def to_json_dict(self):
        out = {"kind": self.kind, "alphabet_size": self.alphabet_size}
        if self.probabilities is not None:
            out["probabilities"] = list(self.probabilities)
        if self.transition is not None:
            out["transition"] = [list(r) for r in self.transition]
        if self.rotation_number is not None:
            out["rotation_number"] = self.rotation_number
        return out


# Base kinds by name; a config's base object holds the factory's keyword
# parameters, and the factory derives alphabet_size.
BASE_CATALOG = {kind: getattr(BaseSystemSpec, kind)
                for kind in ("bernoulli", "markov", "rotation", "dirac")}


class _BernoulliSource:
    """Symbols i.i.d. per position; pure formula, no state needed.  The seed
    is an int, or a column of seeds read against rows of positions."""

    def __init__(self, seed, cdf):
        self.seed = seed
        self.cdf = cdf

    def symbols(self, positions):
        us = _uniforms(self.seed, STREAM_SYMBOL, positions)
        return np.searchsorted(self.cdf, us, side="right").astype(np.int64)

    def window(self, lo, hi):
        return self.symbols(np.arange(lo, hi, dtype=np.int64))


class _MarkovSource:
    """Stationary two-sided Markov chain.

    Position 0 is drawn from the stationary vector; positions k > 0 follow
    the forward transition matrix and k < 0 the time-reversed matrix, so the
    two-sided law is the stationary chain.  The realized chain is kept as
    two lists growing away from position 0, filled in blocks whose
    uniforms are drawn in one call.  `u0` is the seed's symbol uniform at
    position 0.
    """

    _BLOCK = 1 << 16

    def __init__(self, seed, spec, u0):
        self.seed = seed
        cdf, self.fwd_cdf, self.rev_cdf = spec.tables
        self._fwd = [bisect_right(cdf, u0)]     # symbols at positions 0, 1, 2, ...
        self._back = []         # symbols at positions -1, -2, ...

    def _fill(self, chain, sign, cdf, count):
        """Grow `chain` to `count` entries.

        Forward entry j is position j; backward entry j is position -1 - j.
        """
        while len(chain) < count:
            lo = len(chain)
            hi = min(count, lo + self._BLOCK)
            js = np.arange(lo, hi, dtype=np.int64)
            pos = js if sign > 0 else -js - 1
            prev = chain[-1] if chain else self._fwd[0]
            for u in _uniforms(self.seed, STREAM_SYMBOL, pos).tolist():
                prev = bisect_right(cdf[prev], u)
                chain.append(prev)

    def window(self, lo, hi):
        if hi > len(self._fwd):
            self._fill(self._fwd, +1, self.fwd_cdf, hi)
        if -lo > len(self._back):
            self._fill(self._back, -1, self.rev_cdf, -lo)
        if lo >= 0:
            syms = self._fwd[lo:hi]
        elif hi <= 0:
            syms = self._back[-hi:-lo][::-1]
        else:
            syms = self._back[:-lo][::-1] + self._fwd[:hi]
        return np.array(syms, dtype=np.int64)


class _PeriodicSource:
    """Explicit periodic word, used by the periodic-orbit enumerator."""

    def __init__(self, word):
        self.word = tuple(int(s) for s in word)

    def window(self, lo, hi):
        word = np.array(self.word, dtype=np.int64)
        return word[np.arange(lo, hi) % len(word)]


class BaseState:
    """A point of the driving system.

    Immutable except for a realized Markov chain, which only grows, so a
    state is not for sharing between threads; threaded sweeps read
    parameter arrays built beforehand.  Shifted copies share the underlying
    source, so queries agree across the whole orbit.
    """

    __slots__ = ("spec", "seed", "origin_offset", "_source", "_angle0")

    def __init__(self, spec, seed, origin_offset=0, source=None, angle0=0.0):
        self.spec = spec
        self.seed = seed
        self.origin_offset = origin_offset
        self._angle0 = angle0
        if source is None and spec.kind == "markov":
            source = _MarkovSource(seed, spec, float(_uniforms(seed, STREAM_SYMBOL, 0)))
        elif source is None and spec.kind == "bernoulli" and spec.alphabet_size > 1:
            source = _BernoulliSource(seed, spec.tables[0])
        elif source is None and spec.kind != "rotation":
            source = _PeriodicSource((0,))   # one-point base, one-letter alphabet
        self._source = source

    @property
    def kind(self):
        return self.spec.kind

    @property
    def angle(self):
        """Current angle of a rotation state (recomputed, hence exactly invertible)."""
        return float(rotation_angles([self], 0, 1)[0, 0])

    def _shifted(self, delta):
        if self.spec.kind == "dirac" or delta == 0:
            return self
        return BaseState(self.spec, self.seed, self.origin_offset + delta,
                         source=self._source, angle0=self._angle0)

    def describe(self):
        return f"{self.spec.kind}:{self.seed}@{self.origin_offset}"

    def __repr__(self):
        return f"BaseState({self.describe()})"

    def __eq__(self, other):
        if not isinstance(other, BaseState):
            return NotImplemented
        return (self.spec == other.spec and self.seed == other.seed
                and self.origin_offset == other.origin_offset
                and self._angle0 == other._angle0
                and self._source is other._source)

    def __hash__(self):
        return hash((self.spec, self.seed, self.origin_offset, self._angle0, id(self._source)))


def base_step(state):
    """One application of the shift (rotation adds the rotation number mod 1)."""
    return state._shifted(+1)


def base_inverse_step(state):
    """Inverse shift; base_step(base_inverse_step(w)) observes identically to w."""
    return state._shifted(-1)


def shift_by(state, n):
    """n-fold shift (negative n steps backwards)."""
    return state._shifted(n)


def _positions(states, lo, hi):
    """Positions lo..hi-1 relative to each state's origin, one int64 row per
    state."""
    offsets = np.array([s.origin_offset for s in states], dtype=np.int64)
    return offsets[:, None] + np.arange(lo, hi, dtype=np.int64)


def rotation_angles(states, lo, hi):
    """Angles at positions lo..hi-1 (relative) of rotation states, one row
    per state.

    (angle0 + (origin_offset + k) * rho) mod 1 is evaluated per position,
    not accumulated, so every angle is exactly invertible and a window
    agrees bit for bit with the angles of the shifted states.
    """
    if any(s.spec.kind != "rotation" for s in states):
        raise UnsupportedOperationError("angle is defined for rotation bases only")
    angle0 = np.array([s._angle0 for s in states])[:, None]
    rho = np.array([s.spec.rotation_number for s in states])[:, None]
    return (angle0 + _positions(states, lo, hi) * rho) % 1.0


def symbol_at(state, k):
    """Symbol at signed position k relative to the state's current origin."""
    return int(symbol_window(state, k, k + 1)[0])


def symbol_window(state, lo, hi):
    """Symbols at positions lo..hi-1 (relative), as an int64 array."""
    return symbol_rows([state], lo, hi)[0]


def symbol_rows(states, lo, hi):
    """Symbols at positions lo..hi-1 (relative) of each state, one int64 row
    per state.

    Bernoulli states of one spec are hashed in one call, a column of their
    seeds against the rows of positions; Markov and periodic states, and
    Bernoulli states of mixed specs, are read one at a time through their
    source's `window`.
    """
    if not len(states):
        raise ContractError("states must be nonempty")
    sources = [s._source for s in states]
    if any(src is None for src in sources):
        raise UnsupportedOperationError("rotation bases carry an angle, not symbols")
    n, starts = hi - lo, [s.origin_offset + lo for s in states]
    for a in starts:
        if a < -WINDOW_LIMIT or a + n - 1 > WINDOW_LIMIT:
            raise WindowLimitError(
                f"positions {a}..{a + n - 1} exceed the supported window of +/-{WINDOW_LIMIT}")
    if all(isinstance(src, _BernoulliSource) and src.cdf is sources[0].cdf
           for src in sources):
        seeds = np.array([src.seed & _MASK for src in sources], dtype=_U64)
        return _BernoulliSource(seeds[:, None], sources[0].cdf).symbols(
            _positions(states, lo, hi))
    return np.array([src.window(a, a + n) for src, a in zip(sources, starts)],
                    dtype=np.int64)


def sample_base(spec, seed, count):
    """count independent states distributed per the base measure.

    Deterministic in (spec, seed); sample i uses the derived child seed, so
    sampling is independent of call order and thread scheduling.  The child
    seeds, and then their first draws, are hashed in one call each.
    """
    if count < 1:
        raise ContractError("count must be >= 1")
    if spec.kind == "dirac":
        state = BaseState(spec, seed)
        return [state] * count
    subs = derive_seed(seed, STREAM_SAMPLE, np.arange(count, dtype=_U64))
    if spec.kind == "rotation":
        return [BaseState(spec, sub, 0, angle0=a) for sub, a in
                zip(subs.tolist(), _uniforms(subs, STREAM_ANGLE, 0).tolist())]
    if spec.kind == "markov":
        return [BaseState(spec, sub, 0, source=_MarkovSource(sub, spec, u)) for sub, u in
                zip(subs.tolist(), _uniforms(subs, STREAM_SYMBOL, 0).tolist())]
    return [BaseState(spec, sub, 0) for sub in subs.tolist()]


def periodic_state(alphabet_size, word):
    """State of a full shift whose symbol sequence is the repeated word."""
    word = tuple(int(s) for s in word)
    if not word or any(not (0 <= s < alphabet_size) for s in word):
        raise ConfigurationError("word symbols must lie in the alphabet")
    # spec probabilities are irrelevant for a periodic source; uniform placeholder
    spec = BaseSystemSpec(kind="bernoulli", alphabet_size=alphabet_size,
                          probabilities=tuple(1.0 / alphabet_size for _ in range(alphabet_size)))
    return BaseState(spec, seed=0, origin_offset=0, source=_PeriodicSource(word))


def random_point(seed, index, dim):
    """Deterministic point of the unit cube, for seeding fiber orbits."""
    coords = _uniforms(seed, STREAM_POINT, np.arange(index * dim, (index + 1) * dim))
    return tuple(float(c) for c in coords)
