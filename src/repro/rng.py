"""Deterministic random-number helpers with versioned derivation schemes.

Every stochastic component in the library receives its randomness through a
:class:`SeededRNG` so that any campaign, capture, or benchmark is
reproducible bit-for-bit given a seed.  Child generators are derived with
:meth:`SeededRNG.fork`, which combines the parent seed with a string label;
the stream consumed by one component is therefore independent of how much
randomness another component consumed, a property the test-suite relies on.

Versioned schemes
-----------------

*Which* function derives a child seed from ``(seed, label)`` and *which*
uniform core draws the samples is a **versioned scheme**, because changing
either re-seeds every stream in the library and silently invalidates all
previously archived campaign results.  Three schemes exist:

``sha256-v1`` (default)
    The original derivation: child seed = first 8 bytes of
    ``SHA-256(f"{seed}:{label}")``, samples drawn from
    :class:`random.Random` (Mersenne Twister).  Every golden result archived
    before the scheme registry existed was produced under this scheme, and
    it remains bit-identical to the seed implementation.

``splitmix64-v2``
    Child seeds are derived by absorbing the label bytes into the parent
    seed with splitmix64 finalizer rounds, and samples are drawn from a
    splitmix64 counter stream instead of a Mersenne Twister.  This removes
    the per-fork ``random.Random`` construction (~6.5µs each, tens of
    thousands per bench campaign) that dominated the v1 hot path — at the
    cost of producing entirely different (but equally deterministic)
    streams, pinned by their own goldens in ``repro.goldens``.

``splitmix64-batch-v3``
    The batch-drawn scheme.  Scalar derivation and the uniform core are
    bit-identical to ``splitmix64-v2`` — a v3 ``fork``/``random``/``gauss``
    reproduces the v2 value exactly — but components that opt into the
    **batch primitives** (:meth:`SeededRNG.random_array`,
    :meth:`SeededRNG.bernoulli_array`, :meth:`SeededRNG.gauss_array`) and
    the struct-of-arrays session kernel
    (:mod:`repro.core.session_kernel`) replace many labelled forks with one
    counter-stream block per participant, so campaign-level results differ
    from v2 and are pinned by this scheme's own goldens.  The blocks are
    generated with numpy when the ``repro[fast]`` extra is installed; the
    pure-stdlib fallback produces identical bits (integer mixing and the
    ``(word >> 11) * 2**-53`` conversion are exact in both).

Artifacts record the scheme that produced them; mixing schemes raises
:class:`repro.errors.RNGSchemeMismatchError` (see
:func:`require_same_scheme`).  Re-baselining results onto a new scheme is an
explicit, reviewed event: capture new goldens with
``python -m repro.goldens refresh --scheme <scheme>``.

Performance notes
-----------------

``fork`` sits on the hot path of every capture and campaign (a bench-scale
PLT run forks tens of thousands of times), so both schemes keep it cheap:

* v1 caches the hash state of its ``f"{seed}:"`` prefix once and forks by
  ``copy()``-ing that state and absorbing only the label bytes; the
  underlying :class:`random.Random` is constructed lazily on first sample
  because many forks only parent further forks and never draw;
* v2 derives the child seed with a handful of 64-bit integer mixes and
  needs no :class:`random.Random` at all — its uniform core is three
  arithmetic operations per 64-bit word;
* both schemes memoise derived child seeds per ``(instance, label)``, so
  components that re-fork the same label hash each label once.
"""

from __future__ import annotations

import hashlib
import random
from math import cos, exp, log, pi, sin, sqrt
from typing import Dict, Iterable, List, Optional, Sequence, TypeVar

from .errors import ConfigurationError, RNGDomainError, RNGSchemeMismatchError

try:  # The optional ``repro[fast]`` extra; the stdlib fallback is bit-identical.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the _np=None monkeypatch
    _np = None

T = TypeVar("T")

_DEFAULT_SEED = 0xE7E06

#: The original SHA-256 + Mersenne Twister scheme (bit-identical to the seed
#: implementation; every pre-registry archived result was produced under it).
SCHEME_SHA256_V1 = "sha256-v1"

#: The fast splitmix64 scheme (new streams, new goldens, no MT construction).
SCHEME_SPLITMIX64_V2 = "splitmix64-v2"

#: The batch-drawn scheme: scalar derivation and streams are bit-identical to
#: ``splitmix64-v2``, but components that opt into the batch primitives (the
#: session kernel, the assigner, A/B control injection, recruitment gaps) draw
#: whole counter-stream blocks per call instead of one word at a time — those
#: paths produce new streams, pinned by this scheme's own goldens.
SCHEME_SPLITMIX64_BATCH_V3 = "splitmix64-batch-v3"

#: All known schemes, in version order.
RNG_SCHEMES = (SCHEME_SHA256_V1, SCHEME_SPLITMIX64_V2, SCHEME_SPLITMIX64_BATCH_V3)

#: The scheme used when none is specified — keeps archived results valid.
DEFAULT_RNG_SCHEME = SCHEME_SHA256_V1

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_RECIP53 = 1.0 / (1 << 53)

#: Below this block size the pure-Python loop beats numpy's call overhead.
_NUMPY_MIN_BLOCK = 32


def validate_scheme(scheme: str) -> str:
    """Return ``scheme`` if it is a known RNG scheme, else raise.

    Raises:
        ConfigurationError: for unknown scheme names.
    """
    if scheme not in RNG_SCHEMES:
        raise ConfigurationError(
            f"unknown RNG scheme {scheme!r}; known schemes: {', '.join(RNG_SCHEMES)}"
        )
    return scheme


def require_same_scheme(expected: str, actual: str, context: str) -> None:
    """Raise :class:`RNGSchemeMismatchError` unless the two schemes match.

    Args:
        expected: the scheme the consuming component runs under.
        actual: the scheme the artifact was produced under.
        context: short description of what was being combined, included in
            the error message.
    """
    if expected != actual:
        raise RNGSchemeMismatchError(
            f"{context}: RNG scheme mismatch — this component runs under "
            f"{expected!r} but the artifact was produced under {actual!r}; "
            f"results from different schemes are not bit-compatible "
            f"(re-baseline explicitly via `python -m repro.goldens refresh`)"
        )


def _derive_seed_v2(seed: int, label: str) -> int:
    """v2: fold the label bytes into ``seed`` with a multiply–xor absorb.

    The label is folded 64 bits at a time (little-endian) into the running
    state with an invertible xor-multiply step (the xorshift* multiplier);
    the byte length is absorbed first so ``"ab" + "c"`` and ``"a" + "bc"``
    style reassemblies cannot collide.  Derivation only needs collision
    resistance, not avalanche: every *draw* from the resulting stream passes
    the state through the full splitmix64 finalizer, which decorrelates even
    adjacent child seeds.  This runs once per distinct (parent, label) fork,
    tens of thousands of times per campaign, so it is kept to a handful of
    integer ops per 64-bit word.
    """
    data = label.encode("utf-8")
    h = (seed + len(data) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = int.from_bytes(data, "little")
    while True:
        h = ((h ^ (value & 0xFFFFFFFFFFFFFFFF)) * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF
        value >>= 64
        if not value:
            break
    return h ^ (h >> 32)


def _counter_block(state: int, count: int) -> List[float]:
    """``count`` uniforms of the splitmix64 counter stream after ``state``.

    The stream is *counter-based*: the ``i``-th word depends only on
    ``state + i * GOLDEN``, so a block of ``n`` draws followed by a block of
    ``m`` draws is bit-identical to one block of ``n + m`` — the property
    every batch primitive and the v3 session kernel rely on.  The numpy path
    (used for blocks of :data:`_NUMPY_MIN_BLOCK` or more when the ``[fast]``
    extra is installed) performs the same wrapping uint64 arithmetic and the
    same exact ``(word >> 11) * 2**-53`` conversion, so both paths produce
    identical bits.
    """
    if _np is not None and count >= _NUMPY_MIN_BLOCK:
        states = _np.uint64(state & _M64) + _np.arange(1, count + 1, dtype=_np.uint64) * _np.uint64(_GOLDEN)
        z = (states ^ (states >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> _np.uint64(31))
        return ((z >> _np.uint64(11)).astype(_np.float64) * _RECIP53).tolist()
    out: List[float] = []
    append = out.append
    s = state & _M64
    for _ in range(count):
        s = (s + _GOLDEN) & _M64
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        append(((z ^ (z >> 31)) >> 11) * _RECIP53)
    return out


def counter_uniforms(seed: int, start: int, count: int) -> List[float]:
    """Uniforms ``start .. start + count`` of the stream seeded with ``seed``.

    The public counter-stream block primitive (v2/v3 uniform core):
    ``counter_uniforms(seed, 0, n)`` equals the first ``n`` ``random()``
    draws of ``SeededRNG(seed, scheme)`` under either splitmix scheme, and
    ``counter_uniforms(seed, t * W, W)`` is the ``t``-th ``W``-slot block —
    the addressing mode the v3 session kernel uses for its per-task slot
    blocks (see ``docs/ARCHITECTURE.md``).
    """
    if count < 0:
        raise RNGDomainError(f"counter_uniforms count must be non-negative, got {count!r}")
    return _counter_block((seed + start * _GOLDEN) & _M64, count)


class SeededRNG:
    """A seeded random source with labelled, independent child streams.

    Args:
        seed: the stream seed.
        scheme: the versioned derivation scheme (see module docstring);
            forks inherit it, so a whole campaign runs under one scheme.
    """

    __slots__ = ("seed", "scheme", "_rand", "_prefix_hash", "_fork_memo",
                 "_state", "_gauss_spare")

    def __init__(self, seed: int = _DEFAULT_SEED, scheme: str = DEFAULT_RNG_SCHEME) -> None:
        if scheme not in RNG_SCHEMES:
            validate_scheme(scheme)
        self.seed = int(seed)
        self.scheme = scheme
        self._rand: Optional[random.Random] = None
        self._prefix_hash = None
        self._fork_memo: Optional[Dict[str, int]] = None
        self._state = self.seed & _M64
        self._gauss_spare: Optional[float] = None

    @property
    def _random(self) -> random.Random:
        """The underlying v1 generator, constructed on first use."""
        rand = self._rand
        if rand is None:
            rand = self._rand = random.Random(self.seed)
        return rand

    def _next64(self) -> int:
        """v2 uniform core: the next 64-bit word of the splitmix64 stream."""
        s = (self._state + _GOLDEN) & _M64
        self._state = s
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def _randbelow(self, n: int) -> int:
        """v2: unbiased uniform integer in [0, n) via 64-bit rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        r = self._next64()
        while r >= limit:
            r = self._next64()
        return r % n

    def _child_seed(self, label: str) -> int:
        """Derive (without memoising) the child seed for ``label``."""
        if self.scheme == SCHEME_SHA256_V1:
            prefix = self._prefix_hash
            if prefix is None:
                prefix = self._prefix_hash = hashlib.sha256(f"{self.seed}:".encode("utf-8"))
            hasher = prefix.copy()
            hasher.update(label.encode("utf-8"))
            return int.from_bytes(hasher.digest()[:8], "big")
        return _derive_seed_v2(self.seed, label)

    def fork(self, label: str) -> "SeededRNG":
        """Return a child generator whose stream only depends on seed+label.

        The child inherits the parent's scheme; the derived seed is memoised
        per ``(instance, label)`` under both schemes, so re-forking the same
        label returns an identically-seeded stream without re-deriving it.
        """
        memo = self._fork_memo
        if memo is None:
            memo = self._fork_memo = {}
        child_seed = memo.get(label)
        if child_seed is None:
            child_seed = memo[label] = self._child_seed(label)
        child = SeededRNG.__new__(SeededRNG)
        child.seed = child_seed
        child.scheme = self.scheme
        child._rand = None
        child._prefix_hash = None
        child._fork_memo = None
        child._state = child_seed
        child._gauss_spare = None
        return child

    def fork_once(self, label: str) -> "SeededRNG":
        """``fork`` without memoising the derived seed on this instance.

        Bit-identical to ``fork(label)`` — the memo is purely a cache — but
        leaves no per-label entry behind.  Use for labels derived from
        participant ids on long-lived parents (the campaign runner's, the
        server's, the recruiting service's): memoising those grows the
        parent by O(participants), which is exactly the shape the streaming
        pipeline's bounded-memory contract forbids.
        """
        child_seed = self._fork_memo.get(label) if self._fork_memo else None
        if child_seed is None:
            child_seed = self._child_seed(label)
        child = SeededRNG.__new__(SeededRNG)
        child.seed = child_seed
        child.scheme = self.scheme
        child._rand = None
        child._prefix_hash = None
        child._fork_memo = None
        child._state = child_seed
        child._gauss_spare = None
        return child

    def fork_random(self, label: str) -> float:
        """The first uniform draw of ``fork(label)``, without building the child.

        Equivalent to ``self.fork(label).random()`` under both schemes
        (bit-for-bit), but skips both the child-object allocation and the
        fork memo — used on paths that fork a fresh label for exactly one
        tie-breaking draw (e.g. one per (participant, task) in the
        assigner), where memoising would grow the parent's memo with
        entries that are never read again.
        """
        child_seed = self._child_seed(label)
        if self.scheme == SCHEME_SHA256_V1:
            return random.Random(child_seed).random()
        s = (child_seed + _GOLDEN) & _M64
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return ((z ^ (z >> 31)) >> 11) * _RECIP53

    # -- thin delegation helpers ------------------------------------------------
    # The hottest delegates inline the per-scheme dispatch and (for v1) the
    # lazy-construction check instead of going through property descriptors.

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        if self.scheme == SCHEME_SHA256_V1:
            rand = self._rand
            if rand is None:
                rand = self._rand = random.Random(self.seed)
            return rand.random()
        # v2: top 53 bits of the next splitmix64 word.
        s = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        self._state = s
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return ((z ^ (z >> 31)) >> 11) * 1.1102230246251565e-16

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        if self.scheme == SCHEME_SHA256_V1:
            rand = self._rand
            if rand is None:
                rand = self._rand = random.Random(self.seed)
            return rand.uniform(low, high)
        s = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        self._state = s
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return low + (high - low) * (((z ^ (z >> 31)) >> 11) * 1.1102230246251565e-16)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] (inclusive)."""
        if self.scheme == SCHEME_SHA256_V1:
            rand = self._rand
            if rand is None:
                rand = self._rand = random.Random(self.seed)
            return rand.randint(low, high)
        if high < low:
            raise ValueError("empty range for randint")
        return low + self._randbelow(high - low + 1)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal sample."""
        if self.scheme == SCHEME_SHA256_V1:
            rand = self._rand
            if rand is None:
                rand = self._rand = random.Random(self.seed)
            return rand.gauss(mu, sigma)
        # v2: Box-Muller with a cached spare deviate; both uniform draws are
        # inlined splitmix64 steps (this is the hottest distribution call).
        spare = self._gauss_spare
        if spare is not None:
            self._gauss_spare = None
            return mu + sigma * spare
        state = self._state
        while True:
            state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            u1 = ((z ^ (z >> 31)) >> 11) * 1.1102230246251565e-16
            if u1 > 1e-12:
                break
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        self._state = state
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        u2 = ((z ^ (z >> 31)) >> 11) * 1.1102230246251565e-16
        radius = sqrt(-2.0 * log(u1))
        theta = 2.0 * pi * u2
        self._gauss_spare = radius * sin(theta)
        return mu + sigma * (radius * cos(theta))

    def lognormal(self, mu: float, sigma: float) -> float:
        """Log-normal sample with underlying normal(mu, sigma)."""
        if self.scheme == SCHEME_SHA256_V1:
            rand = self._rand
            if rand is None:
                rand = self._rand = random.Random(self.seed)
            return rand.lognormvariate(mu, sigma)
        return exp(self.gauss(mu, sigma))

    def expovariate(self, rate: float) -> float:
        """Exponential sample with the given rate (1/mean).

        Raises:
            RNGDomainError: when ``rate`` is not positive (the distribution
                is undefined; v1 formerly raised a bare ``ZeroDivisionError``
                and v2 returned garbage for negative rates).
        """
        if rate <= 0:
            raise RNGDomainError(f"expovariate rate must be positive, got {rate!r}")
        if self.scheme == SCHEME_SHA256_V1:
            return self._random.expovariate(rate)
        return -log(1.0 - self.random()) / rate

    def pareto(self, alpha: float, scale: float = 1.0) -> float:
        """Pareto sample (scale * classic Pareto with shape ``alpha``).

        Raises:
            RNGDomainError: when ``alpha`` is not positive (the distribution
                is undefined; a zero ``alpha`` formerly raised a bare
                ``ZeroDivisionError`` and a negative one returned values
                below ``scale``).
        """
        if alpha <= 0:
            raise RNGDomainError(f"pareto shape alpha must be positive, got {alpha!r}")
        if self.scheme == SCHEME_SHA256_V1:
            return scale * self._random.paretovariate(alpha)
        return scale / ((1.0 - self.random()) ** (1.0 / alpha))

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        if self.scheme == SCHEME_SHA256_V1:
            return self._random.choice(seq)
        if not seq:
            raise IndexError("cannot choose from an empty sequence")
        return seq[self._randbelow(len(seq))]

    def choices(self, seq: Sequence[T], weights: Sequence[float], k: int = 1) -> List[T]:
        """Pick ``k`` elements with replacement according to ``weights``.

        Raises:
            RNGDomainError: for empty, length-mismatched, negative, or
                all-zero weights (v1 formerly delegated to the stdlib's
                unhelpful message and v2 silently tolerated negatives).
        """
        self._validate_weights(weights, "choices")
        if len(weights) != len(seq):
            raise RNGDomainError(
                f"choices got {len(weights)} weights for {len(seq)} elements"
            )
        if self.scheme == SCHEME_SHA256_V1:
            return self._random.choices(seq, weights=weights, k=k)
        from bisect import bisect
        from itertools import accumulate

        cumulative = list(accumulate(weights))
        total = cumulative[-1]
        last = len(seq) - 1
        return [seq[min(bisect(cumulative, self.random() * total), last)] for _ in range(k)]

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """Pick ``k`` distinct elements without replacement.

        Raises:
            RNGDomainError: when ``k`` is negative or exceeds the population
                size — pinned for both schemes (v1 formerly surfaced the
                stdlib's bare ``ValueError``).
        """
        n = len(seq)
        if not 0 <= k <= n:
            raise RNGDomainError(
                f"sample size {k!r} out of range for a population of {n}"
            )
        if self.scheme == SCHEME_SHA256_V1:
            return self._random.sample(seq, k)
        pool = list(seq)
        for i in range(k):
            j = i + self._randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place (Fisher-Yates under v2)."""
        if self.scheme == SCHEME_SHA256_V1:
            self._random.shuffle(items)
            return
        for i in range(len(items) - 1, 0, -1):
            j = self._randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        if self.scheme == SCHEME_SHA256_V1:
            rand = self._rand
            if rand is None:
                rand = self._rand = random.Random(self.seed)
            return rand.random() < probability
        s = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        self._state = s
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return ((z ^ (z >> 31)) >> 11) * 1.1102230246251565e-16 < probability

    # -- batch draw primitives ---------------------------------------------------
    # Every batch primitive is defined as the bit-exact equivalent of N scalar
    # draws from the same stream (the property tests in tests/test_rng.py pin
    # this under every scheme).  Under the splitmix schemes the uniforms come
    # from one counter-stream block (numpy-accelerated when the ``[fast]``
    # extra is installed); under v1 the scalar loop *is* the implementation,
    # because the Mersenne Twister stream has no counter form.

    def random_array(self, n: int) -> List[float]:
        """``n`` uniform floats in [0, 1) — bit-identical to ``n`` ``random()`` calls.

        Raises:
            RNGDomainError: for a negative ``n``.
        """
        if n < 0:
            raise RNGDomainError(f"random_array size must be non-negative, got {n!r}")
        if self.scheme == SCHEME_SHA256_V1:
            random_ = self._random.random
            return [random_() for _ in range(n)]
        block = _counter_block(self._state, n)
        self._state = (self._state + n * _GOLDEN) & _M64
        return block

    def uniform_array(self, low: float, high: float, n: int) -> List[float]:
        """``n`` uniforms in [low, high] — bit-identical to ``n`` ``uniform()`` calls."""
        if n < 0:
            raise RNGDomainError(f"uniform_array size must be non-negative, got {n!r}")
        if self.scheme == SCHEME_SHA256_V1:
            uniform = self._random.uniform
            return [uniform(low, high) for _ in range(n)]
        span = high - low
        return [low + span * u for u in self.random_array(n)]

    def bernoulli_array(self, probability: float, n: int) -> List[bool]:
        """``n`` coin flips — bit-identical to ``n`` ``bernoulli()`` calls."""
        if n < 0:
            raise RNGDomainError(f"bernoulli_array size must be non-negative, got {n!r}")
        if self.scheme == SCHEME_SHA256_V1:
            random_ = self._random.random
            return [random_() < probability for _ in range(n)]
        return [u < probability for u in self.random_array(n)]

    def gauss_array(self, mu: float, sigma: float, n: int) -> List[float]:
        """``n`` normal samples — bit-identical to ``n`` ``gauss()`` calls.

        The equivalence includes the Box-Muller spare cache: a pending spare
        deviate is consumed first, and when ``n`` is reached mid-pair the
        unused half is left cached exactly as the scalar path leaves it.
        Uniforms are prefetched as one counter block; the block only grows in
        the astronomically rare (p ≈ 1e-12 per pair) case a ``u1`` draw is
        rejected, mirroring the scalar rejection step bit for bit.
        """
        if n < 0:
            raise RNGDomainError(f"gauss_array size must be non-negative, got {n!r}")
        if self.scheme == SCHEME_SHA256_V1:
            gauss = self._random.gauss
            return [gauss(mu, sigma) for _ in range(n)]
        out: List[float] = []
        append = out.append
        spare = self._gauss_spare
        if n and spare is not None:
            self._gauss_spare = None
            append(mu + sigma * spare)
        need = n - len(out)
        if need <= 0:
            return out
        us = _counter_block(self._state, 2 * ((need + 1) // 2))
        pos = 0
        while need > 0:
            if pos + 2 > len(us):
                us.extend(_counter_block((self._state + len(us) * _GOLDEN) & _M64, 2))
            u1 = us[pos]
            pos += 1
            if u1 <= 1e-12:
                continue
            u2 = us[pos]
            pos += 1
            radius = sqrt(-2.0 * log(u1))
            theta = 2.0 * pi * u2
            append(mu + sigma * (radius * cos(theta)))
            need -= 1
            if need > 0:
                append(mu + sigma * (radius * sin(theta)))
                need -= 1
            else:
                self._gauss_spare = radius * sin(theta)
        self._state = (self._state + pos * _GOLDEN) & _M64
        return out

    def truncated_gauss(self, mu: float, sigma: float, low: float, high: float) -> float:
        """Normal sample clamped by rejection to [low, high].

        The rejection loop is bounded: after 64 rejected draws (a window
        excluding effectively all mass, e.g. ``sigma=0`` with ``mu`` outside
        the window) one final draw is clamped deterministically, so the call
        always terminates and stays a pure function of the stream.

        Raises:
            RNGDomainError: for an impossible window (``low > high``), which
                no amount of rejection could ever satisfy.
        """
        if low > high:
            raise RNGDomainError(
                f"truncated_gauss window is empty: low={low!r} > high={high!r}"
            )
        for _ in range(64):
            value = self.gauss(mu, sigma)
            if low <= value <= high:
                return value
        return min(max(self.gauss(mu, sigma), low), high)

    @staticmethod
    def _validate_weights(weights: Sequence[float], caller: str) -> None:
        """Shared weight validation for ``choices``/``weighted_index``."""
        if not len(weights):
            raise RNGDomainError(f"{caller} needs at least one weight")
        for index, weight in enumerate(weights):
            if weight < 0:
                raise RNGDomainError(
                    f"{caller} weights must be non-negative, got {weight!r} at index {index}"
                )
        if sum(weights) <= 0:
            raise RNGDomainError(
                f"{caller} weights must sum to a positive value, got {list(weights)!r}"
            )

    def weighted_index(self, weights: Iterable[float]) -> int:
        """Return an index sampled proportionally to ``weights``.

        Raises:
            RNGDomainError: for empty, negative, or all-zero weights (which
                formerly either raised a bare ``ValueError`` or, for a
                negative-but-positive-sum mix, silently mis-sampled).
        """
        weights = list(weights)
        self._validate_weights(weights, "weighted_index")
        total = sum(weights)
        target = self.random() * total
        cumulative = 0.0
        for index, weight in enumerate(weights):
            cumulative += weight
            if target <= cumulative:
                return index
        return len(weights) - 1
