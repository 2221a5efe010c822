"""Deterministic seedable randomness with forkable streams.

Every randomized routine in the package draws from a SeedStream.  Results
must be exact functions of (seed, stream id), never of wall clock, hash
randomization, or thread timing, so the generator is spelled out here
instead of delegating to random.Random.

A draw of one index below n is one SplitMix64 step, tried again while the
output lands in the top 2^64 mod n values, where n does not divide
evenly.  Every step adds the golden gamma to the state, so a run of k
draws with no rejection visits the states z + gamma, ..., z + k*gamma, and a
`Draws` (the bounds of one such run, built once) scrambles them side by
side: one 128-bit lane per state in one int, where a 64-bit product
fills its lane and never carries into the next.  The rejections happen
at the 2^64 mod n states whose scramble is too large; inverting the
scramble (`unmix64`) lists them once per bound, and moved back by each
lane's offset they form the run's `bad` set.  A run starting at z has a
rejection exactly when z is in `bad`, so one set lookup decides whether
`randranges` scrambles in lanes or falls back to the step loop, and
whether `skip`, for a search that rejects an element without reading
it, adds k*gamma to the state or draws and discards.  A lone `randrange`
(n up to 2^64) always takes the step loop.
"""

from functools import cache
from operator import mod
from struct import Struct

_SPAN = 1 << 64
MASK64 = _SPAN - 1
_GOLDEN = 0x9E3779B97F4A7C15
# inverses mod 2^64 of mix64's two odd multipliers, for unmix64
_M1_INV = pow(0xBF58476D1CE4E5B9, -1, _SPAN)
_M2_INV = pow(0x94D049BB133111EB, -1, _SPAN)


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a fixed 64-bit bijective scramble."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _unshift(y: int, s: int) -> int:
    """The x with x ^ (x >> s) == y: each pass fixes s more top bits."""
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> s)
    return x


def unmix64(r: int) -> int:
    """Inverse of mix64: undo each xorshift, and multiply by the inverse of
    each odd multiplier mod 2^64."""
    z = _unshift(r & MASK64, 31)
    z = _unshift((z * _M2_INV) & MASK64, 27)
    return _unshift((z * _M1_INV) & MASK64, 30)


@cache
def bound(n: int) -> tuple:
    """(n, limit, rejected) for a draw below n >= 2: outputs from limit up
    are rejected and tried again, and rejected is the frozenset of the
    2^64 mod n states (after their golden step) that give them.  There are
    fewer than n of them, so n is meant to be the length of a list the
    caller already holds, such as a transversal."""
    limit = _SPAN - _SPAN % n
    return n, limit, frozenset(map(unmix64, range(limit, _SPAN)))


def _steps(z: int, bounds) -> tuple:
    """(state, indices) after one uniform index below n for each (n, limit,
    _) in bounds, in turn, from state z: a try is one SplitMix64 step
    (golden gamma, then mix64) written out inline, and an output of limit
    or more is rejected and tried again."""
    out = []
    for n, limit, _ in bounds:
        while True:
            z = (z + _GOLDEN) & MASK64
            r = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            r = ((r ^ (r >> 27)) * 0x94D049BB133111EB) & MASK64
            r ^= r >> 31
            if r < limit:
                break
        out.append(r % n)
    return z, out


class Draws:
    """A run of draws below ns[0], ns[1], ... (each at least 2), with what
    the lane path needs worked out once: bound(n) of each draw, the
    state's advance k*gamma over a run of k, the constants that place a
    state z in every lane (z * lanes + offsets, lane j holding z plus
    (j + 1) golden steps, below 2^69 and so clear of the next lane), the
    mask of the lanes' low 64 bits, the starting states `bad` whose run
    meets a rejection, and the unpacker of those low 64 bits."""

    __slots__ = ("ns", "bounds", "step", "lanes", "offsets", "mask", "bad",
                 "unpack", "size")

    def __init__(self, ns):
        self.ns = tuple(ns)
        self.bounds = tuple(map(bound, self.ns))
        k = len(self.ns)
        self.step = (k * _GOLDEN) & MASK64
        self.lanes = sum(1 << 128 * j for j in range(k))
        self.offsets = sum((j + 1) * _GOLDEN << 128 * j for j in range(k))
        self.mask = MASK64 * self.lanes
        self.bad = frozenset((z - (j + 1) * _GOLDEN) & MASK64
                             for j, (_, _, rejected) in enumerate(self.bounds)
                             for z in rejected)
        self.unpack = Struct("<" + "Q8x" * k).unpack
        self.size = 16 * k


class SeedStream:
    """SplitMix64 sequence; fork(i) derives disjoint child streams."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = (mix64(seed) ^ mix64((stream + 1) * _GOLDEN)) & MASK64
        self._state = self.seed

    def randrange(self, n: int) -> int:
        """Uniform draw from [0, n), unbiased by rejection; n == 1 takes no
        step, and n may be at most 2^64."""
        if n <= 0 or n > _SPAN:
            raise ValueError(f"randrange needs a bound in 1..2^64, got {n}")
        if n == 1:
            return 0
        # a lone draw is never skipped, so it lists no rejected states: a
        # bound just above 2^63 has nearly 2^63 of them
        self._state, out = _steps(self._state, ((n, _SPAN - _SPAN % n, None),))
        return out[0]

    def randranges(self, draws: Draws) -> list:
        """One uniform index below each n of draws, in turn: the same
        indices and final state as one randrange(n) after another.  With
        no rejection in the run, its k states are scrambled in one pass
        over the lanes: each xorshift is masked back to the lanes' low 64
        bits before its multiply, and the product masked after it."""
        z = self._state
        if z in draws.bad:
            self._state, out = _steps(z, draws.bounds)
            return out
        self._state = (z + draws.step) & MASK64
        m = draws.mask
        x = (z * draws.lanes + draws.offsets) & m
        x = (((x ^ (x >> 30)) & m) * 0xBF58476D1CE4E5B9) & m
        x = (((x ^ (x >> 27)) & m) * 0x94D049BB133111EB) & m
        x ^= x >> 31
        return list(map(mod, draws.unpack(x.to_bytes(draws.size, "little")), draws.ns))

    def skip(self, draws: Draws) -> None:
        """Leave the state where randranges(draws) would: k golden steps
        for a run with no rejection, else the draws made and discarded."""
        z = self._state
        if z in draws.bad:
            self._state = _steps(z, draws.bounds)[0]
        else:
            self._state = (z + draws.step) & MASK64

    def fork(self, i: int) -> "SeedStream":
        """Child stream i; children are disjoint from each other and the parent."""
        return SeedStream(self.seed, stream=i + 1)
