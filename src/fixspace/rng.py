"""Deterministic seedable randomness with forkable streams.

Every randomized routine in the package draws from a SeedStream.  Results
must be exact functions of (seed, stream id), never of wall clock, hash
randomization, or thread timing, so the generator is spelled out here
instead of delegating to random.Random.

A draw of one index below n is one SplitMix64 step, tried again while the
output lands in the top 2^64 mod n values, where n does not divide
evenly.  `randranges` makes a run of such draws in one loop.  A search
that rejects an element without reading it need not draw it: `skip`
leaves the state exactly where the draws would have, without the
scramble.  Every step adds the golden gamma to the state, so only the
extra tries need finding, and those happen at the 2^64 mod n states
whose scramble is too large.  Inverting the scramble lists those states
once per bound.
"""

from functools import cache

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
        return self.randranges(((n, _SPAN - _SPAN % n, None),))[0]

    def randranges(self, bounds) -> list:
        """One uniform index below n for each bound(n), in turn: a try is
        one SplitMix64 step (golden gamma, then mix64) written out inline,
        and an output of limit or more is rejected and tried again."""
        z = self._state
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
        self._state = z
        return out

    def skip(self, bounds) -> None:
        """Leave the state where randranges(bounds) would: one golden step
        per bound, and one more for each state it reaches that the bound
        rejects."""
        z = self._state
        for _, _, rejected in bounds:
            z = (z + _GOLDEN) & MASK64
            while z in rejected:
                z = (z + _GOLDEN) & MASK64
        self._state = z

    def fork(self, i: int) -> "SeedStream":
        """Child stream i; children are disjoint from each other and the parent."""
        return SeedStream(self.seed, stream=i + 1)
