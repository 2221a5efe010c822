"""Deterministic seedable randomness with forkable streams.

Every randomized routine in the package draws from a SeedStream.  Results
must be exact functions of (seed, stream id), never of wall clock, hash
randomization, or thread timing, so the generator is spelled out here
instead of delegating to random.Random.
"""

_SPAN = 1 << 64
MASK64 = _SPAN - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a fixed 64-bit bijective scramble."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SeedStream:
    """SplitMix64 sequence; fork(i) derives disjoint child streams."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = (mix64(seed) ^ mix64((stream + 1) * _GOLDEN)) & MASK64
        self._state = self.seed

    def randrange(self, n: int) -> int:
        """Uniform draw from [0, n), unbiased by rejection; each try is one
        SplitMix64 step (golden gamma, then mix64) written out inline."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        if n == 1:
            return 0
        limit = _SPAN - _SPAN % n
        z = self._state
        while True:
            z = (z + _GOLDEN) & MASK64
            r = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            r = ((r ^ (r >> 27)) * 0x94D049BB133111EB) & MASK64
            r ^= r >> 31
            if r < limit:
                self._state = z
                return r % n

    def fork(self, i: int) -> "SeedStream":
        """Child stream i; children are disjoint from each other and the parent."""
        return SeedStream(self.seed, stream=i + 1)
