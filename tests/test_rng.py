import signal

import pytest

from fixspace.rng import MASK64, Draws, SeedStream, bound, mix64

GOLDEN = 0x9E3779B97F4A7C15


def _mix_reference(z):
    # independent re-derivation of the SplitMix64 finalizer
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def raw(stream):
    # a bound of 2^64 never rejects, so the draw is the raw 64-bit output
    return stream.randrange(1 << 64)


class ReferenceStream:
    """SplitMix64 spelled out step by step: next64 advances the state and
    scrambles it, and randrange rejects the top of [0, 2^64) that n does
    not divide."""

    def __init__(self, state):
        self._state = state

    def next64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        return _mix_reference(self._state)

    def randrange(self, n):
        if n == 1:
            return 0
        limit = 2**64 - 2**64 % n
        while True:
            r = self.next64()
            if r < limit:
                return r % n


def test_mix64_matches_reference():
    for z in [0, 1, 2, 2**31, 2**63, MASK64, 123456789, 0xDEADBEEF]:
        assert mix64(z) == _mix_reference(z)


def test_mix64_is_injective_on_sample():
    seen = {mix64(z) for z in range(4096)}
    assert len(seen) == 4096


def test_stream_deterministic():
    a = SeedStream(42)
    b = SeedStream(42)
    assert [raw(a) for _ in range(20)] == [raw(b) for _ in range(20)]


def test_distinct_seeds_distinct_sequences():
    a = [raw(SeedStream(1)) for _ in range(4)]
    b = [raw(SeedStream(2)) for _ in range(4)]
    assert a != b


def test_fork_disjoint_from_parent_and_siblings():
    parent = SeedStream(7)
    kids = [parent.fork(i) for i in range(8)]
    seqs = [tuple(raw(k) for _ in range(8)) for k in kids]
    assert len(set(seqs)) == 8
    parent_seq = tuple(raw(parent) for _ in range(8))
    assert parent_seq not in seqs


def test_fork_depends_only_on_seed_not_position():
    # forking never consumes parent state
    p1 = SeedStream(9)
    raw(p1)
    p2 = SeedStream(9)
    assert raw(p1.fork(3)) == raw(p2.fork(3))


def test_randrange_bounds_and_determinism():
    s = SeedStream(5)
    draws = [s.randrange(10) for _ in range(1000)]
    assert all(0 <= d < 10 for d in draws)
    assert set(draws) == set(range(10))
    again = SeedStream(5)
    assert draws == [again.randrange(10) for _ in range(1000)]


def test_randrange_one_consumes_nothing():
    s = SeedStream(3)
    before = s._state
    assert s.randrange(1) == 0
    assert s._state == before


def test_randrange_rejects_bad_bound():
    with pytest.raises(ValueError):
        SeedStream(1).randrange(0)
    with pytest.raises(ValueError):
        SeedStream(1).randrange(-4)


def test_randrange_rejects_bound_past_2_64_at_once():
    # the limit would be 0, and every draw rejected for ever: the alarm
    # turns such a loop into a failure instead of a hung suite
    def stuck(*_):
        raise AssertionError("randrange kept drawing past a bound above 2^64")

    old = signal.signal(signal.SIGALRM, stuck)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        for n in (2**64 + 1, 2**70):
            with pytest.raises(ValueError):
                SeedStream(1).randrange(n)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_randrange_large_bound():
    s = SeedStream(11)
    n = 2**62
    vals = [s.randrange(n) for _ in range(50)]
    assert all(0 <= v < n for v in vals)


@pytest.mark.parametrize("n", [1, 2, 3, 360, 2**62, 2**63 + 1, 2**64])
def test_randrange_matches_reference_stream(n):
    # 2^63 + 1 rejects about half the raw outputs, so the retry loop runs
    for seed in (1, 7919):
        s = SeedStream(seed, stream=3)
        ref = ReferenceStream(s._state)
        assert [s.randrange(n) for _ in range(2000)] == [ref.randrange(n) for _ in range(2000)]
        assert s._state == ref._state


def test_reference_stream_rejects_at_half_bound():
    # the 2^63 + 1 case above only tests the retry loop if draws are rejected
    ref = ReferenceStream(SeedStream(1)._state)
    limit = 2**64 - 2**64 % (2**63 + 1)
    assert sum(ref.next64() >= limit for _ in range(2000)) > 800


def _unmix_reference(r):
    # mix64 run backwards: xorshift by s undone by re-applying it until
    # every bit is fixed, odd multipliers undone by their inverses mod 2^64
    def unshift(y, s):
        x = y
        for _ in range(64):
            x = y ^ (x >> s)
        return x

    z = unshift(r, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2**64) & MASK64, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK64, 30)


# bound(n) lists its 2^64 mod n rejected states, so n stays small here;
# the retry loop at 2^63 + 1 is held to ReferenceStream above
SKIP_BOUNDS = list(range(2, 14)) + [364]


def _rejected_states(n):
    """The states whose step is rejected for n: the preimages of the
    2^64 mod n outputs past the limit."""
    return [_unmix_reference(r) for r in range(2**64 - 2**64 % n, 2**64)]


def _stream_at(state):
    s = SeedStream(0)
    s._state = state
    return s


def _three_ways(state, n, count):
    """The state after count draws below n, made by skip, by randranges and
    by randrange in turn."""
    a, b, c = _stream_at(state), _stream_at(state), _stream_at(state)
    draws = Draws([n] * count)
    a.skip(draws)
    b.randranges(draws)
    for _ in range(count):
        c.randrange(n)
    return a._state, b._state, c._state


@pytest.mark.parametrize("n", SKIP_BOUNDS)
def test_skip_leaves_the_state_randranges_leaves(n):
    for seed in (1, 7919):
        state = SeedStream(seed, stream=3)._state
        a, b, c = _three_ways(state, n, 500)
        assert a == b == c
    # one golden step before a rejected state: the first try is rejected
    for z in _rejected_states(n):
        before = (z - 0x9E3779B97F4A7C15) & MASK64
        a, b, c = _three_ways(before, n, 3)
        assert a == b == c
        assert a != (z + 2 * 0x9E3779B97F4A7C15) & MASK64


@pytest.mark.parametrize("n", SKIP_BOUNDS)
def test_rejected_states_are_exactly_those_past_the_limit(n):
    _, limit, rejected = bound(n)
    assert limit == 2**64 - 2**64 % n
    # each state has its output at or past the limit, and there is one
    # state per rejected output
    assert len(rejected) == 2**64 % n < n
    assert all(mix64(z) >= limit for z in rejected)
    assert rejected == frozenset(_rejected_states(n))


# every bound of SKIP_BOUNDS, 256 (which divides 2^64 and rejects nothing)
# and its neighbours
BLOCK_BOUNDS = SKIP_BOUNDS[:-1] + [255, 256, 257, 364]


def _reference_run(state, ns):
    ref = ReferenceStream(state)
    return [ref.randrange(n) for n in ns], ref._state


def _check_block(state, ns):
    """randranges and skip over Draws(ns) from state, held to the reference
    stream; returns whether the run met a rejection."""
    draws = Draws(ns)
    want = _reference_run(state, ns)
    a, b = _stream_at(state), _stream_at(state)
    assert (a.randranges(draws), a._state) == want
    b.skip(draws)
    assert b._state == want[1]
    rejected = want[1] != (state + len(ns) * GOLDEN) & MASK64
    assert (state in draws.bad) == rejected
    return rejected


@pytest.mark.parametrize("seed", [1, 7919])
def test_block_draws_match_reference_stream(seed):
    # runs of k = 0..12 draws over every rotation of BLOCK_BOUNDS, each
    # from the state the last one left
    s = SeedStream(seed, stream=3)
    for k in range(13):
        for first in range(len(BLOCK_BOUNDS)):
            ns = [BLOCK_BOUNDS[(first + j) % len(BLOCK_BOUNDS)] for j in range(k)]
            _check_block(s._state, ns)
            s.randranges(Draws(ns))


@pytest.mark.parametrize("n", [n for n in BLOCK_BOUNDS if 2**64 % n])
def test_block_draws_fall_back_at_every_lane(n):
    # a start moved back by (j + 1) golden steps from a rejected state meets
    # that rejection in lane j: the step loop takes over at every position
    ns = [n] + [BLOCK_BOUNDS[j % len(BLOCK_BOUNDS)] for j in range(11)]
    for j in range(len(ns)):
        run = ns[:j] + [n] + ns[j + 1:]
        for z in _rejected_states(n):
            assert _check_block((z - (j + 1) * GOLDEN) & MASK64, run)
