"""Searches for generating triples and pairs of p'-elements.

Random searches are reproducible: each draws its elements from one
stream forked from the integer seed, and the budget counts attempts, one
pair of elements each. An attempt reads x's order (PermGroup.random_order)
before it builds x, and a triple search reads y's order the same way;
when x is rejected, PermGroup.skip_element moves the stream past the
second element without drawing it, so every stream, witness and attempt
count is that of drawing both. A search returns once
PermGroup.generated_by holds (an orbit test, then a known-order chain
build that a product-replacement walk usually ends); a NotFound
certificate holds only p, its verdict and its attempts. The independent
check, which the cli runs on each certificate it prints, is verify_triple
or verify_pair: sifts in G's chain, the orders, and a full chain build.
"""

import math
from typing import NamedTuple

from .ff import prime_power
from .perm import GroupTooLarge, PermGroup, element_order, pconj, pinv, pmul
from .rng import SeedStream


EXHAUSTIVE_CAP = 10**4   # largest group order the class-triple search takes
BUDGET = 10**5           # attempts a random search makes unless told otherwise


class NotPrimePower(ValueError):
    pass


class Overflow(ValueError):
    pass


class TripleCertificate(NamedTuple):
    p: int
    verdict: str          # "Generates" or "NotFound"
    attempts: int
    x: tuple = None       # these four on Generates only
    y: tuple = None
    z: tuple = None
    orders: tuple = None


class PairCertificate(NamedTuple):
    p: int
    verdict: str
    attempts: int
    x: tuple = None       # these four on Generates only
    h: tuple = None
    y: tuple = None       # x conjugated by h
    order: int = None


class ExhaustiveResult(NamedTuple):
    verdict: str          # "ExistsWithWitness" or "ProvedNone"
    certificate: object
    generation_tests: int


def _in_group(group: PermGroup, *elems) -> bool:
    """Each element sifts to the identity in G's own chain."""
    return all(len(g) == group.degree and group.contains(g) for g in elems)


def _builds_group(group: PermGroup, x: tuple, y: tuple) -> bool:
    """A full chain build of <x, y>, no walk and no stop at |G|, reaches |G|."""
    return PermGroup(group.degree, [x, y]).order == group.order


def verify_triple(group: PermGroup, cert: TripleCertificate, orders: tuple = None) -> bool:
    """The independent check of a Generates certificate, False on a failure:
    sifts in G's chain, x y z = 1, the orders (p', recorded and any asked),
    and _builds_group. Calls neither subgroup_order nor generated_by."""
    if (cert.verdict != "Generates" or not _in_group(group, cert.x, cert.y)
            or cert.z != pinv(pmul(cert.x, cert.y))):
        return False
    got = tuple(map(element_order, (cert.x, cert.y, cert.z)))
    return (got == cert.orders and orders in (None, got) and all(o % cert.p for o in got)
            and _builds_group(group, cert.x, cert.y))


def verify_pair(group: PermGroup, cert: PairCertificate, order: int = None) -> bool:
    """The same check of a pair: sifts of x and h in G's chain, y = x^h,
    x's order (p', recorded and any asked), and _builds_group."""
    if cert.verdict != "Generates" or not _in_group(group, cert.x, cert.h):
        return False
    return (cert.y == pconj(cert.x, cert.h) and element_order(cert.x) == cert.order
            and order in (None, cert.order) and cert.order % cert.p != 0
            and _builds_group(group, cert.x, cert.y))


def find_triple(group: PermGroup, p: int, budget: int = BUDGET, seed: int = 1,
                orders: tuple = None) -> TripleCertificate:
    """Random search for p'-elements x, y with (xy)^{-1} also p' and <x,y> = G.

    When orders is given, only triples with exactly those element orders
    are accepted. NotFound is reported as a verdict, never an exception.
    """
    stream = SeedStream(seed).fork(0)
    for attempts in range(1, budget + 1):
        ox, ix = group.random_order(stream)
        if ox % p == 0 or orders is not None and ox != orders[0]:
            group.skip_element(stream)   # y, which nothing reads
            continue
        oy, iy = group.random_order(stream)
        if oy % p == 0 or orders is not None and oy != orders[1]:
            continue
        x, y = group.element_at(ix), group.element_at(iy)
        z = pinv(pmul(x, y))
        oz = element_order(z)
        if oz % p == 0 or orders is not None and oz != orders[2]:
            continue
        if not group.generated_by([x, y]):
            continue
        return TripleCertificate(p=p, verdict="Generates", attempts=attempts,
                                 x=x, y=y, z=z, orders=(ox, oy, oz))
    return TripleCertificate(p=p, verdict="NotFound", attempts=budget)


def find_conjugate_pair(group: PermGroup, p: int, budget: int = BUDGET,
                        seed: int = 1, order: int = None) -> PairCertificate:
    """Random search for a p'-element x and conjugate x^h with <x, x^h> = G."""
    stream = SeedStream(seed).fork(0)
    for attempts in range(1, budget + 1):
        ox, ix = group.random_order(stream)
        if ox % p == 0 or order is not None and ox != order:
            group.skip_element(stream)   # h, which nothing reads
            continue
        x = group.element_at(ix)
        h = group.random_element(stream)
        y = pconj(x, h)
        if not group.generated_by([x, y]):
            continue
        return PairCertificate(p=p, verdict="Generates", attempts=attempts,
                               x=x, h=h, y=y, order=ox)
    return PairCertificate(p=p, verdict="NotFound", attempts=budget)


def exhaustive_triple_search(group: PermGroup, p: int, table=None) -> ExhaustiveResult:
    """Complete search over class triples; ProvedNone is a proof.

    Fixing x to one representative of C1 is complete: conjugating a
    generating triple moves its first entry onto the class representative
    and preserves generation. Each y of each p'-class is tested when
    (xy)^{-1} is a p'-element too. table is not read; it stays because
    the perfbench search workload passes one.
    """
    if group.order > EXHAUSTIVE_CAP:
        raise GroupTooLarge(f"order {group.order} exceeds exhaustive cap {EXHAUSTIVE_CAP}")
    classes = group.conjugacy_classes()
    prime_to_p = [i for i, c in enumerate(classes) if c.element_order % p != 0]
    live = set(prime_to_p)
    tests = 0
    for i in prime_to_p:
        x = classes[i].rep
        ox = classes[i].element_order
        for j in prime_to_p:
            for y in classes[j].members:
                z = pinv(pmul(x, y))
                if group.class_of(z) not in live:
                    continue
                tests += 1
                if not group.generated_by([x, y]):
                    continue
                cert = TripleCertificate(
                    p=p, verdict="Generates", attempts=tests, x=x, y=y, z=z,
                    orders=(ox, classes[j].element_order, element_order(z)))
                return ExhaustiveResult("ExistsWithWitness", cert, tests)
    return ExhaustiveResult("ProvedNone", None, tests)


def phi_star(n: int, q: int) -> int:
    """Largest divisor of q^n - 1 coprime to every q^m - 1 with m < n.
    q^n is bounded before q is factored by trial division."""
    if n < 2 or n > 40:
        raise ValueError(f"n = {n} outside supported range 2..40")
    if q**n >= 2**62:
        raise Overflow(f"q^n = {q}^{n} is at least 2^62")
    try:
        prime_power(q)
    except ValueError as exc:
        raise NotPrimePower(str(exc)) from None
    v = q**n - 1
    for m in range(1, n):
        g = math.gcd(v, q**m - 1)
        while g > 1:
            v //= g
            g = math.gcd(v, g)
    return v
