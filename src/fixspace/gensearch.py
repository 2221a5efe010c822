"""Searches for generating triples and pairs of p'-elements.

Random searches are reproducible: each draws its elements from one
stream forked from the integer seed, and the budget counts attempts, one
pair of elements each. An attempt tests the order of x before it builds
the second element; when x is rejected, PermGroup.skip_element moves the
stream past the second element without drawing it (one set lookup and
one addition to the state, unless that element's draws meet a
rejection), so every stream, witness and attempt count is that of
drawing both. Candidates are tested
by PermGroup.generated_by (an orbit test, then a known-order chain build,
which a product-replacement walk usually ends); every returned
certificate is rechecked before it is handed back, with subgroup_order
and, for a conjugate pair, a membership test of the conjugator h in G.
"""

import math
from typing import NamedTuple

from .ff import prime_power
from .perm import GroupTooLarge, PermGroup, element_order, pconj, pinv, pmul
from .rng import SeedStream


EXHAUSTIVE_CAP = 10**4   # largest group order the class-triple search takes


class NotPrimePower(ValueError):
    pass


class Overflow(ValueError):
    pass


class TripleCertificate(NamedTuple):
    x: tuple
    y: tuple
    z: tuple
    orders: tuple
    p: int
    subgroup_order_of_xy: int
    verdict: str          # "Generates" or "NotFound"
    attempts: int


class PairCertificate(NamedTuple):
    x: tuple
    h: tuple
    y: tuple              # x conjugated by h
    order: int
    p: int
    subgroup_order_of_xy: int
    verdict: str
    attempts: int


class ExhaustiveResult(NamedTuple):
    verdict: str          # "ExistsWithWitness" or "ProvedNone"
    certificate: object
    generation_tests: int


def verify_triple(group: PermGroup, cert: TripleCertificate) -> bool:
    """Recheck a Generates certificate from scratch; used before returning."""
    if cert.verdict != "Generates":
        return False
    ident = tuple(range(group.degree))
    if pmul(pmul(cert.x, cert.y), cert.z) != ident:
        return False
    orders = tuple(element_order(g) for g in (cert.x, cert.y, cert.z))
    if orders != cert.orders:
        return False
    if any(o % cert.p == 0 for o in orders):
        return False
    return group.subgroup_order([cert.x, cert.y]) == group.order


def verify_pair(group: PermGroup, cert: PairCertificate) -> bool:
    """Recheck a Generates certificate from scratch, h's membership in G
    included; used before returning."""
    if cert.verdict != "Generates":
        return False
    if not group.contains(cert.h) or pconj(cert.x, cert.h) != cert.y:
        return False
    if element_order(cert.x) != cert.order or cert.order % cert.p == 0:
        return False
    return group.subgroup_order([cert.x, cert.y]) == group.order


def find_triple(group: PermGroup, p: int, budget: int = 10**5, seed: int = 1,
                orders: tuple = None) -> TripleCertificate:
    """Random search for p'-elements x, y with (xy)^{-1} also p' and <x,y> = G.

    When orders is given, only triples with exactly those element orders
    are accepted. NotFound is reported as a verdict, never an exception.
    """
    stream = SeedStream(seed).fork(0)
    for attempts in range(1, budget + 1):
        x = group.random_element(stream)
        ox = element_order(x)
        if ox % p == 0 or orders is not None and ox != orders[0]:
            group.skip_element(stream)   # y, which nothing reads
            continue
        y = group.random_element(stream)
        oy = element_order(y)
        if oy % p == 0 or orders is not None and oy != orders[1]:
            continue
        z = pinv(pmul(x, y))
        oz = element_order(z)
        if oz % p == 0:
            continue
        if orders is not None and oz != orders[2]:
            continue
        if not group.generated_by([x, y]):
            continue
        cert = TripleCertificate(
            x=x, y=y, z=z, orders=(ox, oy, oz), p=p,
            subgroup_order_of_xy=group.order, verdict="Generates",
            attempts=attempts,
        )
        if not verify_triple(group, cert):
            raise AssertionError("certificate failed independent recheck")
        return cert
    return TripleCertificate(
        x=None, y=None, z=None, orders=(), p=p,
        subgroup_order_of_xy=0, verdict="NotFound", attempts=budget,
    )


def find_conjugate_pair(group: PermGroup, p: int, budget: int = 10**5,
                        seed: int = 1, order: int = None) -> PairCertificate:
    """Random search for a p'-element x and conjugate x^h with <x, x^h> = G."""
    stream = SeedStream(seed).fork(0)
    for attempts in range(1, budget + 1):
        x = group.random_element(stream)
        ox = element_order(x)
        if ox % p == 0 or order is not None and ox != order:
            group.skip_element(stream)   # h, which nothing reads
            continue
        h = group.random_element(stream)
        y = pconj(x, h)
        if not group.generated_by([x, y]):
            continue
        cert = PairCertificate(
            x=x, h=h, y=y, order=ox, p=p,
            subgroup_order_of_xy=group.order, verdict="Generates",
            attempts=attempts,
        )
        if not verify_pair(group, cert):
            raise AssertionError("certificate failed independent recheck")
        return cert
    return PairCertificate(
        x=None, h=None, y=None, order=0, p=p,
        subgroup_order_of_xy=0, verdict="NotFound", attempts=budget,
    )


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
                    x=x, y=y, z=z,
                    orders=(ox, classes[j].element_order, element_order(z)),
                    p=p, subgroup_order_of_xy=group.order, verdict="Generates",
                    attempts=tests,
                )
                if not verify_triple(group, cert):
                    raise AssertionError("certificate failed independent recheck")
                return ExhaustiveResult("ExistsWithWitness", cert, tests)
    return ExhaustiveResult("ProvedNone", None, tests)


def phi_star(n: int, q: int) -> int:
    """Largest divisor of q^n - 1 coprime to every q^m - 1 with m < n.
    q^n is bounded before q is factored by trial division."""
    if n < 2 or n > 40:
        raise ValueError(f"n = {n} outside supported range 2..40")
    if q**n >= 2**62:
        raise Overflow(f"q^n = {q}^{n} exceeds 2^62")
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
