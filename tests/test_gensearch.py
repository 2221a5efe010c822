import math

import pytest

from fixspace.gensearch import (NotPrimePower, exhaustive_triple_search,
                                find_conjugate_pair, find_triple, phi_star,
                                verify_pair, verify_triple)
from fixspace.perm import builtin_group, element_order, format_cycles, pmul


def phi_star_oracle(n, q):
    # definition-level brute force: largest divisor of q^n - 1 coprime
    # to q^m - 1 for every 1 <= m < n, found by enumerating divisors
    N = q ** n - 1
    divisors = []
    d = 1
    while d * d <= N:
        if N % d == 0:
            divisors.append(d)
            divisors.append(N // d)
        d += 1
    best = 1
    for cand in divisors:
        if all(math.gcd(cand, q ** m - 1) == 1 for m in range(1, n)):
            best = max(best, cand)
    return best


def test_find_triple_certificate_fields():
    G = builtin_group('A5')
    cert = find_triple(G, 2, seed=1)
    assert cert.verdict == "Generates"
    assert pmul(pmul(cert.x, cert.y), cert.z) == tuple(range(5))
    assert all(o % 2 for o in cert.orders)
    assert cert.subgroup_order_of_xy == 60
    assert verify_triple(G, cert)


def test_find_triple_respects_orders():
    G = builtin_group('A6')
    cert = find_triple(G, 3, seed=2, orders=(4, 4, 4))
    assert cert.verdict == "Generates"
    assert cert.orders == (4, 4, 4)
    assert verify_triple(G, cert)


def test_find_triple_budget_exhausted():
    # no p'-triple can generate when every coprime order is tiny
    G = builtin_group('A5')
    cert = find_triple(G, 5, budget=300, seed=3)
    assert cert.verdict == "NotFound"
    assert cert.attempts == 300


def test_find_triple_deterministic():
    G = builtin_group('A7')
    a = find_triple(G, 2, seed=9)
    b = find_triple(G, 2, seed=9)
    assert (a.x, a.y, a.z, a.attempts) == (b.x, b.y, b.z, b.attempts)


def test_find_pair_certificate():
    G = builtin_group('A5')
    cert = find_conjugate_pair(G, 5, seed=1)
    assert cert.verdict == "Generates"
    assert element_order(cert.x) % 5 != 0
    assert verify_pair(G, cert)
    # y really is a conjugate of x
    assert element_order(cert.x) == element_order(cert.y)


def test_find_pair_with_order():
    G = builtin_group('A12')
    cert = find_conjugate_pair(G, 3, seed=4, order=11)
    assert cert.verdict == "Generates"
    assert cert.order == 11


def test_search_results_are_pinned():
    # one draw stream forked from the seed: a change to the draw order or
    # to the attempt count changes these witnesses
    def cycles(cert, *names):
        return (cert.attempts,) + tuple(format_cycles(getattr(cert, n)) for n in names)

    A5, A6, A7, A12 = (builtin_group(n) for n in ("A5", "A6", "A7", "A12"))
    assert cycles(find_triple(A7, 5, seed=1), "x", "y") == (
        8, "(1,6)(2,5,3)(4,7)", "(1,7)(2,4,6,3)")
    assert cycles(find_triple(A6, 3, seed=2, orders=(4, 4, 4)), "x", "y") == (
        37, "(1,2,5,3)(4,6)", "(1,4,2,5)(3,6)")
    cert = find_triple(builtin_group("L2_13"), 7, seed=5)
    assert (cert.attempts, cert.orders) == (17, (13, 3, 6))
    assert cycles(find_conjugate_pair(A5, 5, seed=1), "x", "h") == (
        2, "(1,2,3)", "(1,5,3,4,2)")
    assert cycles(find_conjugate_pair(A12, 3, seed=3, order=11), "x") == (
        21, "(1,7,3,6,12,10,8,11,4,5,9)")
    cert = find_triple(A5, 5, seed=1, budget=200)
    assert (cert.verdict, cert.attempts) == ("NotFound", 200)


def test_exhaustive_a5_p5_proves_none():
    res = exhaustive_triple_search(builtin_group('A5'), 5)
    assert res.verdict == "ProvedNone"
    assert res.certificate is None
    assert res.generation_tests >= 0


def test_exhaustive_a5_p2_finds_witness():
    res = exhaustive_triple_search(builtin_group('A5'), 2)
    assert res.verdict == "ExistsWithWitness"
    cert = res.certificate
    assert verify_triple(builtin_group('A5'), cert)
    assert all(o % 2 for o in cert.orders)


def test_exhaustive_matches_random_outcome():
    # groups where random search succeeds must never be proved empty
    for name, p in [('S3', 5), ('A4', 7)]:
        G = builtin_group(name)
        res = exhaustive_triple_search(G, p)
        assert res.verdict == "ExistsWithWitness"


def test_exhaustive_refuses_groups_past_its_cap(monkeypatch):
    # |A8| = 20,160 > 10^4: refused before a character table is built
    from fixspace import chartab
    from fixspace.perm import GroupTooLarge

    def refuse(group):
        raise AssertionError("character table built past the exhaustive cap")

    monkeypatch.setattr(chartab, "character_table", refuse)
    with pytest.raises(GroupTooLarge, match="order 20160 exceeds exhaustive cap 10000"):
        exhaustive_triple_search(builtin_group('A8'), 5)


def test_exhaustive_accepts_precomputed_table():
    from fixspace.chartab import character_table
    G = builtin_group('A5')
    table = character_table(G)
    res = exhaustive_triple_search(G, 5, table=table)
    assert res.verdict == "ProvedNone"


def test_phi_star_matches_brute_force():
    for q in [2, 3, 4, 5, 7, 8, 9]:
        for n in range(2, 13):
            assert phi_star(n, q) == phi_star_oracle(n, q), (n, q)


def test_phi_star_known_values():
    assert phi_star(4, 2) == 5
    assert phi_star(6, 2) == 1     # the classical gap case
    assert phi_star(3, 2) == 7
    assert phi_star(5, 2) == 31
    assert phi_star(6, 3) == 7
    assert phi_star(8, 3) == 41
    assert phi_star(10, 3) == 61


def test_phi_star_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        phi_star(4, 6)
    with pytest.raises(NotPrimePower):
        phi_star(4, 1)
