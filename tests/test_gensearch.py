import math
import warnings

import pytest

from fixspace.gensearch import (NotPrimePower, PairCertificate, TripleCertificate,
                                exhaustive_triple_search,
                                find_conjugate_pair, find_triple, phi_star,
                                verify_pair, verify_triple)
from fixspace.perm import (PermGroup, builtin_group, element_order,
                           format_cycles, pconj, pinv, pmul)
from fixspace.rng import SeedStream


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
    assert PermGroup(5, [cert.x, cert.y]).order == 60
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


def test_find_triple_on_abelian_groups_generates_without_warning():
    # V4 at p = 3 and C5 at p = 2 are generated by one element and its
    # inverse, so a search on them finds a triple
    V4 = PermGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    C5 = PermGroup(5, [(1, 2, 3, 4, 0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for G, p in ((V4, 3), (C5, 2)):
            cert = find_triple(G, p, seed=1)
            assert cert.verdict == "Generates"
            assert verify_triple(G, cert)


def test_find_pair_certificate():
    G = builtin_group('A5')
    cert = find_conjugate_pair(G, 5, seed=1)
    assert cert.verdict == "Generates"
    assert element_order(cert.x) % 5 != 0
    assert verify_pair(G, cert)
    # y really is a conjugate of x
    assert element_order(cert.x) == element_order(cert.y)


def test_verify_pair_rejects_a_conjugator_outside_the_group():
    # h = (1,2) is odd, so y = x^h lies in the other class of 5-cycles of
    # A5: x and y are not conjugate in A5, though they generate it
    G = builtin_group('A5')
    x, h = (1, 2, 3, 4, 0), (1, 0, 2, 3, 4)
    y = pconj(x, h)
    assert G.class_of(x) != G.class_of(y)
    assert G.subgroup_order([x, y]) == G.order
    cert = PairCertificate(x=x, h=h, y=y, order=5, p=2, verdict="Generates",
                           attempts=1)
    assert not verify_pair(G, cert)
    h_in_g = pmul(h, (0, 1, 2, 4, 3))   # (1,2)(4,5)
    assert verify_pair(G, cert._replace(h=h_in_g, y=pconj(x, h_in_g)))


def test_verify_rejects_forged_certificates():
    G = builtin_group('A5')
    triple = find_triple(G, 2, seed=1)
    assert verify_triple(G, triple)
    for forged in (triple._replace(verdict="NotFound"),
                   triple._replace(z=tuple(range(5))),     # x y z = x y != 1
                   triple._replace(orders=(1, 1, 1)),
                   triple._replace(p=triple.orders[0])):   # x is a p-element
        assert not verify_triple(G, forged), forged
    pair = find_conjugate_pair(G, 5, seed=1)
    assert verify_pair(G, pair)
    for forged in (pair._replace(verdict="NotFound"),
                   pair._replace(order=pair.order + 1),
                   pair._replace(p=pair.order)):
        assert not verify_pair(G, forged), forged


def test_verify_holds_a_certificate_to_the_asked_orders():
    # L2(7) at p = 5 has a (2,3,7) triple; the same certificate does not
    # have the orders (3,2,7), and A12's order-11 pair has no other order
    L2_7, A12 = builtin_group('L2_7'), builtin_group('A12')
    triple = find_triple(L2_7, 5, seed=1, orders=(2, 3, 7))
    assert triple.orders == (2, 3, 7)
    assert verify_triple(L2_7, triple) and verify_triple(L2_7, triple, (2, 3, 7))
    assert not verify_triple(L2_7, triple, (3, 2, 7))
    pair = find_conjugate_pair(A12, 5, seed=1, order=11)
    assert pair.order == 11
    assert verify_pair(A12, pair) and verify_pair(A12, pair, 11)
    assert not verify_pair(A12, pair, 7)


def test_not_found_certificates_hold_only_p_verdict_and_attempts():
    # a NotFound records nothing the search did not find, and no check
    # accepts it
    G = builtin_group('A5')
    triple = find_triple(G, 5, budget=200, seed=1)
    pair = find_conjugate_pair(builtin_group('S5'), 2, budget=30, seed=1)
    assert triple == TripleCertificate(p=5, verdict="NotFound", attempts=200)
    assert pair == PairCertificate(p=2, verdict="NotFound", attempts=30)
    assert not verify_triple(G, triple) and not verify_triple(G, triple, (3, 3, 5))
    assert not verify_pair(builtin_group('S5'), pair)


def test_verify_rejects_certificates_of_a_conjugate_group():
    # conjugating by t = (1,2), outside L2(7), gives elements that generate
    # L2(7)^t, of order 168 but not L2(7): the sifts in G's chain refuse them
    G = builtin_group('L2_7')
    t = (1, 0) + tuple(range(2, 8))
    triple = find_triple(G, 5, seed=1, orders=(2, 3, 7))
    pair = find_conjugate_pair(G, 5, seed=1)
    assert verify_triple(G, triple) and verify_pair(G, pair)
    forged_triple = triple._replace(**{k: pconj(getattr(triple, k), t) for k in "xyz"})
    forged_pair = pair._replace(**{k: pconj(getattr(pair, k), t) for k in "xhy"})
    assert PermGroup(8, [forged_triple.x, forged_triple.y]).order == 168
    assert PermGroup(8, [forged_pair.x, forged_pair.y]).order == 168
    assert not verify_triple(G, forged_triple)
    assert not verify_pair(G, forged_pair)


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
    assert res.generation_tests == 80


# generation tests each sweep counts before it ends; the orbit test of
# generated_by settles some of them without a chain, and each still counts
EXHAUSTIVE_TESTS = [
    ('S5', 2, "ProvedNone", 113), ('A5', 2, "ExistsWithWitness", 52),
    ('A5', 3, "ExistsWithWitness", 54), ('S5', 3, "ExistsWithWitness", 97),
    ('S5', 5, "ExistsWithWitness", 207), ('A6', 3, "ExistsWithWitness", 327),
    ('A6', 5, "ExistsWithWitness", 405), ('L2_7', 7, "ExistsWithWitness", 233),
    ('L2_8', 3, "ExistsWithWitness", 329),
]


@pytest.mark.parametrize("name, p, verdict, tests", EXHAUSTIVE_TESTS)
def test_exhaustive_generation_tests_are_pinned(name, p, verdict, tests):
    res = exhaustive_triple_search(builtin_group(name), p)
    assert (res.verdict, res.generation_tests) == (verdict, tests)


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
    # |A8| = 20,160 > 10^4: refused before any class is computed; a group
    # of order exactly 10^4, C16 x C5^4 on 36 points, is taken and reaches
    # its classes
    from fixspace.perm import GroupTooLarge, perm_from_cycles

    def refuse(group):
        raise AssertionError("conjugacy classes computed past the exhaustive cap")

    monkeypatch.setattr(PermGroup, "conjugacy_classes", refuse)
    with pytest.raises(GroupTooLarge, match="order 20160 exceeds exhaustive cap 10000"):
        exhaustive_triple_search(builtin_group('A8'), 5)
    cycles = [tuple(range(1, 17))] + [tuple(range(k, k + 5)) for k in range(17, 37, 5)]
    at_cap = PermGroup(36, [perm_from_cycles(36, [c]) for c in cycles])
    assert at_cap.order == 10**4
    with pytest.raises(AssertionError, match="conjugacy classes computed"):
        exhaustive_triple_search(at_cap, 5)


def test_exhaustive_accepts_precomputed_table():
    # a passed table is not read: A5's own leaves the exception standing
    from fixspace.chartab import character_table
    A5 = builtin_group('A5')
    res = exhaustive_triple_search(A5, 5, table=character_table(A5))
    assert res == exhaustive_triple_search(A5, 5)
    assert res.verdict == "ProvedNone"


def test_exhaustive_refuses_a_table_from_other_generators():
    # the sweep reads no character table, so a table of another group
    # cannot mislead it: S5's, whose class-triple counts once skipped A6's
    # class pairs that hold a witness, gives the witness and not a false
    # "none"
    from fixspace.chartab import character_table
    A6 = builtin_group('A6')
    res = exhaustive_triple_search(A6, 5, table=character_table(builtin_group('S5')))
    assert res == exhaustive_triple_search(A6, 5)
    assert res.verdict == "ExistsWithWitness" and verify_triple(A6, res.certificate)


def reference_sweep(group, p):
    """The exhaustive sweep's loops written out again, with generation
    decided by the full subgroup_order instead of generated_by."""
    classes = group.conjugacy_classes()
    live = [i for i, c in enumerate(classes) if c.element_order % p]
    tests = 0
    for i in live:
        x = classes[i].rep
        for j in live:
            for y in classes[j].members:
                if group.class_of(pinv(pmul(x, y))) not in live:
                    continue
                tests += 1
                if group.subgroup_order([x, y]) == group.order:
                    return "ExistsWithWitness", tests, x, y
    return "ProvedNone", tests, None, None


# the benchmark search workload's exhaustive sweeps
SWEEPS = [('A5', 5), ('S5', 2), ('A5', 2), ('A5', 3), ('S5', 3), ('S5', 5),
          ('A6', 3), ('A6', 5), ('L2_7', 7), ('L2_8', 3)]


@pytest.mark.parametrize("name, p", SWEEPS)
def test_pruning_never_changes_the_sweep(name, p):
    # the name is older than the tableless sweep, which prunes nothing:
    # its verdict, test count and witness (x, y) equal the reference's
    G = builtin_group(name)
    res = exhaustive_triple_search(G, p)
    cert = res.certificate
    got = (res.verdict, res.generation_tests) + ((cert.x, cert.y) if cert else (None, None))
    assert got == reference_sweep(G, p)


def test_phi_star_matches_brute_force():
    for q in [2, 3, 4, 5, 7, 8, 9]:
        for n in range(2, 13):
            assert phi_star(n, q) == phi_star_oracle(n, q), (n, q)


@pytest.mark.parametrize("n", [1, 41])
def test_phi_star_refuses_n_outside_its_range(n):
    with pytest.raises(ValueError, match=f"n = {n} outside supported range 2..40"):
        phi_star(n, 2)


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


# the draw order before a rejected x stopped drawing: x and then y (or h)
# through random_element on every attempt, with every test after both draws
def reference_triple(group, p, budget, seed, orders=None):
    stream = SeedStream(seed).fork(0)
    for attempts in range(1, budget + 1):
        x = group.random_element(stream)
        y = group.random_element(stream)
        z = pinv(pmul(x, y))
        got = tuple(element_order(g) for g in (x, y, z))
        if any(o % p == 0 for o in got) or orders is not None and got != orders:
            continue
        if group.subgroup_order([x, y]) == group.order:
            return "Generates", attempts, x, y
    return "NotFound", budget, None, None


def reference_pair(group, p, budget, seed, order=None):
    stream = SeedStream(seed).fork(0)
    for attempts in range(1, budget + 1):
        x = group.random_element(stream)
        h = group.random_element(stream)
        ox = element_order(x)
        if ox % p == 0 or order is not None and ox != order:
            continue
        if group.subgroup_order([x, pconj(x, h)]) == group.order:
            return "Generates", attempts, x, h
    return "NotFound", budget, None, None


def listed_copy(name):
    """A fresh build of a builtin group, with the same chain and streams,
    that has listed its element orders: |G| order-tested draws on a
    throwaway stream make it list (see PermGroup.random_order)."""
    G = builtin_group(name)
    H = PermGroup(G.degree, G.gens, name=name)
    stream = SeedStream(0)
    for _ in range(H.order):
        H.random_order(stream)
    assert H._orders is not None
    return H


@pytest.mark.parametrize("name, p, budget, orders", [
    ("A7", 2, 10**5, (5, 5, 5)),
    ("A6", 5, 10**5, (4, 4, 4)),
    ("L2_7", 3, 10**5, None),
    ("A5", 5, 200, None),
    # three distinct orders: a filter reading the wrong entry of orders
    # finds another triple
    ("L2_7", 5, 10**5, (2, 3, 7)),
    # a budget some seeds run out of: 8, 10 and 16 of the 25 find a
    # triple at budgets 2, 3 and 4
    ("L2_7", 3, 3, None),
])
def test_find_triple_matches_reference_draws(name, p, budget, orders):
    # the cached group may list partway through these searches (A7 at its
    # 2,520th draw); the copy has listed before its first search
    for G in (builtin_group(name), listed_copy(name)):
        for seed in range(1, 26):
            cert = find_triple(G, p, budget=budget, seed=seed, orders=orders)
            assert (cert.verdict, cert.attempts, cert.x, cert.y) == reference_triple(
                G, p, budget, seed, orders), (G._orders is None, seed)


def test_find_conjugate_pair_matches_reference_draws():
    # A12 never lists; L2_7 with and without a wanted order, each before
    # and after listing; two involutions only generate a dihedral group,
    # so the order-2 row is NotFound within its small budget; at budget 2,
    # 16 of the 25 seeds find a pair (21 at budget 3)
    cases = [(builtin_group("A12"), 5, 11, 10**5)]
    for G in (builtin_group("L2_7"), listed_copy("L2_7")):
        cases += [(G, 3, None, 10**5), (G, 3, 7, 10**5), (G, 7, 2, 40), (G, 3, None, 2)]
    verdicts = set()
    for G, p, order, budget in cases:
        for seed in range(1, 26):
            cert = find_conjugate_pair(G, p, budget=budget, seed=seed, order=order)
            got = (cert.verdict, cert.attempts, cert.x, cert.h)
            assert got == reference_pair(G, p, budget, seed, order), (G, p, order, seed)
            verdicts.add(cert.verdict)
    assert verdicts == {"Generates", "NotFound"}
