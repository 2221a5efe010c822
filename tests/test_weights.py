import hashlib
from collections import Counter
from itertools import product

import pytest

from fixspace.cli import eval_twist_divisibility
from fixspace.ff import (is_prime, make_field, multiplicative_generator,
                         poly_divides, poly_mul)
from fixspace.weights import (HypothesisViolated, NotDominant, NotRestricted,
                              TooLarge, _compare_divisibility, _dominant_below,
                              _scaled, _tensor,
                              check_sym_divisibility, check_twist_divisibility,
                              root_system, sl2_distinct_eigenvalues,
                              weight_multiset, weyl_dim)
from torus import torus_char_poly

POSITIVE_COUNTS = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9,
                   "C3": 9, "D4": 12, "G2": 6}

SYSTEMS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
           "D3", "D4", "G2"]


def test_positive_root_counts():
    for name, count in POSITIVE_COUNTS.items():
        assert len(root_system(name).positive) == count


def test_cartan_matrices():
    assert root_system("A2").cartan == ((2, -1), (-1, 2))
    assert root_system("B2").cartan == ((2, -1), (-2, 2))
    assert root_system("G2").cartan == ((2, -3), (-1, 2))


def test_symmetrized_cartan():
    for name in SYSTEMS:
        rs = root_system(name)
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert rs.norm[i] * rs.cartan[i][j] == rs.norm[j] * rs.cartan[j][i]


def test_adjoint_module_oracle():
    # the highest root is the highest weight of the adjoint module, whose
    # weights are the roots (once each) and 0 (rank times)
    for name in SYSTEMS:
        rs = root_system(name)
        highest = max(rs.positive, key=sum)
        wms = weight_multiset(rs, rs.root_to_fund(highest))
        roots = [rs.root_to_fund(a) for a in rs.positive]
        roots += [tuple(-c for c in r) for r in roots]
        assert wms.total() == rs.rank + 2 * len(rs.positive), name
        assert wms.multiplicity((0,) * rs.rank) == rs.rank, name
        assert sorted(w for w, _ in wms.entries if any(w)) == sorted(roots), name
        assert all(m == 1 for w, m in wms.entries if any(w)), name


def test_symmetric_power_oracle():
    # Sym^s of the natural module of A_{n-1}: one weight per degree-s
    # monomial x^e, with fundamental coordinates e_i - e_{i+1}
    for n in range(2, 6):
        rs = root_system(f"A{n - 1}")
        for s in range(1, 4):
            monomials = Counter(
                tuple(e[i] - e[i + 1] for i in range(n - 1))
                for e in product(range(s + 1), repeat=n) if sum(e) == s)
            wms = weight_multiset(rs, (s,) + (0,) * (n - 2))
            assert wms.entries == tuple(sorted(monomials.items())), (n, s)


def test_weyl_dims_classical():
    assert [weyl_dim(root_system("A1"), (s,)) for s in range(5)] == [1, 2, 3, 4, 5]
    A2 = root_system("A2")
    assert weyl_dim(A2, (1, 0)) == 3
    assert weyl_dim(A2, (1, 1)) == 8
    assert weyl_dim(A2, (2, 0)) == 6
    assert weyl_dim(root_system("A3"), (0, 1, 0)) == 6
    assert weyl_dim(root_system("B2"), (1, 0)) == 5
    assert weyl_dim(root_system("B2"), (0, 1)) == 4
    assert weyl_dim(root_system("C3"), (1, 0, 0)) == 6
    assert weyl_dim(root_system("D4"), (1, 0, 0, 0)) == 8


def test_weyl_dims_g2():
    G2 = root_system("G2")
    assert weyl_dim(G2, (1, 0)) == 7
    assert weyl_dim(G2, (0, 1)) == 14


def test_weight_multiset_sl2():
    wms = weight_multiset(root_system("A1"), (2,))
    assert wms.entries == (((-2,), 1), ((0,), 1), ((2,), 1))


def test_weight_multiset_adjoint_a2():
    wms = weight_multiset(root_system("A2"), (1, 1))
    assert wms.total() == 8
    assert wms.multiplicity((0, 0)) == 2
    # the six roots each occur once
    nonzero = [(w, m) for w, m in wms.entries if w != (0, 0)]
    assert len(nonzero) == 6
    assert all(m == 1 for _, m in nonzero)


def test_weight_multiset_g2_seven():
    wms = weight_multiset(root_system("G2"), (1, 0))
    assert wms.total() == 7
    assert wms.multiplicity((0, 0)) == 1
    assert wms.multiplicity((1, 0)) == 1
    assert len(wms.entries) == 7


def box_scan_dominant(rs, lam):
    """Every dominant v <= lam -> simple-root coordinates of lam - v, by
    scanning a box: walking -lam to its dominant representative -w0(lam)
    climbs by lam - w0(lam), which bounds those coordinates."""
    w, box = tuple(-c for c in lam), [0] * rs.rank
    while min(w) < 0:
        i = next(j for j in range(rs.rank) if w[j] < 0)
        box[i] -= w[i]
        w = rs.reflect_fund(w, i)
    out = {}
    for cvec in product(*(range(b + 1) for b in box)):
        v = tuple(a - b for a, b in zip(lam, rs.root_to_fund(cvec)))
        if min(v) >= 0:
            out[v] = cvec
    return out


# every accepted system at every dominant weight of coordinate sum <= 6,
# 4 or 3 for rank <= 2, 3 or 4
GRID_SUM = {1: 6, 2: 6, 3: 4, 4: 3}
GRID = [(name, lam) for name in SYSTEMS
        for rank in [root_system(name).rank]
        for lam in product(range(GRID_SUM[rank] + 1), repeat=rank)
        if sum(lam) <= GRID_SUM[rank]]
# SHA-256 of repr((system, lam, entries)) over GRID, in order, recorded
# from the box scan before the positive-root walk replaced it
GRID_DIGEST = "7de3a9734c9934ff8950c60acf5ab3b40ba147166229fcce4e4dd6a7682e6577"


def test_dominant_walk_matches_box_scan():
    assert len(GRID) == 399
    for name, lam in GRID:
        rs = root_system(name)
        assert _dominant_below(rs, lam) == box_scan_dominant(rs, lam), (name, lam)


def test_weight_multisets_over_the_grid_match_the_recorded_digest():
    h = hashlib.sha256()
    for name, lam in GRID:
        h.update(repr((name, lam, weight_multiset(root_system(name), lam).entries)).encode())
    assert h.hexdigest() == GRID_DIGEST


def test_totals_match_weyl_dim():
    cases = [("A1", (4,)), ("A2", (2, 1)), ("A3", (1, 0, 1)),
             ("B2", (1, 1)), ("C3", (0, 1, 0)), ("D4", (0, 1, 0, 0)),
             ("G2", (0, 1))]
    for name, lam in cases:
        rs = root_system(name)
        assert weight_multiset(rs, lam).total() == weyl_dim(rs, lam), (name, lam)


def test_multiplicities_weyl_invariant():
    for name, lam in [("A2", (2, 1)), ("B2", (1, 1)), ("G2", (0, 1))]:
        rs = root_system(name)
        wms = weight_multiset(rs, lam)
        for w, m in wms.entries:
            for i in range(rs.rank):
                assert wms.multiplicity(rs.reflect_fund(w, i)) == m


def test_highest_weight_multiplicity_one():
    for name, lam in [("A1", (3,)), ("A2", (1, 1)), ("G2", (1, 0))]:
        rs = root_system(name)
        assert weight_multiset(rs, lam).multiplicity(lam) == 1


def test_root_system_rejects_unknown():
    with pytest.raises(ValueError):
        root_system("A9")
    with pytest.raises(ValueError):
        root_system("E8")
    with pytest.raises(ValueError):
        root_system("G3")
    with pytest.raises(ValueError, match="bad root system name: 'A10'"):
        root_system("A10")


def test_dominance_checked():
    rs = root_system("A2")
    with pytest.raises(NotDominant):
        weyl_dim(rs, (-1, 0))
    with pytest.raises(NotDominant, match="coordinates must be integers"):
        weyl_dim(rs, (1, "1"))
    with pytest.raises(ValueError):
        weyl_dim(rs, (1,))


def test_dimension_cap():
    with pytest.raises(TooLarge):
        weight_multiset(root_system("A1"), (2 * 10 ** 5,))


def test_torus_char_poly_sl2():
    # weights 2, 0, -2 evaluated at t give roots t^2, 1, t^-2
    F = make_field(7)
    wms = weight_multiset(root_system("A1"), (2,))
    t = F.element(3)
    got = torus_char_poly(wms, (t,), F)
    expected = (F.one,)
    for root in [F.pow(t, 2), F.one, F.pow(t, -2)]:
        expected = poly_mul(F, expected, (F.neg(root), F.one))
    assert got == expected
    assert len(got) - 1 == wms.total()


def test_torus_char_poly_rejects_zero():
    F = make_field(5)
    wms = weight_multiset(root_system("A1"), (1,))
    with pytest.raises(ValueError):
        torus_char_poly(wms, (F.zero,), F)


def separating_point(rank, bound):
    """A prime field and a torus point t = (g, g^B) at which distinct
    weights with coordinates in [-bound, bound] take distinct values:
    t^mu = g^(mu_1 + B mu_2) with B = 2 bound + 1, and the multiplicative
    group's order exceeds every difference of those exponents."""
    base = 2 * bound + 1
    span = 2 * bound * (base + 1 if rank == 2 else 1)
    q = next(q for q in range(span + 2, 2 * span + 4) if is_prime(q))
    F = make_field(q)
    g = multiplicative_generator(F)
    return F, (g, F.pow(g, base))[:rank]


def torus_divides(small, big):
    """Divisibility of the torus characteristic polynomials at a point
    that separates the weights of both multisets; by unique factorization
    it holds exactly when small is contained in big."""
    bound = max(abs(c) for wms in (small, big) for w, _ in wms.entries for c in w)
    F, t = separating_point(small.rank, bound)
    return poly_divides(F, torus_char_poly(small, t, F), torus_char_poly(big, t, F))


def test_containment_verdict_matches_torus_divisibility():
    A1, A2 = root_system("A1"), root_system("A2")
    grid = {A1: [weight_multiset(A1, (s,)) for s in range(5)],
            A2: [weight_multiset(A2, lam) for lam in
                 [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]]}
    for rs, lam, twist in [(A1, (1,), 3), (A1, (2,), 3), (A2, (1, 0), 2)]:
        twisted = _scaled(weight_multiset(rs, lam), twist)
        grid[rs].append(twisted)
        grid[rs] += [_tensor(base, twisted) for base in grid[rs][:3]]
    verdicts = set()
    for entries in grid.values():
        for small, big in product(entries, repeat=2):
            rep = _compare_divisibility(small, big)
            assert (rep.verdict == "holds") == torus_divides(small, big), (small, big)
            if rep.verdict == "fails":
                w = rep.short_weight
                assert small.multiplicity(w) > big.multiplicity(w)
            else:
                assert rep.short_weight == ()
            verdicts.add(rep.verdict)
    assert verdicts == {"holds", "fails"}


def test_twist_verdicts_match_torus_divisibility():
    # every admitted A1 pair at p = 5: holds exactly for even lam0, whose
    # module has the zero weight; odd lam0 is NotApplicable
    A1 = root_system("A1")
    for lam0, lam1 in product(range(5), repeat=2):
        rep = check_twist_divisibility(A1, (lam0,), (lam1,), 5)
        twisted = _scaled(weight_multiset(A1, (lam1,)), 5)
        tensor = _tensor(weight_multiset(A1, (lam0,)), twisted)
        if lam0 % 2:
            assert rep == ("NotApplicable", ())
        else:
            assert rep == ("holds", ()) and torus_divides(twisted, tensor)


def test_twist_divisibility_sl2():
    rep = check_twist_divisibility(root_system("A1"), (2,), (1,), 5)
    assert rep.verdict == "holds"
    assert rep.short_weight == ()


def test_twist_divisibility_refuses_exponents_below_two():
    with pytest.raises(ValueError, match="twist exponent must be at least 2: 1"):
        check_twist_divisibility(root_system("A1"), (2,), (1,), 1)


def test_twist_divisibility_needs_zero_weight():
    rep = check_twist_divisibility(root_system("A1"), (1,), (1,), 5)
    assert rep.verdict == "NotApplicable"
    assert rep.short_weight == ()


def test_twist_divisibility_sl3():
    rep = check_twist_divisibility(root_system("A2"), (1, 1), (1, 0), 7)
    assert rep.verdict == "holds"


def steinberg_weights(lam, p):
    """Weights of the simple SL2 module L(lam) in characteristic p, by
    Steinberg's tensor product theorem: L(lam) is the tensor product of
    the twists L(d_i)^(p^i) over the base-p digits d_i of lam, and the
    restricted L(d) has weights d, d - 2, ..., -d."""
    weights = Counter({0: 1})
    scale = 1
    while lam:
        lam, digit = divmod(lam, p)
        step = Counter()
        for w, m in weights.items():
            for d in range(-digit, digit + 1, 2):
                step[w + scale * d] += m
        weights, scale = step, scale * p
    return weights


def admits(rs, lam0, lam1, p):
    try:
        check_twist_divisibility(rs, lam0, lam1, p)
    except HypothesisViolated:
        return False
    return True


def test_twist_guard_matches_steinberg_on_a1():
    # on A1 the guard admits exactly lam <= p - 1, and there the
    # characteristic-0 weights are the simple module's.  The guard is
    # sufficient, not necessary: below p^2 the Weyl module is also simple
    # when the last base-p digit is p - 1, and the guard refuses those.
    A1 = root_system("A1")
    for p in (2, 3, 5, 7):
        for lam in range(p * p):
            admitted = admits(A1, (lam,), (0,), p)
            freudenthal = Counter({w[0]: m for w, m in weight_multiset(A1, (lam,)).entries})
            same = steinberg_weights(lam, p) == freudenthal
            assert same or not admitted, (p, lam)
            assert same == (lam < p or lam % p == p - 1), (p, lam)
            assert admitted == (lam <= p - 1), (p, lam)
            assert admits(A1, (0,), (lam,), p) == admitted, (p, lam)


def test_twist_guard_refuses_steinberg_counterexample():
    # in characteristic 5, L(6) = L(1) x L(1)^(5) has weights +-6, +-4 and
    # no zero weight, while the Weyl module V(6) has one
    with pytest.raises(HypothesisViolated):
        eval_twist_divisibility("A1", "6", "1", 5)


def test_twist_guard_on_a2():
    # <(1,1) + rho, alpha^vee> peaks at 4 on the highest root
    A2 = root_system("A2")
    assert check_twist_divisibility(A2, (1, 1), (1, 0), 5).verdict == "holds"
    with pytest.raises(HypothesisViolated):
        check_twist_divisibility(A2, (1, 1), (1, 0), 3)
    with pytest.raises(HypothesisViolated):
        check_twist_divisibility(A2, (0, 0), (2, 1), 3)


def test_sym_divisibility_grid():
    fields = {(2, 1): 5, (2, 2): 5, (2, 3): 7, (3, 1): 5, (3, 2): 7, (3, 3): 7}
    for (n, s), p in fields.items():
        rep = check_sym_divisibility(n, s, p)
        assert rep.verdict == "holds", (n, s)
        assert rep.short_weight == ()


def test_sym_divisibility_small_characteristic():
    with pytest.raises(HypothesisViolated):
        check_sym_divisibility(2, 1, 3)


@pytest.mark.parametrize("n, s, message", [
    (1, 1, "n must be between 2 and 5: 1"), (6, 1, "n must be between 2 and 5: 6"),
    (2, 0, "s must be positive: 0")])
def test_sym_divisibility_refuses_n_and_s_out_of_range(n, s, message):
    with pytest.raises(ValueError, match=message):
        check_sym_divisibility(n, s, 11)


def test_eigen_separation_criterion():
    for q in [3, 5, 7, 9, 11, 13]:
        p = {9: 3}.get(q, q)
        for s in range(p):
            rep = sl2_distinct_eigenvalues(q, s)
            assert rep.distinct == (2 * (s + 1) - 2 < q + 1), (q, s)
            assert rep.module_dim == s + 1
            assert rep.torus_order == q + 1


def test_eigen_separation_examples():
    assert sl2_distinct_eigenvalues(9, 2).distinct
    assert sl2_distinct_eigenvalues(13, 6).distinct
    rep = sl2_distinct_eigenvalues(5, 4)
    assert not rep.distinct
    lo, hi = rep.witness
    assert lo != hi and (lo - hi) % 2 == 0


@pytest.mark.parametrize("q, s, witness", [
    (17, 3, (162, 243, 56, 145)),
    (25, 4, (536, 578, 1, 203, 166)),
    (27, 2, (340, 1, 307)),
    (101, 3, (4991, 3400, 6935, 5294)),
])
def test_eigen_separation_witnesses_above_the_table_cap(q, s, witness):
    # GF(q^2) has more than 256 elements, so these run on ff's digit
    # arithmetic alone; the eigenvalues were pinned with tuple elements
    rep = sl2_distinct_eigenvalues(q, s)
    assert rep.distinct and rep.witness == witness


def test_eigen_separation_guards():
    with pytest.raises(NotRestricted):
        sl2_distinct_eigenvalues(9, 3)
    with pytest.raises(ValueError):
        sl2_distinct_eigenvalues(8, 1)
    with pytest.raises(ValueError):
        sl2_distinct_eigenvalues(15, 1)
