from collections import Counter
from itertools import product

import pytest

from fixspace.ff import make_field, poly_mul
from fixspace.weights import (HypothesisViolated, NotDominant, NotRestricted,
                              TooLarge, ZeroTorusValue,
                              check_sym_divisibility, check_twist_divisibility,
                              root_system, sl2_distinct_eigenvalues,
                              torus_char_poly, torus_sample_set,
                              weight_multiset, weyl_dim)

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


def test_dominance_checked():
    rs = root_system("A2")
    with pytest.raises(NotDominant):
        weyl_dim(rs, (-1, 0))
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
    with pytest.raises(ZeroTorusValue):
        torus_char_poly(wms, (F.zero,), F)


def test_torus_sample_set_deterministic():
    F = make_field(5, 2)
    a = torus_sample_set(F, 2, 5, seed=7)
    b = torus_sample_set(F, 2, 5, seed=7)
    assert a == b
    assert all(len(t) == 2 and all(not F.is_zero(x) for x in t) for x in a for t in [x])


def test_twist_divisibility_sl2():
    F = make_field(5, 2)
    rs = root_system("A1")
    samples = torus_sample_set(F, 1, 12, seed=3)
    rep = check_twist_divisibility(rs, (2,), (1,), 5, samples, F)
    assert rep.verdict == "holds"
    assert rep.containment_ok
    assert rep.samples_checked == 12
    assert rep.failed_samples == ()


def test_twist_divisibility_needs_zero_weight():
    F = make_field(5, 2)
    rs = root_system("A1")
    samples = torus_sample_set(F, 1, 4, seed=3)
    rep = check_twist_divisibility(rs, (1,), (1,), 5, samples, F)
    assert rep.verdict == "NotApplicable"
    assert rep.samples_checked == 0


def test_twist_divisibility_sl3():
    F = make_field(7, 2)
    rs = root_system("A2")
    samples = torus_sample_set(F, 2, 10, seed=11)
    rep = check_twist_divisibility(rs, (1, 1), (1, 0), 7, samples, F)
    assert rep.verdict == "holds"


def test_sym_divisibility_grid():
    fields = {(2, 1): 5, (2, 2): 5, (2, 3): 7, (3, 1): 5, (3, 2): 7, (3, 3): 7}
    for (n, s), p in fields.items():
        F = make_field(p)
        samples = torus_sample_set(F, n - 1, 8, seed=n * 10 + s)
        rep = check_sym_divisibility(n, s, samples, F)
        assert rep.verdict == "holds", (n, s)
        assert rep.containment_ok


def test_sym_divisibility_small_characteristic():
    F = make_field(3)
    with pytest.raises(HypothesisViolated):
        check_sym_divisibility(2, 1, [], F)


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


def test_eigen_separation_guards():
    with pytest.raises(NotRestricted):
        sl2_distinct_eigenvalues(9, 3)
    with pytest.raises(ValueError):
        sl2_distinct_eigenvalues(8, 1)
    with pytest.raises(ValueError):
        sl2_distinct_eigenvalues(15, 1)
