from fractions import Fraction

import pytest

from fixspace import bounds
from fixspace.bounds import (NotIrreducible, ScottReport, TrivialAction, catalog,
                             check_bound_theorems, extraspecial_free_check,
                             min_semisimple_fixdim, scott_check, scott_suite,
                             sl3_adjoint_heart, sl_p_adjoint_check)
from fixspace.ff import make_field, poly_roots, prime_power
from fixspace.linalg import mat_vec, nullity, shift
from fixspace.matrep import (MatRep, build_rep, builtin_matgroup, char_poly, deleted,
                             eigenspace_profile, embed_matrix_group, fixed_space_dim, section,
                             frobenius_twist, is_irreducible, module_dual_fixed_dim,
                             module_fixed_dim, perm_module, sym_power, tensor)
from fixspace.perm import NotInGroup, builtin_group, pinv, pmul, ppow
from fixspace.rng import SeedStream


def deleted_rep(name, q):
    return build_rep(deleted(perm_module(builtin_group(name))), make_field(q))


def test_min_fixdim_mersenne_modules():
    # affine sharpness families: every fixdim hits (n - 1) / 2 exactly
    rep7 = deleted_rep('F56', 7)
    cls, d = min_semisimple_fixdim(rep7)
    assert d == 3 and cls.element_order == 2
    for c in rep7.group.conjugacy_classes():
        if c.element_order == 1 or c.element_order % 7 == 0:
            continue
        assert fixed_space_dim(rep7, c.rep) == 3

    rep3 = deleted_rep('F12', 3)
    cls, d = min_semisimple_fixdim(rep3)
    assert d == 1 and cls.element_order == 2
    for c in rep3.group.conjugacy_classes():
        if c.element_order == 1 or c.element_order % 3 == 0:
            continue
        assert fixed_space_dim(rep3, c.rep) == 1


def test_min_fixdim_deleted_a5():
    rep = deleted_rep('A5', 7)
    cls, d = min_semisimple_fixdim(rep)
    assert d == 0
    assert cls.element_order == 5


def test_min_fixdim_rejects_trivial_prime_pool():
    # the order-2 group has no nontrivial 2'-elements at all, and p = 2 is
    # the characteristic of the module's field
    from fixspace.perm import parse_group_text
    G = parse_group_text("group C2\ndegree 2\ngen (1,2)\n")
    rep = build_rep(deleted(perm_module(G)), make_field(2))
    with pytest.raises(ValueError, match="no nontrivial semisimple classes"):
        min_semisimple_fixdim(rep)


def test_bound_report_refuses_p_other_than_the_field_characteristic():
    # at p = 2 the gate p | n of coprime-dim-three-eighths would read false
    # on this dimension-5 module over GF(5), and the clause would apply
    rep = deleted_rep('A6', 5)
    with pytest.raises(ValueError, match="p = 2 is not the characteristic 5"):
        check_bound_theorems(rep, 2)
    report = check_bound_theorems(rep, 5)
    assert report == check_bound_theorems(rep) and report.p == 5
    by_name = {c.clause: c for c in report.clauses}
    assert not by_name["coprime-dim-three-eighths"].applicable


def test_bound_report_structure():
    rep = deleted_rep('F56', 7)
    report = check_bound_theorems(rep)
    assert report.dim == 7 and report.p == 7
    assert report.min_fixed_dim == 3
    assert report.holds
    names = [c.clause for c in report.clauses]
    assert names == ["half-strict", "coprime-order-third", "large-char-third",
                     "coprime-dim-three-eighths", "two-primitive-third",
                     "prime-dim-line-eigenspaces"]
    by_name = {c.clause: c for c in report.clauses}
    # 3 < 7/2 strictly
    assert by_name["half-strict"].strict
    assert by_name["half-strict"].satisfied
    # 7 divides 56, p = dim, p = n and p < n + 2: gates off
    assert not by_name["coprime-order-third"].applicable
    assert not by_name["large-char-third"].applicable
    assert not by_name["coprime-dim-three-eighths"].applicable
    # 2 has order 3 mod 7, not 6, so the primitive-root gate is off
    tp = by_name["two-primitive-third"]
    assert not tp.applicable
    assert tp.threshold == Fraction(7, 3)
    # eigenvalue clause gated off: p = 7 < 2*7 - 3
    assert not by_name["prime-dim-line-eigenspaces"].applicable


def test_two_primitive_clause_gate():
    # dim 4: not an odd prime, the clause must be inapplicable
    rep = deleted_rep('A5', 7)
    by_name = {c.clause: c for c in check_bound_theorems(rep).clauses}
    assert not by_name["two-primitive-third"].applicable
    # dim 5: 2 generates the units mod 5, clause live and satisfied
    rep = deleted_rep('A6', 7)
    by_name = {c.clause: c for c in check_bound_theorems(rep).clauses}
    tp = by_name["two-primitive-third"]
    assert tp.applicable
    assert tp.threshold == Fraction(5, 3)
    assert tp.satisfied
    # dim 6, p = 13 > n + 2: large-char clause live
    rep = deleted_rep('A7', 13)
    by_name = {c.clause: c for c in check_bound_theorems(rep).clauses}
    assert by_name["large-char-third"].applicable
    assert by_name["large-char-third"].satisfied


def test_line_eigenspace_clause_live():
    # dim 3, p = 7 > 2*3 - 3: the extraspecial module keeps every
    # eigenspace on a line
    from fixspace.matrep import builtin_matgroup
    _, rep = builtin_matgroup('E27')
    by_name = {c.clause: c for c in check_bound_theorems(rep).clauses}
    clause = by_name["prime-dim-line-eigenspaces"]
    assert clause.applicable
    assert clause.satisfied
    assert clause.witness_dim == 1


def test_bounds_reject_reducible():
    rep = build_rep(perm_module(builtin_group('A5')), make_field(7))
    with pytest.raises(NotIrreducible):
        check_bound_theorems(rep)


def test_bounds_reject_trivial_action():
    # p = 5 divides the 5 points: the deleted module's automatic section
    # is the line of the all-ones vector, where A5 acts as the identity
    rep = build_rep(section(deleted(perm_module(builtin_group('A5'))), "sub"),
                    make_field(5))
    assert rep.dim == 1 and is_irreducible(rep).irreducible
    with pytest.raises(TrivialAction):
        check_bound_theorems(rep)


def test_catalog_size_and_irreducibility():
    entries = catalog()
    assert len(entries) >= 25
    idents = [e.ident for e in entries]
    assert len(set(idents)) == len(idents)
    for e in entries:
        assert is_irreducible(e.rep, SeedStream(3)).irreducible, e.ident


def test_catalog_bounds_hold():
    for e in catalog():
        report = check_bound_theorems(e.rep, e.p)
        assert report.holds, (e.ident, report)


def test_scott_inequality_single_pair():
    rep = deleted_rep('A5', 3)
    G = rep.group
    stream = SeedStream(5)
    x = G.random_element(stream)
    y = G.random_element(stream)
    report = scott_check(rep, x, y)
    assert report.holds
    assert report.lhs == report.fixed_x + report.fixed_y + report.fixed_product_inv
    assert report.rhs == report.ambient + report.invariants + report.dual_invariants


def test_scott_suite_clean():
    rep = deleted_rep('A6', 5)
    report = scott_suite(rep, pairs=300, seed=9)
    assert report.checked == 300
    assert report.violations == ()


# the three-image Scott check against the composition it replaced ----------


def old_scott(rep, x, y):
    """Fixed dims one element at a time, joint fixed dims on V and on its
    dual from stacked images; every element is sifted."""
    dx = fixed_space_dim(rep, x)
    dy = fixed_space_dim(rep, y)
    dz = fixed_space_dim(rep, pinv(pmul(x, y)))
    inv = module_fixed_dim(rep, (x, y))
    dinv = module_dual_fixed_dim(rep, (x, y))
    lhs, rhs = dx + dy + dz, rep.dim + inv + dinv
    return ScottReport(lhs, rhs, dx, dy, dz, rep.dim, inv, dinv, lhs <= rhs)


def extension_field_modules():
    """Deleted A5 over GF(4), deleted A6 over GF(25), and the natural
    module of SL2(9) tensored with its Frobenius twist over GF(9)."""
    F4, F9, F25 = make_field(2, 2), make_field(3, 2), make_field(5, 2)
    out = [build_rep(deleted(perm_module(builtin_group(name))), F)
           for name, F in (("A5", F4), ("A6", F25))]
    _, nat = embed_matrix_group(
        F9, 2, [[[1, 1], [0, 1]], [[1, 3], [0, 1]], [[0, 1], [2, 0]]],
        name="SL2_9")
    out.append(build_rep(tensor(nat.spec, frobenius_twist(nat.spec, 1)), F9))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scott_check_matches_old_composition(seed):
    reps = [(e.ident, e.rep) for e in catalog()]
    reps += [(repr(rep), rep) for rep in extension_field_modules()]
    assert len(reps) == 64
    joint = 0
    for ident, rep in reps:
        stream = SeedStream(seed)
        pairs = [(rep.group.random_element(stream), rep.group.random_element(stream))
                 for _ in range(20)]
        # x and x^2 generate a cyclic group, which keeps fixed vectors
        pairs.append((pairs[0][0], ppow(pairs[0][0], 2)))
        for x, y in pairs:
            got = scott_check(rep, x, y)
            assert got == old_scott(rep, x, y), (ident, x, y)
            joint += got.invariants > 0
    assert joint


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scott_check_branches_match_old_composition(seed, monkeypatch):
    # on the pairs of test_scott_check_matches_old_composition: a pair with
    # min(dx, dy, dz) = 0 grows no basis beyond its elements' own, one per
    # distinct element, and a pair with min > 0 grows two more (X's copy by
    # Y's rows, and the rows of X beside Y); over prime and extension fields
    # both kinds occur, and every report is old_scott's
    reps = [(e.ident, e.rep) for e in catalog()]
    reps += [(repr(rep), rep) for rep in extension_field_modules()]
    assert len(reps) == 64
    grown = [0]
    extend = bounds.extend_basis

    def counted(*args):
        grown[0] += 1
        return extend(*args)

    monkeypatch.setattr(bounds, "extend_basis", counted)
    kinds = set()
    for ident, rep in reps:
        stream = SeedStream(seed)
        pairs = [(rep.group.random_element(stream), rep.group.random_element(stream))
                 for _ in range(20)]
        pairs.append((pairs[0][0], ppow(pairs[0][0], 2)))
        for x, y in pairs:
            grown[0] = 0
            got = scott_check(rep, x, y)
            joint = min(got.fixed_x, got.fixed_y, got.fixed_product_inv) > 0
            assert grown[0] == len({x, y, pinv(pmul(x, y))}) + 2 * joint, (ident, x, y)
            assert got == old_scott(rep, x, y), (ident, x, y)
            kinds.add((rep.field.k > 1, joint))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_scott_check_tells_the_dual_from_the_module():
    # x = 1 + E12 and y = 1 + E13 on the natural SL3(3) module fix the line
    # of e1, while on the dual they fix the plane e1* = 0
    group, nat = builtin_matgroup("SL3_3")
    orbit = nat.spec.orbit
    index = {v: i for i, v in enumerate(orbit)}
    F = nat.field

    def perm_of(M):
        return tuple(index[mat_vec(F, M, v)] for v in orbit)

    x = perm_of([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    y = perm_of([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    got = scott_check(nat, x, y)
    assert (got.invariants, got.dual_invariants) == (1, 2)
    assert got == old_scott(nat, x, y)


def test_scott_check_rejects_elements_outside_the_group():
    rep = deleted_rep("A5", 3)
    inside = rep.group.random_element(SeedStream(2))
    odd = (1, 0, 2, 3, 4)            # a transposition: in S5, not in A5
    with pytest.raises(NotInGroup):
        scott_check(rep, odd, inside)
    with pytest.raises(NotInGroup):
        scott_check(rep, inside, odd)


def test_scott_check_takes_a_list_pair_as_the_same_tuples():
    # fixed_space_dim takes a list; so does scott_check, whose memo keys
    # on the elements
    rep = deleted_rep("A5", 3)
    stream = SeedStream(4)
    for _ in range(5):
        x, y = rep.group.random_element(stream), rep.group.random_element(stream)
        assert scott_check(rep, list(x), list(y)) == scott_check(rep, x, y)
        assert fixed_space_dim(rep, list(x)) == fixed_space_dim(rep, x)


# scott_suite's per-call memo against checks that image every element ----


def suite_reports(monkeypatch, rep, pairs, seed):
    """scott_suite's report, each per-pair (x, y, ScottReport) it computed,
    and how many images it took."""
    seen = []
    images = [0]
    scott, image = bounds._scott, MatRep.image

    def spy(rep, x, y, memo):
        report = scott(rep, x, y, memo)
        seen.append((x, y, report))
        return report

    def counted(self, g):
        images[0] += 1
        return image(self, g)

    with monkeypatch.context() as m:
        m.setattr(bounds, "_scott", spy)
        m.setattr(MatRep, "image", counted)
        suite = scott_suite(rep, pairs=pairs, seed=seed)
    return suite, seen, images[0]


def drawn_pairs(rep, pairs, seed):
    """The pairs scott_suite draws, drawn again from its seed."""
    stream = SeedStream(seed)
    return [(rep.group.random_element(stream), rep.group.random_element(stream))
            for _ in range(pairs)]


def memo_cases():
    """name -> (rep, pairs): three suites that draw most of G, and deleted
    A6 over GF(5) with |G| = 360 > 3 * 50, where repeats are rare."""
    _, nat = builtin_matgroup("SL2_5")
    a5_gf4, _, sl2_9 = extension_field_modules()
    return {"sym2-sl2_5-gf5": (build_rep(sym_power(nat.spec, 2), nat.field), 200),
            "deleted-a5-gf4": (a5_gf4, 40),
            "sl2_9-natural-twist-gf9": (sl2_9, 250),
            "deleted-a6-gf5-few-repeats": (deleted_rep("A6", 5), 50)}


@pytest.mark.parametrize("name", ["sym2-sl2_5-gf5", "deleted-a5-gf4",
                                  "sl2_9-natural-twist-gf9", "deleted-a6-gf5-few-repeats"])
def test_scott_suite_memo_matches_scott_check(monkeypatch, name):
    rep, pairs = memo_cases()[name]
    suite, seen, images = suite_reports(monkeypatch, rep, pairs, seed=5)
    drawn = drawn_pairs(rep, pairs, seed=5)
    full = {(x, y): scott_check(rep, x, y) for x, y in drawn}
    assert suite.checked == pairs
    assert suite.violations == tuple((x, y) for x, y in drawn if not full[x, y].holds)
    # the suite takes the stacked ranks of exactly the pairs with
    # dx + dy + dz > n: a pair it skips holds whatever its invariants
    assert [(x, y) for x, y, _ in seen] == [(x, y) for x, y in drawn
                                            if full[x, y].lhs > rep.dim]
    for x, y, report in seen:
        assert report == old_scott(rep, x, y) == full[x, y], (x, y)
    # one image per distinct element, however often the suite draws it
    distinct = {g for x, y in drawn for g in (x, y, pinv(pmul(x, y)))}
    assert images == len(distinct) < 3 * pairs


def test_scott_suite_memo_lives_for_one_call(monkeypatch):
    rep, pairs = memo_cases()["deleted-a5-gf4"]
    keys = set(rep.__dict__)
    first = suite_reports(monkeypatch, rep, pairs, seed=3)
    second = suite_reports(monkeypatch, rep, pairs, seed=3)
    assert first[0] == second[0] and first[1] == second[1]
    assert first[2] == second[2] < 3 * pairs
    assert set(rep.__dict__) == keys


def test_sl3_adjoint_heart_dimensions():
    rep = sl3_adjoint_heart()
    assert rep.dim == 7
    assert rep.field.p == 3
    assert is_irreducible(rep, SeedStream(2)).irreducible


def test_sl_p_adjoint_check():
    report = sl_p_adjoint_check()
    assert report.holds
    assert report.ambient_dim == 9
    assert report.section_dim == 7
    assert report.bound == 1
    assert report.min_fixed == 1
    assert report.classes_checked > 0


def test_extraspecial_free_action():
    report = extraspecial_free_check()
    assert report.holds
    assert report.dim == 3
    assert report.subgroup_order == 3
    assert report.element_orders == (3, 3)
    assert report.max_eigenspace_dim == 1


def characteristic_polynomial_modules():
    """The catalog, plus deleted modules of A5 over GF(4) and A6 over GF(25)
    and the SL2(9) natural tensor its Frobenius twist over GF(9)."""
    modules = [e.rep for e in catalog()]
    for gname, q in (("A5", 4), ("A6", 25)):
        F = make_field(*prime_power(q))
        modules.append(build_rep(deleted(perm_module(builtin_group(gname))), F))
    F9 = make_field(3, 2)
    _, nat = embed_matrix_group(
        F9, 2, [[[1, 1], [0, 1]], [[1, 3], [0, 1]], [[0, 1], [2, 0]]], name="SL2_9")
    modules.append(build_rep(tensor(nat.spec, frobenius_twist(nat.spec, 1)), F9))
    return modules


# eigenspace_profile reads the characteristic polynomial; the fixed space
# and, where it splits over F, each eigenspace are the independent reference
def test_eigenspace_profile_matches_eigenspaces_on_every_catalog_class():
    classes = split = 0
    for rep in characteristic_polynomial_modules():
        F = rep.field
        for cls in bounds.semisimple_classes(rep.group, F.p):
            prof = eigenspace_profile(rep, cls.rep)
            assert sum(d * m for d, m in prof.parts) == rep.dim
            assert prof.fixed_dim == fixed_space_dim(rep, cls.rep)
            classes += 1
            if (F.q - 1) % cls.element_order == 0:
                roots = poly_roots(F, char_poly(rep, cls.rep))
                assert prof.max_eigenspace_dim == max(
                    nullity(F, shift(F, rep.image(cls.rep), r)) for r in roots)
                split += 1
    assert 0 < split < classes
