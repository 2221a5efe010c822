import hashlib
import itertools
import json
import re
from collections import Counter

import pytest

from fixspace import matrep
from fixspace.bounds import catalog, sl3_adjoint_heart
from fixspace.ff import make_field, scale_vec
from fixspace.linalg import eye, mat_mul, rank, reduce_vec, transpose
from fixspace.matrep import (MAX_RECIPE_DEPTH, FieldMismatch, IllTyped, Inconclusive,
                             MatRep, ModuleSpec, NotInGroup, NotInvertible, NotSemisimple,
                             OrbitTooLarge,
                             _random_algebra_element, build_rep,
                             builtin_matgroup, char_poly, deleted, dual,
                             eigenspace_profile, embed_matrix_group,
                             fixed_space_dim, frobenius_twist, is_irreducible,
                             module_dual_fixed_dim, module_fixed_dim,
                             parse_matgroup_text, parse_module_text, perm_module,
                             read_matgroup_file, read_module_file, section,
                             spin_span, sym_power, tensor)
from fixspace.perm import PermGroup, builtin_group, cycle_lengths, perm_from_cycles, pinv, pmul
from fixspace.rng import SeedStream


def hom_check(rep, trials=40, seed=3):
    # multiplicativity on random pairs; images compose contravariantly
    # (matrices act on columns, permutations compose left to right)
    s = SeedStream(seed)
    G = rep.group
    F = rep.field
    for _ in range(trials):
        a = G.random_element(s)
        b = G.random_element(s)
        if mat_mul(F, rep.image(b), rep.image(a)) != rep.image(pmul(a, b)):
            return False
    return True


def test_perm_module_images_are_permutation_matrices():
    G = builtin_group('A5')
    rep = build_rep(perm_module(G, make_field(7)))
    assert rep.dim == 5
    g = G.gens[1]
    M = rep.image(g)
    for j in range(5):
        col = [M[i][j] for i in range(5)]
        assert col.count(0) == 4 and M[g[j]][j] == 1
    assert hom_check(rep)


def test_image_identity_and_inverse():
    G = builtin_group('S4')
    rep = build_rep(deleted(perm_module(G, make_field(5))))
    F = rep.field
    ident = tuple(range(4))
    assert rep.image(ident) == eye(F, rep.dim)
    g = G.gens[0]
    assert mat_mul(F, rep.image(g), rep.image(pinv(g))) == eye(F, rep.dim)


def test_membership_guard_on_invariants():
    G = builtin_group('A5')
    rep = build_rep(perm_module(G, make_field(7)))
    odd = (1, 0, 2, 3, 4)
    with pytest.raises(NotInGroup):
        char_poly(rep, odd)
    with pytest.raises(NotInGroup):
        fixed_space_dim(rep, odd)


def test_deleted_dimension_and_fixed_dim_cycle_count():
    # fixed dim of a permutation g on the deleted module is
    # (number of cycles of g) - 1 whenever char does not divide n
    for name, q in [('A5', 7), ('S5', 3), ('A6', 5), ('F56', 7)]:
        G = builtin_group(name)
        rep = build_rep(deleted(perm_module(G, make_field(q))))
        assert rep.dim == G.degree - 1
        s = SeedStream(11)
        for _ in range(12):
            g = G.random_element(s)
            assert fixed_space_dim(rep, g) == len(cycle_lengths(g)) - 1
        assert hom_check(rep)


def test_perm_module_fixed_dim_is_cycle_count():
    # on the permutation module every cycle of g, fixed points included,
    # spans one fixed vector, in any characteristic
    for name in ['A5', 'S5', 'A6', 'L2_7']:
        G = builtin_group(name)
        for q in (2, 3, 5, 7):
            rep = build_rep(perm_module(G, make_field(q)))
            for cls in G.conjugacy_classes():
                assert fixed_space_dim(rep, cls.rep) == len(cycle_lengths(cls.rep))


def test_deleted_in_dividing_characteristic():
    # basis e_i - e_0 still spans an invariant subspace when p | n
    G = builtin_group('A5')
    rep = build_rep(deleted(perm_module(G, make_field(5))))
    assert rep.dim == 4
    assert hom_check(rep)


def test_tensor_dims_and_hom():
    G = builtin_group('A5')
    F = make_field(7)
    d = deleted(perm_module(G, F))
    rep = build_rep(tensor(d, d))
    assert rep.dim == 16
    assert hom_check(rep, trials=15)


def test_dual_is_inverse_transpose():
    G = builtin_group('A5')
    rep = build_rep(deleted(perm_module(G, make_field(7))))
    drep = build_rep(dual(deleted(perm_module(G, make_field(7)))))
    s = SeedStream(4)
    F = rep.field
    for _ in range(10):
        g = G.random_element(s)
        assert drep.image(g) == transpose(rep.image(pinv(g)))
        assert drep.image(g) == rep.dual_image(g)
    assert hom_check(drep)


def test_frobenius_twist_entrywise():
    # a matrix group over GF(4) whose entries move under x -> x^2
    F4 = make_field(2, 2)
    w = F4.element(2)
    w2 = F4.mul(w, w)
    gen = [[w, F4.zero], [F4.one, w2]]
    G, base = embed_matrix_group(F4, 2, [gen], name="C")
    rep = build_rep(frobenius_twist(base.spec, 1))
    assert rep.dim == 2
    assert hom_check(rep, trials=20)
    s = SeedStream(5)
    for _ in range(10):
        g = G.random_element(s)
        M = base.image(g)
        twisted = [[F4.frobenius(x) for x in row] for row in M]
        assert rep.image(g) == twisted
    # twisting by the full Frobenius order is the identity functor
    rep2 = build_rep(frobenius_twist(base.spec, 2))
    assert rep2.image(G.gens[0]) == base.image(G.gens[0])
    # over a prime field x^p = x: a twist is its child's image
    A5 = builtin_group('A5')
    child = build_rep(deleted(perm_module(A5)), make_field(7))
    twist = build_rep(frobenius_twist(deleted(perm_module(A5)), 1), make_field(7))
    assert twist.images == child.images
    g = A5.random_element(SeedStream(2))
    assert twist.image(g) == child.image(g)


def test_sym_power_dims():
    G, _ = builtin_matgroup('SL2_5')
    for s_pow, dim in [(2, 3), (3, 4), (4, 5)]:
        rep = build_rep(parse_module_text(f"(sym {s_pow} (explicit SL2_5))"))
        assert rep.dim == dim
        assert hom_check(rep, trials=15)


def test_sym_square_traces():
    # tr Sym^2(g) = (tr(g)^2 + tr(g^2)) / 2 in odd characteristic
    G, nat = builtin_matgroup('SL2_5')
    rep = build_rep(sym_power(nat.spec, 2))
    F = rep.field
    inv2 = F.inv(2)
    s = SeedStream(6)
    for _ in range(20):
        g = G.random_element(s)
        M = nat.image(g)
        M2 = mat_mul(F, M, M)
        tr = F.add(M[0][0], M[1][1])
        tr2 = F.add(M2[0][0], M2[1][1])
        S = rep.image(g)
        lhs = F.zero
        for i in range(3):
            lhs = F.add(lhs, S[i][i])
        assert lhs == F.mul(inv2, F.add(F.mul(tr, tr), tr2))


def test_char_poly_degree_and_fixed_space():
    G = builtin_group('A5')
    rep = build_rep(deleted(perm_module(G, make_field(7))))
    s = SeedStream(7)
    g = G.random_element(s)
    cp = char_poly(rep, g)
    assert len(cp) == rep.dim + 1


def test_eigenspace_profile():
    G = builtin_group('F56')
    rep = build_rep(deleted(perm_module(G, make_field(7))))
    cls2 = [c for c in G.conjugacy_classes() if c.element_order == 2][0]
    prof = eigenspace_profile(rep, cls2.rep)
    assert prof.fixed_dim == 3
    assert prof.max_eigenspace_dim >= 3
    total = sum(d for _, d in prof.parts)
    assert total <= rep.dim


def test_eigenspace_profile_refuses_elements_of_order_divisible_by_the_characteristic():
    # p is read off the module's field: an element of order 5 is unipotent
    # on a GF(5) module, whatever else a caller has in mind
    G = builtin_group('A6')
    rep = build_rep(deleted(perm_module(G)), make_field(5))
    x = next(c.rep for c in G.conjugacy_classes() if c.element_order == 5)
    with pytest.raises(NotSemisimple, match="divisible by 5"):
        eigenspace_profile(rep, x)
    with pytest.raises(TypeError):   # no p beside the module to claim otherwise
        eigenspace_profile(rep, x, 3)


def test_module_fixed_dims_whole_group():
    G = builtin_group('A5')
    rep = build_rep(perm_module(G, make_field(7)))
    # all-ones vector is the unique fixed line of the permutation module
    assert module_fixed_dim(rep, G.gens) == 1
    assert module_dual_fixed_dim(rep, G.gens) == 1
    drep = build_rep(deleted(perm_module(G, make_field(7))))
    assert module_fixed_dim(drep, G.gens) == 0
    # no elements fix everything; an odd permutation is outside A5
    assert module_fixed_dim(drep, []) == drep.dim
    with pytest.raises(NotInGroup, match="element is outside the represented group"):
        module_fixed_dim(drep, [perm_from_cycles(5, [(1, 2)])])


def test_is_irreducible_positive_and_negative():
    G = builtin_group('A5')
    red = build_rep(perm_module(G, make_field(7)))
    res = is_irreducible(red, SeedStream(1))
    assert res.irreducible is False
    # the witness submodule must be proper, nonzero, and invariant
    sub = res.submodule
    assert 0 < len(sub) < red.dim
    irr = build_rep(deleted(perm_module(G, make_field(7))))
    res2 = is_irreducible(irr, SeedStream(1))
    assert res2.irreducible is True

    e27 = build_rep(parse_module_text("(explicit E27)"))
    assert is_irreducible(e27, SeedStream(2)).irreducible is True


def spin_oracle_irreducible(rep):
    """Exhaustive: irreducible iff every nonzero vector spins to the whole space."""
    F = rep.field
    for v in itertools.product([F.element(i) for i in range(F.q)], repeat=rep.dim):
        nonzero = [x for x in v if x]
        if nonzero and nonzero[0] == F.one and len(spin_span(F, rep.images, [v])) < rep.dim:
            return False
    return True


def assert_proper_submodule(rep, sub):
    assert 0 < len(sub) < rep.dim
    assert len(spin_span(rep.field, rep.images, sub)) == len(sub)


def test_trivial_group_leaves_the_first_basis_line_invariant():
    rep = build_rep(perm_module(PermGroup(3, []), make_field(2)))
    assert rep.images == ()
    verdict = is_irreducible(rep)
    assert not verdict.irreducible and verdict.submodule == ((1, 0, 0),)


def test_norton_nullity_two_kernel_is_not_a_proof():
    # the first singular element drawn has a 2-dimensional kernel whose
    # basis vectors both spin to V; the all-ones line in it does not
    rep = build_rep(perm_module(builtin_group('A5')), make_field(3))
    res = is_irreducible(rep, SeedStream(17))
    assert res.irreducible is False
    assert_proper_submodule(rep, res.submodule)


def test_not_absolutely_irreducible_is_inconclusive():
    # C3 on GF(2)^2 is irreducible, but its group algebra is GF(4): the only
    # singular element is 0, whose kernel is the whole space
    F = make_field(2)
    _, rep = embed_matrix_group(F, 2, [[[0, 1], [1, 1]]])
    assert spin_oracle_irreducible(rep)
    with pytest.raises(Inconclusive, match="no verdict after 200 "):
        is_irreducible(rep, SeedStream(1))


def test_not_absolutely_irreducible_over_gf5_is_inconclusive():
    # C3 on GF(5)^2 by the companion matrix of x^2 + x + 1, irreducible
    # over GF(5): its group algebra is GF(25), so every nonzero element is
    # invertible with no eigenvalue in GF(5)
    F = make_field(5)
    _, rep = embed_matrix_group(F, 2, [[[0, 4], [1, 4]]])
    assert spin_oracle_irreducible(rep)
    with pytest.raises(Inconclusive, match="no verdict after 200 "):
        is_irreducible(rep, SeedStream(1))


def test_reducible_module_over_a_large_field_is_never_called_irreducible():
    # the cube of the all-ones line is a fixed line of Sym^3; over GF(256)
    # a random group-algebra element is rarely singular, so the verdict
    # comes from a draw shifted by one of its eigenvalues
    rep = build_rep(parse_module_text("(sym 3 (perm S3) :field (gf 2 8))"))
    for seed in range(1, 21):
        res = is_irreducible(rep, SeedStream(seed))
        assert res.irreducible is False, seed
        assert_proper_submodule(rep, res.submodule)


def burnside_span_dim(rep):
    """dim of the span of the images: the algebra the generator images
    generate, closed under right products by them from the identity.
    By Burnside's theorem it is n^2 exactly when the module is absolutely
    irreducible."""
    F, n = rep.field, rep.dim
    rows, pivots, queue = [], [], [eye(F, n)]
    for X in queue:
        v = reduce_vec(F, rows, pivots, [x for row in X for x in row])
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is not None:
            rows.append(scale_vec(F, F.inv(v[piv]), v))
            pivots.append(piv)
            if len(rows) == n * n:
                break
            queue.extend(mat_mul(F, X, M) for M in rep.images)
    return len(rows)


def assert_burnside_agrees(rep, seeds):
    absolutely_irreducible = burnside_span_dim(rep) == rep.dim ** 2
    for seed in seeds:
        res = is_irreducible(rep, SeedStream(seed))
        assert res.irreducible == absolutely_irreducible, seed
        if not res.irreducible:
            assert_proper_submodule(rep, res.submodule)


def test_norton_verdicts_match_burnside_on_the_catalog():
    entries = [e for e in catalog() if e.rep.dim <= 12]
    assert len(entries) >= 61   # the whole catalog today
    for e in entries:
        assert burnside_span_dim(e.rep) == e.rep.dim ** 2, e.ident
        assert_burnside_agrees(e.rep, range(1, 4))


@pytest.mark.parametrize("recipe", [
    "(perm A5 :field (gf 2 2))",
    "(sym 2 (deleted (perm S4)) :field (gf 2 2))",
    "(deleted (perm S4) :field (gf 2 2))",
    "(tensor (deleted (perm S4)) (deleted (perm S4)) :field (gf 5 2))",
    "(sym 2 (perm S3) :field (gf 5 2))",
    "(dual (deleted (perm A5)) :field (gf 5 2))",
    "(sym 3 (perm S3) :field (gf 2 8))",
    "(section (sym 3 (perm S3)) :field (gf 2 8) :mode quotient)",
    "(dual (deleted (perm S4)) :field (gf 2 8))",
])
def test_norton_verdicts_match_burnside_over_extension_fields(recipe):
    # the deleted modules and their duals are uniserial: a kernel vector
    # outside the submodule spins to V, and only the dual spin finds it
    rep = build_rep(parse_module_text(recipe))
    assert burnside_span_dim(rep) < rep.dim ** 2
    assert_burnside_agrees(rep, range(1, 11))


def test_norton_verdicts_match_spin_oracle():
    recipes = [form.format(g=g, p=p)
               for g in ("S3", "A4", "S4", "A5", "S5", "A6", "S6")
               for form in ("(perm {g} :field (gf {p}))",
                            "(deleted (perm {g}) :field (gf {p}))")
               for p in (2, 3)]
    recipes += [f"(tensor (deleted (perm S3)) (deleted (perm S3)) :field (gf {p}))"
                for p in (2, 3, 5)]
    recipes.append("(tensor (explicit SL2_5) (explicit SL2_5))")
    for recipe in recipes:
        rep = build_rep(parse_module_text(recipe))
        assert rep.dim <= 6
        truth = spin_oracle_irreducible(rep)
        for seed in range(1, 41):
            res = is_irreducible(rep, SeedStream(seed))
            assert res.irreducible == truth, (recipe, seed)
            if not truth:
                assert_proper_submodule(rep, res.submodule)


@pytest.mark.parametrize("recipe", [
    "(deleted (perm A5) :field (gf 7))",
    "(deleted (perm A6) :field (gf 5 2))",
    "(explicit SL3_3)",
])
def test_spin_span_stops_once_the_span_is_full(recipe, monkeypatch):
    # on an irreducible module every nonzero seed spins to the whole space;
    # no matrix-vector product may come after the rows span it, so each
    # product records the length of the rows spin_span grows at that moment
    from fixspace import linalg
    rep = build_rep(parse_module_text(recipe))
    F, n = rep.field, rep.dim
    grown, sizes = [], []

    def basis(F, rows, *args, _fn=linalg.extend_basis):
        grown[:] = [rows]
        return _fn(F, rows, *args)

    def product(*args, _fn=linalg.mat_vec):
        sizes.append(len(grown[0]))
        return _fn(*args)

    monkeypatch.setattr(linalg, "extend_basis", basis)
    monkeypatch.setattr(linalg, "mat_vec", product)
    for j in range(n):
        seed = [F.zero] * n
        seed[j] = F.one
        sizes.clear()
        assert spin_span(F, rep.images, [seed]) == tuple(map(tuple, eye(F, n)))
        assert sizes and max(sizes) < n, (recipe, j)


def test_embed_matrix_group_builtins():
    for name, order, dim in [('SL2_5', 120, 2), ('SL2_7', 336, 2),
                             ('SL3_3', 5616, 3), ('E27', 27, 3)]:
        G, rep = builtin_matgroup(name)
        assert G.order == order
        assert rep.dim == dim
        assert hom_check(rep, trials=10, seed=order)


def test_embed_is_faithful_on_sl2_5():
    # -I is the unique central involution; its permutation image is fixed-point free
    G, rep = builtin_matgroup('SL2_5')
    classes = G.conjugacy_classes()
    inv = [c for c in classes if c.element_order == 2]
    assert len(inv) == 1 and inv[0].size == 1


def test_section_sub_and_quotient():
    G = builtin_group('A5')
    F = make_field(7)
    red = build_rep(perm_module(G, F))
    cert = is_irreducible(red, SeedStream(1))
    sub = build_rep(section(perm_module(G, F), "sub", basis=cert.submodule))
    quo = build_rep(section(perm_module(G, F), "quotient", basis=cert.submodule))
    assert sub.dim == len(cert.submodule)
    assert quo.dim == red.dim - sub.dim
    assert hom_check(sub) and hom_check(quo)


@pytest.mark.parametrize("mode", ["sub", "quotient"])
def test_section_basis_that_is_not_invariant_is_ill_typed(mode):
    # the span of (4,6,6,6,0) is no A5-submodule of GF(7)^5; its quotient
    # once built as a 4-dimensional non-homomorphism
    spec = section(perm_module(builtin_group('A5'), make_field(7)), mode,
                   basis=[(4, 6, 6, 6, 0)])
    with pytest.raises(IllTyped, match="section basis is not invariant"):
        build_rep(spec)


def spans_invariant(F, gens, basis):
    """Oracle: each generator permutation, moving entry j of a vector to
    place g[j], keeps the span of basis."""
    rows = [list(v) for v in basis]
    for g in gens:
        moved = []
        for v in basis:
            w = [F.zero] * len(v)
            for j, x in enumerate(v):
                w[g[j]] = x
            moved.append(w)
        if rank(F, rows + moved) != rank(F, rows):
            return False
    return True


def test_random_section_bases_build_exactly_when_invariant():
    # a vector is random or, one time in four, a multiple of the all-ones
    # vector, so some bases span the one invariant line they can reach
    G, F = builtin_group('A5'), make_field(7)
    s = SeedStream(5)
    built = 0
    for _ in range(300):
        basis = [(s.randrange(7),) * 5 if s.randrange(4) == 0
                 else tuple(s.randrange(7) for _ in range(5))
                 for _ in range(1 + s.randrange(3))]
        ok = 0 < rank(F, [list(v) for v in basis]) < 5 and spans_invariant(F, G.gens, basis)
        for mode in ("sub", "quotient"):
            try:
                rep = build_rep(section(perm_module(G, F), mode, basis=basis))
            except IllTyped:
                assert not ok, (mode, basis)
                continue
            assert ok, (mode, basis)
            built += 1
            x, y = G.gens
            assert rep.image(pmul(x, y)) == mat_mul(F, rep.image(y), rep.image(x))
    assert 0 < built < 600


def test_invariant_sections_still_build():
    _, nat = builtin_matgroup('SL3_3')
    scalars = build_rep(section(tensor(nat.spec, dual(nat.spec)), "quotient",
                                basis=[(1, 0, 0, 0, 1, 0, 0, 0, 1)]))
    assert scalars.dim == 8 and hom_check(scalars, trials=10)
    assert sl3_adjoint_heart().dim == 7
    A5, F7 = builtin_group('A5'), make_field(7)
    for mode, dim in (("sub", 1), ("quotient", 4)):
        ones = build_rep(section(perm_module(A5, F7), mode, basis=[(1,) * 5]))
        assert ones.dim == dim and hom_check(ones, trials=10)


@pytest.mark.parametrize("recipe", [
    f"(section {module} :mode {mode} :field (gf {p}))"
    for module, p in (("(perm A5)", 7), ("(perm S4)", 3), ("(perm A6)", 2),
                      ("(deleted (perm A5))", 5), ("(deleted (perm A6))", 3),
                      ("(tensor (deleted (perm S3)) (deleted (perm S3)))", 5))
    for mode in ("sub", "quotient")])
def test_automatic_sections_build(recipe):
    rep = build_rep(parse_module_text(recipe))
    assert 0 < rep.dim and hom_check(rep, trials=10)


def test_field_mismatch_raises():
    G = builtin_group('A5')
    a = perm_module(G, make_field(5))
    b = perm_module(G, make_field(7))
    with pytest.raises(FieldMismatch):
        build_rep(tensor(a, b))
    # the builtin SL2(5) carries GF(5)
    with pytest.raises(FieldMismatch, match=r"GF\(5\) vs GF\(7\)"):
        parse_module_text("(explicit SL2_5 :field (gf 7))")


A5_PERM = perm_module(builtin_group('A5'))


@pytest.mark.parametrize("build, message", [
    (lambda: deleted(dual(A5_PERM)), "deleted applies to a permutation module only"),
    (lambda: frobenius_twist(A5_PERM, -1), "twist exponent must be nonnegative"),
    (lambda: sym_power(A5_PERM, 0), "symmetric power needs s >= 1"),
    (lambda: section(A5_PERM, "both"), "section mode 'both' is not sub or quotient"),
    (lambda: build_rep(ModuleSpec(kind="wedge", children=(A5_PERM,)), make_field(5)),
     "unknown recipe node 'wedge'"),
    (lambda: build_rep(tensor(A5_PERM, perm_module(builtin_group('A6'))), make_field(7)),
     "recipe mixes modules of different groups"),
    (lambda: build_rep(section(deleted(A5_PERM), "sub"), make_field(7)),
     "section of an irreducible module"),
    (lambda: build_rep(section(A5_PERM, "sub", [(1, 1, 1)]), make_field(7)),
     "section basis length differs from parent dimension"),
    (lambda: build_rep(A5_PERM), "recipe carries no coefficient field"),
    (lambda: embed_matrix_group(make_field(5), 2, [[[1, 0, 0]]]), "matrix is not 2x2"),
    # seed vectors (1, 0) and (2, 0) of a hand-built explicit module are dependent
    (lambda: build_rep(ModuleSpec(kind="explicit", group=PermGroup(2, [(1, 0)]),
                                  field=make_field(3), orbit=((1, 0), (2, 0)),
                                  seed_index=(0, 1))),
     "generator image is singular"),
], ids=["deleted-of-dual", "negative-twist", "sym-zero", "section-mode", "unknown-node",
        "two-groups", "irreducible-section", "basis-length", "no-field", "matrix-shape",
        "dependent-seeds"])
def test_recipe_nodes_that_cannot_be_built_are_ill_typed(build, message):
    with pytest.raises(IllTyped, match=re.escape(message)):
        build()


def test_embedding_stops_at_the_degree_cap(monkeypatch):
    monkeypatch.setattr(matrep, "DEGREE_CAP", 5)
    _, nat = builtin_matgroup("SL2_5")
    mats = [[list(row) for row in M] for M in nat.images]
    with pytest.raises(OrbitTooLarge, match="orbit exceeds 5 vectors"):
        embed_matrix_group(make_field(5), 2, mats)


def test_matrep_refuses_a_node_over_another_field():
    spec = perm_module(builtin_group('A5'), make_field(7))
    with pytest.raises(FieldMismatch, match=r"GF\(5\) vs GF\(7\)"):
        MatRep(spec, make_field(5))


def test_matrep_builds_an_automatic_section():
    spec = section(perm_module(builtin_group('A5'), make_field(7)), "sub")
    rep, built = MatRep(spec, make_field(7)), build_rep(spec)
    assert rep.images == built.images and image_digest(rep) == image_digest(built)
    assert rep.spec.basis is None


def test_sl3_heart_compiles_each_node_once(monkeypatch):
    builtin_matgroup('SL3_3')
    kinds = Counter()
    compile_node = matrep._compile

    def counted(node, F):
        kinds[node.kind] += 1
        return compile_node(node, F)

    monkeypatch.setattr(matrep, "_compile", counted)
    # past the cache, which an earlier test may have filled
    assert sl3_adjoint_heart.__wrapped__().dim == 7
    # the automatic sub section, the quotient by the scalars, the tensor,
    # the dual and the natural module's explicit leaf under each of the two
    assert kinds == {"section": 2, "tensor": 1, "dual": 1, "explicit": 2}


def test_module_file_roundtrip(tmp_path):
    p = tmp_path / "m.mod"
    p.write_text("; comment line\n(deleted (perm A5) :field (gf 7))\n")
    rep = read_module_file(str(p))
    assert rep.dim == 4 and rep.field.q == 7


def test_matgroup_file_roundtrip(tmp_path):
    p = tmp_path / "g.mat"
    p.write_text("matgroup T field 5 dim 2\ngen [[1,1],[0,1]]\ngen [[0,1],[4,0]]\n")
    G, rep = read_matgroup_file(str(p))
    assert G.order == 120
    assert G.name == "T"
    m = tmp_path / "m.mod"
    m.write_text("(sym 2 (explicit T))\n")
    rep2 = read_module_file(str(m), matgroups={"T": (G, rep)})
    assert rep2.dim == 3


def theta_by_matrix_words(rep, stream):
    """Norton element as the product of generator images, word by word,
    entirely in FieldCtx arithmetic: the reference for the permutation words."""
    F = rep.field
    n = rep.dim
    theta = [[F.zero] * n for _ in range(n)]
    terms = 3 + stream.randrange(4)
    for _ in range(terms):
        length = 1 + stream.randrange(8)
        word = rep.images[stream.randrange(len(rep.images))]
        for _ in range(length - 1):
            word = mat_mul(F, word, rep.images[stream.randrange(len(rep.images))])
        coeff = F.element(1 + stream.randrange(F.q - 1))
        for i in range(n):
            for j in range(n):
                theta[i][j] = F.add(theta[i][j], F.mul(coeff, word[i][j]))
    return theta


def theta_modules():
    A5 = builtin_group('A5')
    F7 = make_field(7)
    sub = is_irreducible(build_rep(perm_module(A5, F7)), SeedStream(1)).submodule
    d = deleted(perm_module(builtin_group('S4'), make_field(3)))
    _, sl2_5 = builtin_matgroup('SL2_5')
    _, sl3_3 = builtin_matgroup('SL3_3')
    F9 = make_field(3, 2)
    _, nat9 = embed_matrix_group(
        F9, 2, [[[1, 1], [0, 1]], [[1, 3], [0, 1]], [[0, 1], [2, 0]]], name="SL2_9")
    return [
        build_rep(perm_module(A5, F7)),
        build_rep(deleted(perm_module(builtin_group('A6'), make_field(5)))),
        build_rep(tensor(d, d)),
        build_rep(dual(deleted(perm_module(A5, F7)))),
        build_rep(sym_power(sl2_5.spec, 3)),
        build_rep(section(perm_module(A5, F7), "sub", basis=sub)),
        build_rep(section(perm_module(A5, F7), "quotient", basis=sub)),
        sl3_3,
        build_rep(deleted(perm_module(A5)), make_field(2, 2)),
        build_rep(tensor(nat9.spec, frobenius_twist(nat9.spec, 1)), F9),
    ]


def test_random_algebra_element_matches_matrix_words():
    # theta is built from permutation words mapped once; it must equal the
    # product of generator images and leave the stream at the same place
    for rep in theta_modules():
        for seed in range(1, 6):
            fast, slow = SeedStream(seed), SeedStream(seed)
            assert _random_algebra_element(rep, fast) == theta_by_matrix_words(rep, slow)
            assert fast.randrange(1 << 64) == slow.randrange(1 << 64)


@pytest.mark.parametrize("text, message", [
    ("(deleted (perm A5) :field (gf 7)", "unbalanced '('"),
    ("(deleted (perm A5) :field)", "keyword :field has no value"),
    ("", "empty module recipe"),
    ("; only a comment\n", "empty module recipe"),
    ("(perm A5))", "trailing tokens"),
    (")", "unbalanced ')'"),
    ("(:field (gf 7))", "no operator"),
    ("((perm A5))", "unknown recipe operator"),
    ("((perm A5) :field (gf 7))", "unknown recipe operator"),
    ("(perm)", "perm takes 1 argument"),
    ("(tensor (perm A5))", "tensor takes 2 argument"),
    ("(twist (perm A5) 1)", "twist expects an integer"),
    ("(deleted A5)", "deleted expects a recipe form"),
    ("(perm A5 :field (gf))", "field keyword expects"),
    ("(section (perm A5) :mdoe quotient :field (gf 5))", "section takes no keyword :mdoe"),
    ("(perm A5 :mode quotient :field (gf 5))", "perm takes no keyword :mode"),
    ("(perm A5 :field (gf 5) :field (gf 7))", "keyword :field given twice"),
    ("A5", "expected a recipe form, got 'A5'"),
])
def test_malformed_module_recipe_is_ill_typed(text, message):
    with pytest.raises(IllTyped, match=re.escape(message)):
        parse_module_text(text)


def test_recipe_nesting_is_capped():
    def nested(depth):   # depth forms, each inside the one before
        return "(dual " * (depth - 2) + "(deleted (perm A5))" + ")" * (depth - 2)

    spec = parse_module_text(nested(MAX_RECIPE_DEPTH))
    for _ in range(MAX_RECIPE_DEPTH - 2):
        assert spec.kind == "dual"
        spec = spec.children[0]
    assert spec.kind == "deleted"
    for depth in (MAX_RECIPE_DEPTH + 1, 1500):
        with pytest.raises(IllTyped, match="nests forms deeper than 100"):
            parse_module_text(nested(depth))


@pytest.mark.parametrize("text, message", [
    ("matgroup T field 5\ngen [[1,1],[0,1]]\n", "has no dim"),
    ("matgroup T dim 2\ngen [[1,1],[0,1]]\n", "has no field"),
    ("matgroup field 5 dim 2\ngen [[1,1],[0,1]]\n", "is not 'matgroup NAME'"),
    ("matgroup T field 5 dim 2\nmatgroup H field 5 dim 2\ngen [[1,1],[0,1]]\n",
     "second matgroup header"),
    ("matgroup T field five dim 2\ngen [[1,1],[0,1]]\n", "non-integer value"),
    ("matgroup T field 5 dim 2\ngen [[1.5,1],[0,1]]\n", "not a matrix of integers"),
    ("matgroup T field 5 dim 2\ngen [[\"a\",1],[0,1]]\n", "not a matrix of integers"),
    ("matgroup T field 5 dim 2\ngen 7\n", "not a matrix of integers"),
    ("matgroup T field 5 dim 2\ngen [[1,1],[0,1]\n",
     "gen line 'gen [[1,1],[0,1]' is not JSON"),
    ("matgroup X field 3 exd 2 dim 2\ngen [[1,1],[0,1]]\n", "has unknown key 'exd'"),
    ("matgroup X field 3 dim 2 field 5\ngen [[1,1],[0,1]]\n", "repeats key 'field'"),
    ("matgroup Z field 5 dim 0\ngen []\n", "has dim 0, below 1"),
    ("matgroup Z field 5 dim -2\ngen []\n", "has dim -2, below 1"),
    ("matgroup T field 5 dim 2\ngen [[1,1],[[0],1]]\n", "nests deeper than a matrix"),
    ("matgroup T field 5 dim 2\ngen [{\"a\": {}}]\n", "nests deeper than a matrix"),
    ("gen [[1,1],[0,1]]\nmatgroup T field 5 dim 2\n", "gen line before matgroup header"),
    ("matgroup T field 5 dim 2\norder 10\n", "unrecognized line 'order 10'"),
    ("matgroup T field 5 dim 2\n", "matrix group file needs a header and generators"),
])
def test_malformed_matgroup_header_is_ill_typed(text, message):
    with pytest.raises(IllTyped, match=re.escape(message)):
        parse_matgroup_text(text)


def test_matgroup_over_extension_field_above_table_cap_is_ill_typed(tmp_path, monkeypatch):
    # GF(3^6) has 729 elements; refused at the header, before any image
    from fixspace import linalg

    def no_image(*args):
        raise AssertionError("an image was built")

    for name in ("mat_vec", "rank", "rref"):
        monkeypatch.setattr(linalg, name, no_image)
    text = "matgroup B field 3 ext 6 dim 2\ngen [[1,1],[0,1]]\n"
    message = "modules over GF(3^6) are not supported: q = 729 exceeds 256"
    with pytest.raises(IllTyped, match=re.escape(message)):
        parse_matgroup_text(text)
    path = tmp_path / "big.mat"
    path.write_text(text)
    with pytest.raises(IllTyped, match=re.escape(message)):
        read_matgroup_file(str(path))
    with pytest.raises(IllTyped, match=re.escape(message)):
        embed_matrix_group(make_field(3, 6), 2, [[[1, 1], [0, 1]]])
    with pytest.raises(IllTyped, match=re.escape(message)):
        build_rep(deleted(perm_module(builtin_group('A5'))), make_field(3, 6))


@pytest.mark.parametrize("p, k", [(5, 1), (3, 2)])
def test_singular_matrix_generator_is_rejected(tmp_path, p, k):
    # the second generator's rows are proportional: rank 1, though no row is 0
    F = make_field(p, k)
    z = p if k > 1 else 2   # element p is the root z of GF(p^k)
    row = [1, z]
    singular = [row, [F.mul(z, x) for x in row]]
    path = tmp_path / "singular.mat"
    path.write_text(f"matgroup T field {p} ext {k} dim 2\n"
                    f"gen [[1,1],[0,1]]\ngen {json.dumps(singular)}\n")
    with pytest.raises(NotInvertible, match="singular"):
        read_matgroup_file(str(path))


def pinned_modules():
    """(name, rep) for the recipe shapes whose images are pinned below."""
    A5 = builtin_group('A5')
    F7 = make_field(7)
    sub = is_irreducible(build_rep(perm_module(A5, F7)), SeedStream(1)).submodule
    F9 = make_field(3, 2)
    _, nat9 = embed_matrix_group(
        F9, 2, [[[1, 1], [0, 1]], [[1, 3], [0, 1]], [[0, 1], [2, 0]]], name="SL2_9")
    _, sl2_5 = builtin_matgroup('SL2_5')
    _, e27 = builtin_matgroup('E27')
    _, sl3_3 = builtin_matgroup('SL3_3')
    return [
        ("perm-a5-gf7", build_rep(perm_module(A5, F7))),
        ("deleted-a5-gf4", build_rep(deleted(perm_module(A5)), make_field(2, 2))),
        ("sl2_9-natural-x-twist",
         build_rep(tensor(nat9.spec, frobenius_twist(nat9.spec, 1)), F9)),
        ("dual-deleted-a6-gf5",
         build_rep(dual(deleted(perm_module(builtin_group('A6'), make_field(5)))))),
        ("sym3-sl2_5", build_rep(sym_power(sl2_5.spec, 3))),
        # three basis vectors, so a wrong monomial order shows
        ("sym2-sl3_3", build_rep(sym_power(sl3_3.spec, 2))),
        ("explicit-e27", e27),
        ("sub-perm-a5-gf7", build_rep(section(perm_module(A5, F7), "sub", basis=sub))),
        ("quotient-perm-a5-gf7",
         build_rep(section(perm_module(A5, F7), "quotient", basis=sub))),
        ("sl3_3-adjoint-heart", sl3_adjoint_heart()),
    ]


def image_digest(rep, elements=20, seed=11):
    """SHA-256 of the dimension and the images of seeded elements."""
    s = SeedStream(seed)
    h = hashlib.sha256(str(rep.dim).encode())
    for _ in range(elements):
        M = rep.image(rep.group.random_element(s))
        h.update(json.dumps(M).encode())
    return h.hexdigest()


PINNED_IMAGE_DIGESTS = {
    "perm-a5-gf7":
        "1d97d6606fe36d871b8f678e1552a909e497797427bd889fa7d16a185754defc",
    "deleted-a5-gf4":
        "1d1b5a00cb51214e0cc21b065a066b882de76d437b9d70c2c158787a96337f82",
    "sl2_9-natural-x-twist":
        "11bbd68c768fcf819dadc5203fd764d6f8ba7130b2cfd961bf27810f20f9f1b0",
    "dual-deleted-a6-gf5":
        "5cdfe763ec1fc62fd599a84bd87c49253c1fd7f876b518c039b92aaefb6cbc37",
    "sym3-sl2_5":
        "b4d3da086b831f26d2f088c21d2fd41ad3fed4adfe0503834eba9b6c6c49bcfa",
    "sym2-sl3_3":
        "927777f9c4276745fd66016fff485a12bf04d49a0e729ed7a43fdbded98468e8",
    "explicit-e27":
        "87ce3dc3447cb72c32b1845773ce74daebdd805b367d58e15e1b7aa39f96a672",
    "sub-perm-a5-gf7":
        "31be8886509f6dbd031dadc8880bd06bfee522fba698289cafda603a78c71752",
    "quotient-perm-a5-gf7":
        "5b1c1d05c04d4417a601b756715e450703c0673bb34191cdd04349477a648a30",
    "sl3_3-adjoint-heart":
        "83e6d6fe4f0b4559c2ef12c44fb4e3d1596209df6bf64ceb84a281d2b6bd78db",
}


def test_images_match_pinned_digests():
    # recorded before the recipe evaluator was restructured: every node kind
    # must keep producing the same matrices for the same elements
    got = {name: image_digest(rep) for name, rep in pinned_modules()}
    assert got == PINNED_IMAGE_DIGESTS
