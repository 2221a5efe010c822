import hashlib
import math
import random

import pytest

from fixspace import chartab, ff, perm
from fixspace.chartab import character_table, class_algebra, triple_count
from fixspace.perm import (GroupTooLarge, builtin_group, builtin_group_names,
                           pinv, pmul)

from cyclo import (NonIntegerResult, cyc_add, cyc_as_integer, cyc_mul,
                   cyclotomic_poly, tuple_triple_count)

# complex character degrees, standard small-group data
KNOWN_DEGREES = {
    'S3': (1, 1, 2),
    'A4': (1, 1, 1, 3),
    'S4': (1, 1, 2, 3, 3),
    'A5': (1, 3, 3, 4, 5),
    'S5': (1, 1, 4, 4, 5, 5, 6),
    'A6': (1, 5, 5, 8, 8, 9, 10),
}


def brute_triple_counts(G):
    classes = G.conjugacy_classes()
    where = {}
    for i, cls in enumerate(classes):
        for g in cls.members:
            where[g] = i
    counts = {}
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            for x in ci.members:
                for y in cj.members:
                    m = where[pinv(pmul(x, y))]
                    counts[(i, j, m)] = counts.get((i, j, m), 0) + 1
    return counts, len(classes)


def pmul_inv_left(x, z):
    # x^{-1} z without materializing the inverse
    out = [0] * len(x)
    for i in range(len(x)):
        out[x[i]] = z[i]
    return tuple(out)


def class_constants_oracle(G):
    """a[i][j][k] = #{x in C_i : x^{-1} z_k in C_j}, one tuple loop per x."""
    classes = G.conjugacy_classes()
    index = {m: i for i, c in enumerate(classes) for m in c.members}
    r = len(classes)
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k in range(r):
        for i in range(r):
            for x in classes[i].members:
                a[i][index[pmul_inv_left(x, classes[k].rep)]][k] += 1
    return tuple(tuple(tuple(v) for v in m) for m in a)


ORACLE_GROUPS = [n for n in builtin_group_names() if builtin_group(n).order <= 20160]


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_class_algebra_matches_tuple_loop(name):
    G = builtin_group(name)
    assert class_algebra(G) == class_constants_oracle(G)


def test_class_algebra_oracle_covers_non_real_classes():
    # a column mirrored from (k, i) reads constants[k][j bar][i]; j bar and
    # j differ only at a class that is not its own inverse
    def non_real(G):
        return any(G.class_of(pinv(c.rep)) != i for i, c in enumerate(G.conjugacy_classes()))

    assert {n for n in ORACLE_GROUPS if non_real(builtin_group(n))} >= \
        {"A7", "L2_7", "F56", "F12"}


@pytest.mark.parametrize("name, products", [("A7", 8122), ("A8", 92037)])
def test_class_algebra_counts_each_column_pair_over_the_smaller_class(monkeypatch,
                                                                     name, products):
    # the column (i, k) takes |C_i| products and (k, i) |C_k|: one of each
    # pair is counted, over the smaller class (A8 took 282,240 products
    # when every column was counted, A7 22,680)
    G = builtin_group(name)
    sizes = [c.size for c in G.conjugacy_classes()]
    G.class_map()   # classes and class map built before the codec is swapped
    calls = [0]
    apply = G.codec.apply

    def counting_apply(a, b):
        calls[0] += 1
        return apply(a, b)

    monkeypatch.setattr(G, "codec", G.codec._replace(apply=counting_apply))
    class_algebra(G)
    assert calls[0] == products == sum(min(s, t) for i, s in enumerate(sizes)
                                       for t in sizes[i:])


def test_class_algebra_matches_tuple_loop_past_byte_encoding(monkeypatch):
    # the codec composes tuples above degree 256; build each group a second
    # time with that branch whatever its degree, so its classes, class map
    # and class_algebra are keyed by image tuples instead of bytes
    names = [n for n in builtin_group_names() if builtin_group(n).order <= 2520]
    byte_tables = [character_table(builtin_group(n)) for n in names]
    tuple_codec = perm.bulk_codec(257)
    monkeypatch.setattr(perm, "bulk_codec", lambda degree: tuple_codec)
    for name, table in zip(names, byte_tables):
        G = perm.builtin_group.__wrapped__(name)   # uncached: a fresh build
        assert G.codec is tuple_codec
        assert class_algebra(G) == class_constants_oracle(G), G
        # the group and its classes are new objects: compare everything else
        view = lambda T: ([(c.rep, c.size, c.element_order) for c in T.classes],
                          T[2:])
        assert view(character_table(G)) == view(table), G


# SHA-256 of repr((exponent, modulus, degrees, values)): a faster build
# must reproduce every table exactly, row order and Dixon prime included;
# the trivial group and C2, C3 are the one-class and abelian edge cases of
# the central characters
TABLE_DIGESTS = {
    'A4': '02066f9138eced869abc92f355119a7e354e4a6733d403290abcb3aa1ead15f1',
    'A5': 'dd150ed70ae91dc324bb5e29584f3c437c5b6b37e015692fc54d15bdc068c578',
    'A6': '3203e325cf843d4e79b8ed3629c2529049cf8a3d7f73478e6bab376dfae80a47',
    'A7': 'afb1f0b6ec889a1fde75ec9dc1271a6da1358484d1674e1eb1c727a2144ea88a',
    'A8': 'ea636f25c4887d0a2e9adb0c8eb9938a4e0a709f8d782f2aac630530f47fb96e',
    'A9': '624b2ccca5ce09d69f58315f496ab066c52b7152dd6316cbcc023535c16402cd',
    'F12': '02066f9138eced869abc92f355119a7e354e4a6733d403290abcb3aa1ead15f1',
    'F56': '6ff9e0cb3e2462fad0a6c0bb00d38082c8fe8bc991d5569c189bba07b5cdf6b4',
    'L2_7': '1078541806d0a61f4028c98926a810618231d95b5db18957b7553d863897f654',
    'L2_8': 'f3e087fdaf686cb03c879f58cd6fdbc54f9c485a541e1b20f4bc1b40f6ab720b',
    'L2_11': 'bf0e73b413bdd5478551dad20479a061635966c76b0aa95de97ba4de9f2554b6',
    'L2_13': '827256f89250099b79521ab539006ae40bbb73b784479fd53ff48fbc4d027396',
    'S3': '96ab6bedd30c6ac04665789279d24883dd716241ff90a3ec5263f0cb0f479796',
    'S4': '5fd1a6a5463614f8224249cebeb8dfff2586917d142e00e8be44f4a276af8917',
    'S5': 'a78ef7b9f2fa53d0509e966fd94247115513794af071bac5366a3cfeb7384c33',
    'S6': '4204059e9b610347ea126f54513f8472a28e66a28d4e35268378fa0c1de4a16b',
    'trivial': 'acee99049a2b1251625ab115dfdba05ca231d7e9dc854712577cfc8f6d1c6adb',
    'C2': '0d884ff9979d8438ca96b3dcbd07a042907ddef90dc24b8bafbd073ca882329c',
    'C3': 'd350b4290f18e4f7477be8b2bbe5220c1d188c56e05bc045f7143f84f6b39ee5',
}

SMALL_GROUPS = {
    'trivial': (1, []),
    'C2': (2, [(1, 0)]),
    'C3': (3, [(1, 2, 0)]),
}


def digest_group(name):
    if name in SMALL_GROUPS:
        return perm.PermGroup(*SMALL_GROUPS[name])
    return builtin_group(name)


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_character_table_digest(name):
    t = character_table(digest_group(name))
    blob = repr((t.exponent, t.modulus, t.degrees, t.values)).encode()
    assert hashlib.sha256(blob).hexdigest() == TABLE_DIGESTS[name]


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_central_characters_are_joint_eigenvectors(name):
    # however they are found: r distinct vectors, each 1 at the identity
    # class and with A_i w = w_i w mod l for every class matrix A_i
    G = builtin_group(name)
    constants = class_algebra(G)
    r = len(constants)
    e = math.lcm(*(c.element_order for c in G.conjugacy_classes()))
    l = chartab._dixon_prime(G.order, e)
    omegas = chartab._central_characters(ff.make_field(l), constants)
    assert len(set(omegas)) == len(omegas) == r
    for w in omegas:
        assert w[0] == 1
        for i in range(r):
            assert [sum(a * x for a, x in zip(row, w)) % l for row in constants[i]] == \
                [w[i] * x % l for x in w]


@pytest.mark.parametrize("name", ['trivial', 'C3', 'S4', 'A5'])
def test_character_table_refuses_a_missing_eigenvalue(monkeypatch, name):
    # with one root of each characteristic polynomial dropped, no element
    # of the class algebra separates the characters
    roots = ff.poly_roots
    monkeypatch.setattr(chartab.ff, "poly_roots", lambda F, f: roots(F, f)[1:])
    with pytest.raises(chartab.LiftFailure):
        character_table(digest_group(name))


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyc_arithmetic_root_of_unity():
    e = 6
    zeta = (0, 1, 0, 0, 0, 0)
    power = zeta
    for _ in range(5):
        power = cyc_mul(power, zeta, e)
    assert cyc_as_integer(power, e) == 1      # zeta^6 = 1
    # 1 + zeta^2 + zeta^4 = 0 for e = 6 (cube roots sum)
    acc = (1, 0, 0, 0, 0, 0)
    acc = cyc_add(acc, cyc_mul(zeta, zeta, e))
    acc = cyc_add(acc, cyc_mul(cyc_mul(zeta, zeta, e), cyc_mul(zeta, zeta, e), e))
    assert cyc_as_integer(acc, e) == 0


def test_degrees_match_known_tables():
    for name, degrees in KNOWN_DEGREES.items():
        table = character_table(builtin_group(name))
        assert tuple(sorted(table.degrees)) == tuple(sorted(degrees)), name


def test_sum_of_degree_squares():
    for name in ['S3', 'A4', 'S4', 'A5', 'S5', 'A6', 'F12', 'F56', 'L2_7']:
        G = builtin_group(name)
        table = character_table(G)
        assert sum(d * d for d in table.degrees) == G.order


def test_degrees_divide_group_order():
    for name in ['A5', 'S5', 'L2_7', 'F56']:
        G = builtin_group(name)
        for d in character_table(G).degrees:
            assert G.order % d == 0


def test_first_row_is_trivial_character():
    table = character_table(builtin_group('A5'))
    triv = [chi for chi in range(5)
            if all(cyc_as_integer(table.values[chi][c], table.exponent) == 1
                   for c in range(5))]
    assert len(triv) == 1


def test_column_orthogonality():
    # sum over chi of chi(C) chi(C')bar = delta |centralizer(C)|
    for name in ['S4', 'A5', 'F56']:
        G = builtin_group(name)
        table = character_table(G)
        e = table.exponent
        k = len(table.classes)
        for c1 in range(k):
            for c2 in range(k):
                acc = (0,) * e
                c2_inv = table.inverse_class[c2]
                for chi in range(k):
                    acc = cyc_add(acc, cyc_mul(table.values[chi][c1],
                                               table.values[chi][c2_inv], e))
                val = cyc_as_integer(acc, e)
                if c1 == c2:
                    assert val == G.order // table.classes[c1].size
                else:
                    assert val == 0


def test_row_orthogonality():
    G = builtin_group('A5')
    table = character_table(G)
    e = table.exponent
    k = len(table.classes)
    for chi in range(k):
        for psi in range(k):
            acc = (0,) * e
            for c in range(k):
                term = cyc_mul(table.values[chi][c],
                               table.values[psi][table.inverse_class[c]], e)
                acc = cyc_add(acc, tuple(x * table.classes[c].size for x in term))
            val = cyc_as_integer(acc, e)
            assert val == (G.order if chi == psi else 0)


def test_triple_count_matches_brute_force_small():
    for name in ['S3', 'A4', 'S4', 'A5']:
        G = builtin_group(name)
        table = character_table(G)
        counts, k = brute_triple_counts(G)
        for i in range(k):
            for j in range(k):
                for m in range(k):
                    assert triple_count(table, i, j, m) == \
                        counts.get((i, j, m), 0), (name, i, j, m)


@pytest.mark.parametrize("name", ['A5', 'S5', 'A6', 'S6', 'L2_7', 'L2_8'])
def test_triple_count_matches_tuple_oracle_tensor(name):
    # the constants against Frobenius's character sum over the lifted values
    table = character_table(builtin_group(name))
    k = len(table.classes)
    triples = [(i, j, m) for i in range(k) for j in range(k) for m in range(k)]
    oracle_cache = {}
    want = [tuple_triple_count(table, *t, oracle_cache) for t in triples]
    assert [triple_count(table, *t) for t in triples] == want


@pytest.mark.parametrize("name", ['A7', 'L2_11', 'A8'])
def test_triple_count_matches_tuple_oracle_sampled(name):
    # the exponent-330 and exponent-420 tables, the longest lifted values
    table = character_table(builtin_group(name))
    k = len(table.classes)
    rng = random.Random(name)
    triples = [tuple(rng.randrange(k) for _ in range(3)) for _ in range(40)]
    for t in triples:
        assert triple_count(table, *t) == tuple_triple_count(table, *t), t


@pytest.mark.parametrize("power", ["z", "z^(e/o)"])
def test_triple_count_rejects_rotated_value(power):
    # the trivial character times a root of unity w != 1 at a class C of
    # order 5 turns the character sum for n(1, C, C^-1) from |C_G| into
    # |C_G| - 1 + w, which is not rational
    table = character_table(builtin_group('A5'))
    cls = next(c for c, cl in enumerate(table.classes) if cl.element_order == 5)
    e = table.exponent
    vec = table.values[0][cls]
    assert table.degrees[0] == 1 and vec == (1,) + (0,) * (e - 1)
    shift = 1 if power == "z" else e // 5
    rotated = list(table.values[0])
    rotated[cls] = vec[-shift:] + vec[:-shift]
    bad = table._replace(values=(tuple(rotated),) + table.values[1:])
    triple = (0, cls, table.inverse_class[cls])
    with pytest.raises(NonIntegerResult, match="rational integer"):
        tuple_triple_count(bad, *triple)
    # the count is read from the constants, never from the values
    assert triple_count(table._replace(values=None), *triple) == table.classes[cls].size


def test_triple_count_total_is_group_order_squared():
    G = builtin_group('A6')
    table = character_table(G)
    k = len(table.classes)
    total = sum(triple_count(table, i, j, m)
                for i in range(k) for j in range(k) for m in range(k))
    assert total == G.order ** 2


def test_identity_class_counts():
    # n(1, C, C^-1) = |C|
    G = builtin_group('A5')
    table = character_table(G)
    for c in range(5):
        assert triple_count(table, 0, c, table.inverse_class[c]) == \
            table.classes[c].size


def test_character_table_refuses_groups_past_the_class_cap():
    with pytest.raises(GroupTooLarge, match="group order 1814400 exceeds cap"):
        character_table(builtin_group("A10"))


def test_character_table_refuses_many_classes_before_the_constants(monkeypatch):
    # A7 x C20 on 7 + 20 points: 180 classes, refused from the classes
    # alone (the class multiplication constants took 12 s)
    A7 = builtin_group("A7")
    gens = [g + tuple(range(7, 27)) for g in A7.gens]
    gens.append(tuple(range(7)) + tuple(7 + (i + 1) % 20 for i in range(20)))
    G = perm.PermGroup(27, gens)

    def refuse(group):
        raise AssertionError("class constants counted for a table refused anyway")

    monkeypatch.setattr(chartab, "class_algebra", refuse)
    with pytest.raises(GroupTooLarge, match="180 classes exceed 60"):
        character_table(G)
