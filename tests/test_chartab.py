import dataclasses
import random

import pytest

from fixspace.chartab import (LiftFailure, NonIntegerResult, character_table,
                              cyclotomic_cofactor, cyclotomic_poly,
                              read_table_cache, triple_count, write_table_cache)
from fixspace.perm import builtin_group, pinv, pmul

from cyclo import cyc_add, cyc_as_integer, cyc_mul, tuple_triple_count

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


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_cofactor():
    # Psi_n * Phi_n = z^n - 1
    for n in range(1, 61):
        psi, phi = cyclotomic_cofactor(n), cyclotomic_poly(n)
        prod = [0] * (len(psi) + len(phi) - 1)
        for i, x in enumerate(psi):
            for j, y in enumerate(phi):
                prod[i + j] += x * y
        assert prod == [-1] + [0] * (n - 1) + [1], n
    assert cyclotomic_cofactor(6) == (-1, -1, 0, 1, 1)


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
        cache = {}
        for i in range(k):
            for j in range(k):
                for m in range(k):
                    assert triple_count(table, i, j, m, _pair_cache=cache) == \
                        counts.get((i, j, m), 0), (name, i, j, m)


@pytest.mark.parametrize("name", ['A5', 'S5', 'A6', 'S6', 'L2_7', 'L2_8'])
def test_triple_count_matches_tuple_oracle_tensor(name):
    table = character_table(builtin_group(name))
    k = len(table.classes)
    triples = [(i, j, m) for i in range(k) for j in range(k) for m in range(k)]
    oracle_cache = {}
    want = [tuple_triple_count(table, *t, oracle_cache) for t in triples]
    cache = {}
    assert [triple_count(table, *t, _pair_cache=cache) for t in triples] == want
    assert [triple_count(table, *t) for t in triples] == want


@pytest.mark.parametrize("name", ['A7', 'L2_11', 'A8'])
def test_triple_count_matches_tuple_oracle_sampled(name):
    # the exponent-330 and exponent-420 tables, where the packed ints are longest
    table = character_table(builtin_group(name))
    k = len(table.classes)
    rng = random.Random(name)
    triples = [tuple(rng.randrange(k) for _ in range(3)) for _ in range(40)]
    cache = {}
    for t in triples:
        assert triple_count(table, *t, _pair_cache=cache) == tuple_triple_count(table, *t), t


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
    bad = dataclasses.replace(table, values=(tuple(rotated),) + table.values[1:])
    triple = (0, cls, table.inverse_class[cls])
    with pytest.raises(NonIntegerResult, match="rational integer"):
        tuple_triple_count(bad, *triple)
    with pytest.raises(NonIntegerResult, match="rational integer"):
        triple_count(bad, *triple)
    with pytest.raises(NonIntegerResult, match="rational integer"):
        triple_count(bad, *triple, _pair_cache={})


def test_triple_count_total_is_group_order_squared():
    G = builtin_group('A6')
    table = character_table(G)
    k = len(table.classes)
    cache = {}
    total = sum(triple_count(table, i, j, m, _pair_cache=cache)
                for i in range(k) for j in range(k) for m in range(k))
    assert total == G.order ** 2


def test_table_cache_roundtrip(tmp_path):
    G = builtin_group('A5')
    table = character_table(G)
    path = tmp_path / "a5.chartab"
    write_table_cache(table, str(path))
    loaded = read_table_cache(str(path), G)
    assert loaded.degrees == table.degrees
    assert loaded.values == table.values
    assert loaded.exponent == table.exponent
    assert loaded.modulus == table.modulus
    # counts computed from the cached table agree
    assert triple_count(loaded, 1, 2, 3) == triple_count(table, 1, 2, 3)


def _without_first(lines, prefix):
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    return lines[:i] + lines[i + 1:]


def _bump_last_value(lines, *classes, by=1):
    # add `by` to the first entry of some class vectors of the last character
    head, packed = lines[-1].rsplit(" ", 1)
    vecs = [vec.split(",") for vec in packed.split("|")]
    for cls in classes:
        vecs[cls][0] = str(int(vecs[cls][0]) + by)
    return lines[:-1] + [head + " " + "|".join(",".join(v) for v in vecs)]


def _shift_by_modulus(lines):
    # same residues mod l, so orthogonality mod l still holds
    l = int(next(ln for ln in lines if ln.startswith("modulus ")).split()[1])
    return _bump_last_value(lines, 1, 2, by=l)


@pytest.mark.parametrize("damage", [
    lambda lines: lines[:-1],
    lambda lines: _without_first(lines, "class "),
    lambda lines: lines[:-1] + [lines[-1].rsplit("|", 1)[0]],
    lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]],
    lambda lines: _bump_last_value(lines, 4),
    lambda lines: _bump_last_value(lines, 0),
    lambda lines: _without_first(lines, "zeta "),
    lambda lines: lines + ["character"],
    lambda lines: lines[:-1] + [lines[-1].replace(",", ",x", 1)],
    lambda lines: [("modulus 0" if ln.startswith("modulus ") else ln) for ln in lines],
    _shift_by_modulus,
], ids=["missing-character", "missing-class", "short-row", "short-vector",
        "changed-value", "changed-identity-value", "missing-header", "no-space",
        "non-integer", "zero-modulus", "shifted-by-modulus"])
def test_table_cache_rejects_truncated_file(tmp_path, damage):
    G = builtin_group('A5')
    path = tmp_path / "a5.chartab"
    write_table_cache(character_table(G), str(path))
    assert [f.name for f in tmp_path.iterdir()] == ["a5.chartab"]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(damage(lines)) + "\n")
    with pytest.raises(LiftFailure):
        read_table_cache(str(path), G)


def test_identity_class_counts():
    # n(1, C, C^-1) = |C|
    G = builtin_group('A5')
    table = character_table(G)
    for c in range(5):
        assert triple_count(table, 0, c, table.inverse_class[c]) == \
            table.classes[c].size
