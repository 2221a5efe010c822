from itertools import product

from fixspace.ff import make_field, poly_eval, poly_mul
import pytest

from fixspace import linalg
from fixspace.linalg import (SpinBasis, char_poly, det, eye, kron, mat_inv,
                             mat_mul, mat_vec, nullspace, rank, rref,
                             rref_coords, transpose)
from fixspace.rng import SeedStream


def rand_mat(F, n, stream):
    return [[F.element(stream.randrange(F.q)) for _ in range(n)] for _ in range(n)]


def det_cofactor(F, A):
    # independent oracle: Laplace expansion
    n = len(A)
    if n == 1:
        return A[0][0]
    total = F.zero
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        term = F.mul(A[0][j], det_cofactor(F, minor))
        if j % 2:
            term = F.neg(term)
        total = F.add(total, term)
    return total


def char_poly_oracle(F, A):
    # evaluate det(xI - A) at q points is not enough for q < n + 1,
    # so expand the polynomial matrix by cofactors over GF(p)[x] instead
    n = len(A)
    polys = [[((F.neg(A[i][j]),) if A[i][j] != F.zero else ())
              for j in range(n)] for i in range(n)]
    for i in range(n):
        polys[i][i] = tuple(list(polys[i][i] + (F.zero,) * 2)[:1]) + (F.one,)

    def pdet(M):
        if len(M) == 1:
            return M[0][0]
        acc = ()
        for j in range(len(M)):
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            term = poly_mul(F, M[0][j], pdet(minor))
            if j % 2:
                term = tuple(F.neg(c) for c in term)
            if len(term) > len(acc):
                acc = acc + (F.zero,) * (len(term) - len(acc))
            acc = tuple(F.add(a, b) for a, b in
                        zip(acc, term + (F.zero,) * (len(acc) - len(term))))
        return acc

    return pdet(polys)


def test_rref_idempotent_and_rank():
    F = make_field(5)
    s = SeedStream(1)
    for _ in range(20):
        A = rand_mat(F, 4, s)
        R, pivots = rref(F, [row[:] for row in A])
        R2, pivots2 = rref(F, [row[:] for row in R])
        assert R == R2 and pivots == pivots2
        assert len(pivots) == rank(F, A)


def test_nullspace_annihilated():
    F = make_field(7)
    s = SeedStream(2)
    for _ in range(20):
        A = rand_mat(F, 5, s)
        basis = nullspace(F, A)
        assert len(basis) == 5 - rank(F, A)
        for v in basis:
            assert all(x == F.zero for x in mat_vec(F, A, v))


def test_mat_inv_roundtrip():
    F = make_field(11)
    s = SeedStream(3)
    found = 0
    while found < 10:
        A = rand_mat(F, 4, s)
        if rank(F, A) < 4:
            continue
        found += 1
        assert mat_mul(F, A, mat_inv(F, A)) == eye(F, 4)


def test_det_matches_cofactor_oracle():
    F = make_field(3)
    s = SeedStream(4)
    for _ in range(25):
        A = rand_mat(F, 4, s)
        assert det(F, A) == det_cofactor(F, A)


def test_det_multiplicative_on_all_2x2_gf2():
    F = make_field(2)
    mats = [[[a, b], [c, d]] for a, b, c, d in product(range(2), repeat=4)]
    for A in mats[:8]:
        for B in mats[8:]:
            assert det(F, mat_mul(F, A, B)) == F.mul(det(F, A), det(F, B))


def test_char_poly_matches_cofactor_oracle():
    # q = 2 < n forces true polynomial arithmetic in the oracle
    for (p, k) in [(2, 1), (3, 1), (5, 1), (2, 2)]:
        F = make_field(p, k)
        s = SeedStream(5)
        for _ in range(10):
            A = rand_mat(F, 4, s)
            cp = char_poly(F, A)
            assert len(cp) == 5 and cp[-1] == F.one
            assert cp == char_poly_oracle(F, A)


def test_char_poly_vanishes_on_eigenvalues():
    F = make_field(7)
    A = [[2, 1, 0], [0, 2, 0], [0, 0, 5]]
    cp = char_poly(F, A)
    assert poly_eval(F, cp, 2) == 0
    assert poly_eval(F, cp, 5) == 0
    assert poly_eval(F, cp, 3) != 0


def test_kron_dimensions_and_mixed_product():
    F = make_field(5)
    s = SeedStream(6)
    A, B, C, D = (rand_mat(F, 2, s) for _ in range(4))
    left = mat_mul(F, kron(F, A, B), kron(F, C, D))
    right = kron(F, mat_mul(F, A, C), mat_mul(F, B, D))
    assert left == right
    assert len(kron(F, A, B)) == 4


def test_transpose_involution():
    F = make_field(3)
    s = SeedStream(7)
    A = rand_mat(F, 4, s)
    assert transpose(transpose(A)) == A


def test_spin_basis_incremental():
    F = make_field(5)
    sb = SpinBasis(F, 4)
    assert sb.add((1, 0, 0, 0))
    assert sb.add((0, 1, 0, 0))
    assert not sb.add((2, 3, 0, 0))   # dependent
    assert sb.dim() == 2
    assert sb.add((0, 0, 1, 1))
    assert sb.dim() == 3
    reduced = sb.reduce((1, 1, 1, 1))
    assert reduced[0] == F.zero and reduced[1] == F.zero


# prime fields run integer loops; the FieldCtx loops (_*_field) are the
# reference they must agree with entry for entry

PRIMES = (2, 3, 5, 7, 13)


def rand_rows(F, nrows, ncols, stream, density):
    """Random matrix; density in percent, so sparse matrices occur too."""
    return [[F.element(1 + stream.randrange(F.q - 1))
             if stream.randrange(100) < density else F.zero
             for _ in range(ncols)] for _ in range(nrows)]


def shaped_matrices(F, stream):
    """Square, wide, tall, all-zero and stacked 2n x n inputs."""
    out = []
    for n in (1, 2, 3, 5, 8):
        for density in (100, 60, 25):
            out.append(rand_rows(F, n, n, stream, density))
            out.append(rand_rows(F, n, n + 3, stream, density))
            out.append(rand_rows(F, n + 3, n, stream, density))
            # a stacked pair of g - 1 blocks, as in joint fixed spaces
            out.append(rand_rows(F, n, n, stream, density)
                       + rand_rows(F, n, n, stream, density))
        out.append([[F.zero] * n for _ in range(n)])
        out.append([[F.zero] * n for _ in range(2 * n)])
    # low-rank: rows that are combinations of two rows
    for _ in range(6):
        a, b = rand_rows(F, 2, 6, stream, 100)
        rows = []
        for _ in range(7):
            c, d = F.element(stream.randrange(F.q)), F.element(stream.randrange(F.q))
            rows.append([F.add(F.mul(c, x), F.mul(d, y)) for x, y in zip(a, b)])
        out.append(rows)
    return out


def generic_rref(F, rows):
    return linalg._rref_field(F, rows)


@pytest.mark.parametrize("p", PRIMES)
def test_int_rref_rank_nullspace_match_field_loop(p, monkeypatch):
    F = make_field(p)
    mats = shaped_matrices(F, SeedStream(100 + p))
    fast = [(rref(F, A), rank(F, A), nullspace(F, A)) for A in mats]
    # nullspace reaches the row reduction through rref only; rank runs the
    # integer loop itself, so it is held against the field loop's pivot count
    monkeypatch.setattr(linalg, "rref", generic_rref)
    slow = [(generic_rref(F, A), len(generic_rref(F, A)[1]), nullspace(F, A)) for A in mats]
    assert fast == slow
    assert any(r == 0 for _, r, _ in fast)
    assert any(0 < r < min(len(A), len(A[0])) for A, (_, r, _) in zip(mats, fast))


@pytest.mark.parametrize("p, k", [(p, 1) for p in PRIMES] + [(2, 2), (3, 2)])
def test_rank_by_forward_elimination_matches_rref(p, k, monkeypatch):
    F = make_field(p, k)
    mats = shaped_matrices(F, SeedStream(500 + F.q))
    want = [len(rref(F, A)[0]) for A in mats]
    before = [[list(r) for r in A] for A in mats]

    def no_rref(F, rows):
        raise AssertionError("rank went through rref")

    monkeypatch.setattr(linalg, "rref", no_rref)
    got = [rank(F, A) for A in mats]
    assert got == want
    assert mats == before
    assert 0 in got
    assert any(0 < r < min(len(A), len(A[0])) for A, r in zip(mats, got))
    assert any(r == min(len(A), len(A[0])) > 1 for A, r in zip(mats, got))


@pytest.mark.parametrize("p", PRIMES)
def test_int_vector_ops_match_field_loop(p):
    F = make_field(p)
    s = SeedStream(200 + p)
    for n, k in [(1, 1), (3, 3), (2, 4), (6, 3), (8, 8)]:
        for density in (100, 30, 0):
            A = rand_rows(F, n, k, s, density)
            v, w = (tuple(r) for r in rand_rows(F, 2, k, s, density))
            c = F.element(s.randrange(F.q))
            assert mat_vec(F, A, v) == linalg._mat_vec_field(F, A, v)
            assert linalg.scale_vec(F, c, v) == [F.mul(c, x) for x in v]
            assert linalg.add_scaled(F, v, c, w) == \
                [F.add(x, F.mul(c, y)) for x, y in zip(v, w)]


def rref_coords_oracle(F, rows, pivots, w):
    """The pivot entries of w, if they recombine the rows to w."""
    coords = [w[c] for c in pivots]
    back = [F.zero] * len(w)
    for c, row in zip(coords, rows):
        back = [F.add(x, F.mul(c, y)) for x, y in zip(back, row)]
    return coords if tuple(back) == tuple(w) else None


@pytest.mark.parametrize("p, k", [(p, 1) for p in PRIMES] + [(2, 2), (3, 2)])
def test_rref_coords_and_reduce_vec_match_field_loop(p, k):
    F = make_field(p, k)
    s = SeedStream(300 + F.q)
    outside = inside = 0
    for A in shaped_matrices(F, s):
        rows, pivots = rref(F, A)
        if not rows:
            continue
        n = len(A[0])
        combo = [F.element(s.randrange(F.q)) for _ in rows]
        w_in = (F.zero,) * n
        for c, row in zip(combo, rows):
            w_in = tuple(F.add(x, F.mul(c, y)) for x, y in zip(w_in, row))
        w_any = tuple(rand_rows(F, 1, n, s, 100)[0])
        for w in (w_in, w_any):
            got = rref_coords(F, rows, pivots, w)
            assert got == rref_coords_oracle(F, rows, pivots, w)
            assert linalg.reduce_vec(F, rows, pivots, w) == \
                linalg._reduce_vec_field(F, rows, pivots, w)
            outside += got is None
            inside += got is not None
        assert rref_coords(F, rows, pivots, w_in) == combo
    assert outside and inside


@pytest.mark.parametrize("p", PRIMES)
def test_int_spin_basis_matches_field_loop(p):
    # the basis is kept fully reduced, so sorted by pivot it is the rref
    # of everything added so far
    F = make_field(p)
    s = SeedStream(400 + p)
    full = 0
    for n in (1, 2, 4, 7):
        for density in (100, 40):
            sb = SpinBasis(F, n)
            added = []
            for v in rand_rows(F, 2 * n, n, s, density) + [[F.zero] * n]:
                rows, pivots = generic_rref(F, added)
                w = tuple(rand_rows(F, 1, n, s, 100)[0])
                assert sb.reduce(w) == linalg._reduce_vec_field(F, rows, pivots, w)
                added.append(v)
                after = generic_rref(F, added)[0]
                assert sb.add(v) == (len(after) > len(rows))
                assert sb.basis() == tuple(tuple(r) for r in after)
            full += sb.dim() == n
    assert full
