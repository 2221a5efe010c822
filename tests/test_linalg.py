from fixspace.ff import make_field, poly_eval, poly_mul, prime_power
import pytest

from fieldoracle import TupleField, mat_vec_field, reduce_vec_field, rref_ints
from fixspace import linalg
from fixspace.linalg import (char_poly, kron, mat_mul,
                             mat_vec, nullspace, rank, rref,
                             transpose)
from fixspace.matrep import IllTyped, build_rep, perm_module, section, spin_span
from fixspace.perm import PermGroup, perm_from_cycles, pmul
from fixspace.rng import SeedStream


def rand_mat(F, n, stream):
    return [[F.element(stream.randrange(F.q)) for _ in range(n)] for _ in range(n)]


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


def multi_block_matrices(F, n, stream):
    """Zero, scalar, diagonal with two repeated entries, two equal random
    blocks, nilpotent Jordan blocks of size 2 and a permutation with equal
    cycle lengths (a fixed point left over when n is odd), each as it is
    and conjugated by random elementary matrices."""
    def rand():
        return F.element(stream.randrange(F.q))

    c, a, b = rand(), rand(), rand()
    h = max(n // 2, 1)
    block = [[rand() for _ in range(h)] for _ in range(h)]
    mats = [
        [[F.zero] * n for _ in range(n)],
        [[c if i == j else F.zero for j in range(n)] for i in range(n)],
        [[(a, b)[i % 2] if i == j else F.zero for j in range(n)] for i in range(n)],
        [[block[i % h][j % h] if i // h == j // h < 2 else F.zero
          for j in range(n)] for i in range(n)],
        [[F.one if j == i + 1 and i % 2 == 0 else F.zero for j in range(n)]
         for i in range(n)],
        [[F.one if i < 2 * h and j == i - i % h + (i + 1) % h
          or i == j >= 2 * h else F.zero for j in range(n)] for i in range(n)],
    ]
    for M in list(mats):
        M = [row[:] for row in M]
        for _ in range(2 * (n - 1)):
            i, j = stream.randrange(n), stream.randrange(n - 1)
            j += j >= i
            f = F.element(1 + stream.randrange(F.q - 1))
            # E M E^-1 for E = I + f e_ij: row i gains f row j, then
            # column j loses f column i
            M[i] = [F.add(x, F.mul(f, y)) for x, y in zip(M[i], M[j])]
            for row in M:
                row[j] = F.sub(row[j], F.mul(f, row[i]))
        mats.append(M)
    return mats


def krylov_dim(F, A):
    """The dimension of the span of e_0, A e_0, A^2 e_0, ..."""
    v = tuple(F.one if i == 0 else F.zero for i in range(len(A)))
    vectors = [v]
    for _ in range(len(A) - 1):
        vectors.append(mat_vec(F, A, vectors[-1]))
    return rank(F, vectors)


@pytest.mark.parametrize("q", (2, 3, 7, 4, 9))
def test_char_poly_matches_cofactor_oracle_across_krylov_blocks(q):
    # a random matrix is almost always cyclic, so e_0 alone spans the
    # space; these need two or more blocks, whose relations multiply
    F = make_field(*prime_power(q))
    stream = SeedStream(700 + q)
    several = 0
    for n in range(1, 7):
        for A in multi_block_matrices(F, n, stream):
            before = [row[:] for row in A]
            assert char_poly(F, A) == char_poly_oracle(F, A)
            assert A == before
            several += krylov_dim(F, A) < n
    assert several >= 40


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


# prime fields run integer loops and GF(p^k) runs table loops; the tuple
# field's method loops (fieldoracle) are the reference both must agree
# with entry for entry

PRIMES = (2, 3, 5, 7, 13)
TABLE_FIELDS = (4, 8, 9, 16, 25, 49)


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
    return rref_ints(TupleField(*prime_power(F.q)), rows)


def kernel_oracle(F, A):
    """The canonical kernel basis from the field loop's rref R: for each
    free column f, v[f] = 1, 0 at the other free columns, and -R[r][f] at
    the pivot column of row r."""
    T = TupleField(*prime_power(F.q))
    R, pivots = rref_ints(T, A)
    basis = []
    for free in range(len(A[0])):
        if free in pivots:
            continue
        v = [F.zero] * len(A[0])
        v[free] = F.one
        for row, c in zip(R, pivots):
            v[c] = T.encode(T.neg(T.element(row[free])))
        basis.append(tuple(v))
    return basis


@pytest.mark.parametrize("q", PRIMES + TABLE_FIELDS)
def test_int_rref_rank_nullspace_match_field_loop(q):
    F = make_field(*prime_power(q))
    mats = shaped_matrices(F, SeedStream(100 + q))
    fast = [(rref(F, A), rank(F, A), nullspace(F, A)) for A in mats]
    slow = [(generic_rref(F, A), len(generic_rref(F, A)[1]), kernel_oracle(F, A))
            for A in mats]
    assert fast == slow
    assert any(r == 0 for _, r, _ in fast)
    assert any(0 < r < min(len(A), len(A[0])) for A, (_, r, _) in zip(mats, fast))


@pytest.mark.parametrize("p, k", [(p, 1) for p in PRIMES] + [(2, 2), (3, 2)])
def test_rank_counts_the_rows_extend_basis_keeps(p, k, monkeypatch):
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


@pytest.mark.parametrize("q", PRIMES + TABLE_FIELDS)
def test_extend_basis_keeps_a_semi_reduced_basis_of_the_row_space(q):
    # the row count is the rref's; every input row reduces to zero on the
    # kept rows, each 1 at its pivot (its first nonzero entry) and 0 at the
    # pivots before it; growth stops at the limit, reading no further
    # vector; a basis grows in two calls as in one, and not at all once it
    # has limit rows; the input stays as it was
    F = make_field(*prime_power(q))
    mats = shaped_matrices(F, SeedStream(600 + q))
    cut = 0
    for A in mats:
        before = [list(r) for r in A]
        n = len(A[0])
        rows, pivots = [], []
        r = linalg.extend_basis(F, rows, pivots, A, n)
        assert r == len(rows) == len(pivots) == len(rref(F, A)[1])
        for v in A:
            assert not any(linalg.reduce_vec(F, rows, pivots, v))
        for i, (row, piv) in enumerate(zip(rows, pivots)):
            assert row[piv] == F.one and not any(row[:piv])
            assert all(row[c] == F.zero for c in pivots[:i])
            assert all(row is not v for v in A)
        for limit in range(r):
            read = []
            counted = (read.append(v) or v for v in A)
            got_rows, got_pivots = [], []
            assert linalg.extend_basis(F, got_rows, got_pivots, counted, limit) == limit
            assert (got_rows, got_pivots) == (rows[:limit], pivots[:limit])
            # the last vector read is the one that made the limit-th row
            assert read == A[:len(read)]
            assert len(rref(F, read)[1]) == limit
            assert not read or len(rref(F, read[:-1])[1]) == limit - 1
            cut += limit > 0
        half = len(A) // 2
        two_rows, two_pivots = [], []
        linalg.extend_basis(F, two_rows, two_pivots, A[:half], n)
        assert linalg.extend_basis(F, two_rows, two_pivots, A[half:], n) == r
        assert (two_rows, two_pivots) == (rows, pivots)
        assert linalg.extend_basis(F, list(rows), list(pivots), unread(), r) == r
        assert A == before
    assert cut


def unread():
    raise AssertionError("a vector was read past the limit")
    yield


@pytest.mark.parametrize("q", PRIMES + TABLE_FIELDS)
def test_int_vector_ops_match_field_loop(q):
    F, T = make_field(*prime_power(q)), TupleField(*prime_power(q))
    s = SeedStream(200 + q)
    for n, k in [(1, 1), (3, 3), (2, 4), (6, 3), (8, 8)]:
        for density in (100, 30, 0):
            A = rand_rows(F, n, k, s, density)
            v, = rand_rows(F, 1, k, s, density)
            tv, = T.lift([v])
            assert list(mat_vec(F, A, tuple(v))) == T.drop([mat_vec_field(T, T.lift(A), tv)])[0]


def rref_coords_oracle(F, rows, pivots, w):
    """The pivot entries of w, if they recombine the rows to w."""
    coords = [w[c] for c in pivots]
    back = [F.zero] * len(w)
    for c, row in zip(coords, rows):
        back = [F.add(x, F.mul(c, y)) for x, y in zip(back, row)]
    return coords if tuple(back) == tuple(w) else None


@pytest.mark.parametrize("p, k", [(p, 1) for p in PRIMES] + [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_rref_coords_and_reduce_vec_match_field_loop(p, k):
    # reduce_vec is zero exactly on the span of rref rows, where the pivot
    # entries of w are its coordinates (what a sub section's image reads)
    F, T = make_field(p, k), TupleField(p, k)
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
            got = linalg.reduce_vec(F, rows, pivots, w)
            assert got == T.drop([reduce_vec_field(T, T.lift(rows), pivots, T.lift([w])[0])])[0]
            assert any(got) == (rref_coords_oracle(F, rows, pivots, w) is None)
            outside += any(got)
            inside += not any(got)
        assert rref_coords_oracle(F, rows, pivots, w_in) == combo
    assert outside and inside


def closure_oracle(F, mats, seeds):
    """Field-loop rref of everything the seeds reach under mats, collected
    until the rank of the collection stops growing."""
    T = TupleField(*prime_power(F.q))
    found = [list(v) for v in seeds]
    while True:
        rows = generic_rref(F, found)[0]
        found = rows + T.drop([mat_vec_field(T, T.lift(M), T.lift([v])[0])
                               for M in mats for v in rows])
        if len(generic_rref(F, found)[0]) == len(rows):
            return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("p, k", [(p, 1) for p in PRIMES] + [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_spin_span_matches_closure_oracle(p, k):
    # spin_span keeps its rows unreduced above their pivots while the span
    # grows; its result must still be the one rref of the closure, with no
    # matrices (every prefix of a list with dependent and zero vectors) and
    # with one or two matrices
    F = make_field(p, k)
    s = SeedStream(400 + F.q)
    full = grown = 0
    for n in (1, 2, 4, 7):
        for density in (100, 40):
            vecs = rand_rows(F, 2 * n, n, s, density) + [[F.zero] * n]
            for i in range(len(vecs) + 1):
                assert spin_span(F, [], vecs[:i]) == closure_oracle(F, [], vecs[:i])
            full += len(spin_span(F, [], vecs)) == n
            for count in (1, 2):
                mats = [rand_rows(F, n, n, s, density) for _ in range(count)]
                got = spin_span(F, mats, vecs[:1])
                assert got == closure_oracle(F, mats, vecs[:1])
                grown += len(got) > len(spin_span(F, [], vecs[:1]))
    assert full and grown


@pytest.mark.parametrize("p, k", [(2, 1), (5, 1), (13, 1), (2, 2), (3, 2)])
def test_restrict_matches_combination_oracle(p, k):
    # a sub section's image R of g satisfies M b_j = sum_i R[i][j] b_i on
    # every spun-up (so invariant) span, M the parent's image of g; the
    # line of a seed whose spin-up is larger is refused at build time. The
    # group is S4 x C3 on 8 points, so most spins are proper
    F = make_field(p, k)
    G = PermGroup(8, [perm_from_cycles(8, cycles)
                      for cycles in ([(1, 2, 3, 4)], [(1, 2)], [(5, 6, 7)])])
    parent = build_rep(perm_module(G, F))
    s = SeedStream(500 + F.q)
    proper = refused = 0
    for seed in rand_rows(F, 6, 8, s, 60) + [[F.one] + [F.zero] * 7]:
        rows = spin_span(F, parent.images, [seed])
        if len(rows) < 8:
            sub = build_rep(section(parent.spec, "sub", basis=rows))
            assert sub.dim == len(rows)
            for _ in range(4):
                g = G.gens[s.randrange(3)]
                for _ in range(s.randrange(5)):
                    g = pmul(G.gens[s.randrange(3)], g)
                M, R = parent.image(g), sub.image(g)
                assert len(R) == len(rows) and all(len(r) == len(rows) for r in R)
                for j, b in enumerate(rows):
                    combo = [F.zero] * 8
                    for i, bi in enumerate(rows):
                        combo = [F.add(x, F.mul(R[i][j], y)) for x, y in zip(combo, bi)]
                    assert mat_vec(F, M, b) == tuple(combo)
            proper += 1
        if len(rows) > 1:
            with pytest.raises(IllTyped, match="section basis is not invariant"):
                build_rep(section(parent.spec, "sub", basis=[seed]))
            refused += 1
    assert proper and refused


def test_empty_matrix_has_nullity_zero_and_no_kernel_basis():
    F = make_field(5)
    assert linalg.nullity(F, []) == 0
    assert nullspace(F, []) == []
