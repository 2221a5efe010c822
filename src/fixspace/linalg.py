"""Dense exact linear algebra over a FieldCtx.

Matrices are lists of row lists of field elements; vectors are tuples.
Sizes stay small throughout the package, so schoolbook methods are used
everywhere and every routine is deterministic.

Field elements are ints (see ff). One row-reduction kernel,
extend_basis, grows a basis a vector at a time: rank counts its rows (so
fixed spaces), rref sorts them by pivot and clears each at the pivots of
the rows below it, nullspace and char_poly grow bases of vectors tagged
by their coefficients, and Scott's ranks in bounds and the spin closures
of matrep.spin_span grow their own bases with it. reduce_vec against
rref rows is zero exactly on their span, where a vector's pivot entries
are its coordinates; matrep's sub sections read both. The hot routines
(extend_basis, mat_vec, reduce_vec and shift, and through them
everything else) have two loops each, chosen by ``F.k == 1``: over a
prime field an integer loop with ``% p`` inline, over GF(p^k) a loop
that indexes the field's tables (``F.tables()``, so q <= 256), a row
operation reading ``SUB[x][MUL[f][y]]``. kron scales rows with
ff.scale_vec, which has the same two loops. No FieldCtx element method
is called here.
"""

from operator import mul as _imul

from .ff import FieldCtx, poly_mul, scale_vec


def eye(F: FieldCtx, n: int) -> list:
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def transpose(A: list) -> list:
    return [list(col) for col in zip(*A)]


def mat_mul(F: FieldCtx, A: list, B: list) -> list:
    """A B, column by column of B."""
    return transpose([mat_vec(F, A, col) for col in zip(*B)])


def mat_vec(F: FieldCtx, A: list, v) -> tuple:
    if F.k == 1:
        p = F.p
        return tuple([sum(map(_imul, row, v)) % p for row in A])
    ADD, _, MUL, _ = F.tables()
    out = []
    for row in A:
        acc = 0
        for a, x in zip(row, v):
            if a and x:
                acc = ADD[acc][MUL[a][x]]
        out.append(acc)
    return tuple(out)


def kron(F: FieldCtx, A: list, B: list) -> list:
    """Kronecker product with row-major index pairing: (i,j) -> i*len(B)+j."""
    zeros = [F.zero] * len(B[0])
    out = []
    for Arow in A:
        for Brow in B:
            row = []
            for a in Arow:
                row += scale_vec(F, a, Brow) if a else zeros
            out.append(row)
    return out


def rref(F: FieldCtx, rows: list):
    """Reduced row echelon form (copy) and its pivot column list: the rows
    extend_basis keeps, in pivot order, each then reduced against the rows
    below it, which clears it at their pivots."""
    basis, pivots = [], []
    extend_basis(F, basis, pivots, rows, len(rows[0]) if rows else 0)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    R = [basis[i] for i in order]
    pivots = [pivots[i] for i in order]
    for i in range(len(R) - 2, -1, -1):
        R[i] = reduce_vec(F, R[i + 1:], pivots[i + 1:], R[i])
    return R, pivots


def reduce_vec(F: FieldCtx, rows: list, pivots: list, v) -> list:
    """v minus its combination of the rows, each row clearing its pivot
    entry in turn; the representative of v modulo their span when the
    rows are in reduced echelon form."""
    if F.k == 1:
        return _reduce_vec_mod(F.p, rows, pivots, v)
    return _reduce_vec_tab(F.tables(), rows, pivots, v)


def _reduce_vec_mod(p: int, rows: list, pivots: list, v) -> list:
    v = list(v)
    for row, piv in zip(rows, pivots):
        c = v[piv]
        if c:
            c = p - c
            v = [(x + c * y) % p for x, y in zip(v, row)]
    return v


def _reduce_vec_tab(tables: tuple, rows: list, pivots: list, v) -> list:
    _, SUB, MUL, _ = tables
    v = list(v)
    for row, piv in zip(rows, pivots):
        c = v[piv]
        if c:
            m = MUL[c]
            v = [SUB[x][m[y]] for x, y in zip(v, row)]
    return v


def extend_basis(F: FieldCtx, rows: list, pivots: list, vectors, limit: int) -> int:
    """Grow the basis rows, with pivot columns pivots, by the vectors in
    turn, and return len(rows).

    Each vector is reduced against the rows as in reduce_vec; a nonzero
    result joins them scaled to a leading one, its first nonzero column
    joining pivots. So each row is 1 at its pivot and 0 at the pivots of
    the rows before it, and reduce_vec leaves zero exactly on their span.
    Growth stops once there are limit rows, and no vector is read after
    that. rows and pivots are extended in place; the vectors are not
    changed, and no row is one of them.
    """
    if F.k == 1:
        return _extend_mod(F.p, rows, pivots, vectors, limit)
    return _extend_tab(F.tables(), rows, pivots, vectors, limit)


def _extend_mod(p: int, rows: list, pivots: list, vectors, limit: int) -> int:
    r = len(rows)
    if r >= limit:
        return r
    for v in vectors:
        w = v
        for row, piv in zip(rows, pivots):
            c = w[piv]
            if c:
                c = p - c
                w = [(x + c * y) % p for x, y in zip(w, row)]
        for piv, c in enumerate(w):
            if c:
                break
        else:
            continue
        if c != 1:
            c = pow(c, -1, p)
            w = [c * x % p for x in w]
        elif w is v:
            w = list(v)
        rows.append(w)
        pivots.append(piv)
        r += 1
        if r == limit:
            break
    return r


def _extend_tab(tables: tuple, rows: list, pivots: list, vectors, limit: int) -> int:
    _, SUB, MUL, INV = tables
    r = len(rows)
    if r >= limit:
        return r
    for v in vectors:
        w = v
        for row, piv in zip(rows, pivots):
            c = w[piv]
            if c:
                m = MUL[c]
                w = [SUB[x][m[y]] for x, y in zip(w, row)]
        for piv, c in enumerate(w):
            if c:
                break
        else:
            continue
        if c != 1:
            m = MUL[INV[c]]
            w = [m[x] for x in w]
        elif w is v:
            w = list(v)
        rows.append(w)
        pivots.append(piv)
        r += 1
        if r == limit:
            break
    return r


def shift(F: FieldCtx, M: list, c) -> list:
    """M - c I, computed in place on the square matrix M, which is returned."""
    if F.k == 1:
        p = F.p
        for i, row in enumerate(M):
            row[i] = (row[i] - c) % p
        return M
    SUB = F.tables()[1]
    for i, row in enumerate(M):
        row[i] = SUB[row[i]][c]
    return M


def rank(F: FieldCtx, A: list) -> int:
    """The number of rows extend_basis keeps from A, stopping once they
    fill every column."""
    return extend_basis(F, [], [], A, len(A[0]) if A else 0)


def nullity(F: FieldCtx, A: list) -> int:
    if not A:
        return 0
    return len(A[0]) - rank(F, A)


def nullspace(F: FieldCtx, A: list) -> list:
    """Basis of the right kernel {v : A v = 0}, one vector per free column
    j, 1 at j and 0 at the other free columns: A's columns grow a basis,
    column j tagged by e_j with the tags reversed, and a column that
    depends on those before it leaves a row that is zero but for its
    tags, led by e_j, whose pivot is past A's rows; its tags are v."""
    if not A:
        return []
    m, n = len(A), len(A[0])
    vectors = [list(col) + [F.zero] * (n - 1 - j) + [F.one] + [F.zero] * j
               for j, col in enumerate(zip(*A))]
    rows, pivots = [], []
    extend_basis(F, rows, pivots, vectors, n)
    return [tuple(reversed(row[m:])) for row, piv in zip(rows, pivots) if piv >= m]


def char_poly(F: FieldCtx, A: list) -> tuple:
    """det(xI - A) as a monic Poly, from Krylov blocks (Keller-Gehrig): for
    each e_j outside the span W of the blocks so far, A^d e_j tagged by
    x^d, the tags reversed, grows the basis until one leaves a row that is
    zero but for its tags, the block's monic relation modulo W. The
    block's tags are then zeroed, and det(xI - A) is the product of the
    relations."""
    n = len(A)
    out, rows, pivots = (F.one,), [], []
    zeros = [F.zero] * (n + 1)
    for j in range(n):
        if len(rows) == n:
            break
        start, v = len(rows), [F.zero] * n
        v[j] = F.one
        for d in range(n + 1):
            w = list(v) + zeros
            w[2 * n - d] = F.one
            extend_basis(F, rows, pivots, (w,), len(rows) + 1)
            if pivots[-1] >= n:
                break
            v = mat_vec(F, A, v)
        relation = rows.pop()[2 * n - d:]
        pivots.pop()
        if d:
            out = poly_mul(F, out, tuple(reversed(relation)))
        for row in rows[start:]:
            row[n:] = zeros
    return out
