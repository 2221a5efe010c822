"""Dense exact linear algebra over a FieldCtx.

Matrices are lists of row lists of field elements; vectors are tuples.
Sizes stay small throughout the package, so schoolbook methods are used
everywhere and every routine is deterministic.

Field elements are ints (see ff). The hot routines (rref, mat_vec,
reduce_vec, scale_vec, add_scaled and shift, and through them rref_coords,
kron and mat_mul) have two loops each, chosen by ``F.k == 1``: over a prime
field an integer loop with ``% p`` inline, over GF(p^k) a loop that
indexes the field's tables (``F.tables()``, so q <= 256), a row operation
reading ``SUB[x][MUL[f][y]]``. char_poly and nullspace call the FieldCtx
methods, which serve every field.
"""

from operator import mul as _imul

from .ff import FieldCtx


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
    """Reduced row echelon form (copy) and its pivot column list."""
    if F.k == 1:
        return _rref_mod(F.p, rows)
    return _rref_tab(F.tables(), rows)


def _rref_mod(p: int, rows: list, _echelon: bool = False):
    M = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(M[0]) if M else 0
    for c in range(ncols):
        for pr in range(r, len(M)):
            if M[pr][c]:
                break
        else:
            continue
        M[r], M[pr] = M[pr], M[r]
        row = M[r]
        inv = pow(row[c], -1, p)
        if inv != 1:
            row = M[r] = [inv * x % p for x in row]
        for i in range(r + 1 if _echelon else 0, len(M)):
            f = M[i][c]
            if f and i != r:
                f = p - f
                M[i] = [(x + f * y) % p for x, y in zip(M[i], row)]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M[:r], pivots


def _rref_tab(tables: tuple, rows: list, _echelon: bool = False):
    _, SUB, MUL, INV = tables
    M = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(M[0]) if M else 0
    for c in range(ncols):
        for pr in range(r, len(M)):
            if M[pr][c]:
                break
        else:
            continue
        M[r], M[pr] = M[pr], M[r]
        row = M[r]
        inv = INV[row[c]]
        if inv != 1:
            m = MUL[inv]
            row = M[r] = [m[x] for x in row]
        for i in range(r + 1 if _echelon else 0, len(M)):
            f = M[i][c]
            if f and i != r:
                m = MUL[f]
                M[i] = [SUB[x][m[y]] for x, y in zip(M[i], row)]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    return M[:r], pivots


def rref_coords(F: FieldCtx, rows: list, pivots: list, w) -> list:
    """Coordinates of w in the rref basis rows with pivot columns pivots,
    or None when w is not in their span."""
    rest = reduce_vec(F, rows, pivots, w)
    return [w[c] for c in pivots] if all(x == F.zero for x in rest) else None


def restrict(F: FieldCtx, M: list, rows: list, pivots: list):
    """The matrix R of M on the span of the rref basis rows b_i (pivot
    columns pivots), M b_j = sum_i R[i][j] b_i; None when M does not keep
    that span."""
    cols = []
    for b in rows:
        coords = rref_coords(F, rows, pivots, mat_vec(F, M, b))
        if coords is None:
            return None
        cols.append(coords)
    return transpose(cols)


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


def scale_vec(F: FieldCtx, c, v) -> list:
    """c * v."""
    if F.k == 1:
        p = F.p
        return [c * x % p for x in v]
    m = F.tables()[2][c]
    return [m[x] for x in v]


def add_scaled(F: FieldCtx, v, c, w) -> list:
    """v + c * w."""
    if F.k == 1:
        p = F.p
        return [(x + c * y) % p for x, y in zip(v, w)]
    ADD, _, MUL, _ = F.tables()
    m = MUL[c]
    return [ADD[x][m[y]] for x, y in zip(v, w)]


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
    """Rank by forward elimination: only rows below a pivot are cleared."""
    if F.k == 1:
        return len(_rref_mod(F.p, A, _echelon=True)[1])
    return len(_rref_tab(F.tables(), A, _echelon=True)[1])


def nullity(F: FieldCtx, A: list) -> int:
    if not A:
        return 0
    return len(A[0]) - rank(F, A)


def nullspace(F: FieldCtx, A: list) -> list:
    """Basis of the right kernel {v : A v = 0}, one vector per free column."""
    if not A:
        return []
    n = len(A[0])
    R, pivots = rref(F, A)
    piv_set = set(pivots)
    basis = []
    for free in range(n):
        if free in piv_set:
            continue
        v = [F.zero] * n
        v[free] = F.one
        for r, c in enumerate(pivots):
            v[c] = F.neg(R[r][free])
        basis.append(tuple(v))
    return basis


def char_poly(F: FieldCtx, A: list) -> tuple:
    """det(xI - A) as a monic Poly, via exact Hessenberg reduction."""
    n = len(A)
    H = [list(r) for r in A]
    for c in range(n - 2):
        pr = None
        for i in range(c + 1, n):
            if H[i][c] != F.zero:
                pr = i
                break
        if pr is None:
            continue
        if pr != c + 1:
            H[pr], H[c + 1] = H[c + 1], H[pr]
            for row in H:
                row[pr], row[c + 1] = row[c + 1], row[pr]
        inv = F.inv(H[c + 1][c])
        for i in range(c + 2, n):
            if H[i][c] != F.zero:
                f = F.mul(H[i][c], inv)
                Hi, Hc = H[i], H[c + 1]
                for j in range(n):
                    Hi[j] = F.sub(Hi[j], F.mul(f, Hc[j]))
                # inverse similarity: column c+1 absorbs column i
                for row in H:
                    row[c + 1] = F.add(row[c + 1], F.mul(f, row[i]))
    # p_m = (x - H[m][m]) p_{m-1} - sum_i H[i][m] (prod subdiag) p_{i-1}
    polys = [(F.one,)]
    for m in range(n):
        prev = polys[m]
        cur = [F.zero] + list(prev)
        hm = H[m][m]
        for j in range(len(prev)):
            cur[j] = F.sub(cur[j], F.mul(hm, prev[j]))
        sub = F.one
        for i in range(m - 1, -1, -1):
            sub = F.mul(sub, H[i + 1][i])
            if sub == F.zero:
                break
            coeff = F.mul(H[i][m], sub)
            if coeff != F.zero:
                pi = polys[i]
                for j in range(len(pi)):
                    cur[j] = F.sub(cur[j], F.mul(coeff, pi[j]))
        polys.append(tuple(cur))
    return polys[n]

