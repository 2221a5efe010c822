"""Dense exact linear algebra over a FieldCtx.

Matrices are lists of row lists of field elements; vectors are tuples.
Sizes stay small throughout the package, so schoolbook methods are used
everywhere and every routine is deterministic.

Over a prime field the elements are plain residues, so the hot routines
(rref, mat_vec, reduce_vec, scale_vec and add_scaled, and through them
rref_coords, kron and SpinBasis) run an integer loop with ``% p`` inline
when ``F.k == 1``. Over GF(p^k) they run the FieldCtx loop (the
``_*_field`` functions), which is also the reference the integer loops
are tested against.
"""

from operator import mul as _imul

from .ff import FieldCtx


class SingularMatrix(ValueError):
    pass


def eye(F: FieldCtx, n: int) -> list:
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def transpose(A: list) -> list:
    return [list(col) for col in zip(*A)]


def mat_mul(F: FieldCtx, A: list, B: list) -> list:
    n, m, k = len(A), len(B[0]), len(B)
    BT = list(zip(*B))
    out = []
    for i in range(n):
        Ai = A[i]
        row = []
        for j in range(m):
            Bj = BT[j]
            acc = F.zero
            for t in range(k):
                a = Ai[t]
                if a != F.zero:
                    acc = F.add(acc, F.mul(a, Bj[t]))
            row.append(acc)
        out.append(row)
    return out


def mat_vec(F: FieldCtx, A: list, v) -> tuple:
    if F.k == 1:
        p = F.p
        return tuple([sum(map(_imul, row, v)) % p for row in A])
    return _mat_vec_field(F, A, v)


def _mat_vec_field(F: FieldCtx, A: list, v) -> tuple:
    out = []
    for row in A:
        acc = F.zero
        for a, x in zip(row, v):
            if a != F.zero and x != F.zero:
                acc = F.add(acc, F.mul(a, x))
        out.append(acc)
    return tuple(out)


def kron(F: FieldCtx, A: list, B: list) -> list:
    """Kronecker product with row-major index pairing: (i,j) -> i*len(B)+j."""
    nb = len(B)
    mb = len(B[0])
    out = []
    for i in range(len(A)):
        for ib in range(nb):
            row = []
            for j in range(len(A[0])):
                a = A[i][j]
                if a == F.zero:
                    row.extend([F.zero] * mb)
                else:
                    row.extend(scale_vec(F, a, B[ib]))
            out.append(row)
    return out


def rref(F: FieldCtx, rows: list):
    """Reduced row echelon form (copy) and its pivot column list."""
    if F.k == 1:
        return _rref_mod(F.p, rows)
    return _rref_field(F, rows)


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


def _rref_field(F: FieldCtx, rows: list, _echelon: bool = False):
    M = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(M[0]) if M else 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(M)):
            if M[i][c] != F.zero:
                pr = i
                break
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = F.inv(M[r][c])
        if inv != F.one:
            M[r] = [F.mul(inv, x) for x in M[r]]
        for i in range(r + 1 if _echelon else 0, len(M)):
            if i != r and M[i][c] != F.zero:
                f = M[i][c]
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[r])]
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


def reduce_vec(F: FieldCtx, rows: list, pivots: list, v) -> list:
    """v minus its combination of the rows, each row clearing its pivot
    entry in turn; the representative of v modulo their span when the
    rows are in reduced echelon form."""
    if F.k == 1:
        return _reduce_vec_mod(F.p, rows, pivots, v)
    return _reduce_vec_field(F, rows, pivots, v)


def _reduce_vec_mod(p: int, rows: list, pivots: list, v) -> list:
    v = list(v)
    for row, piv in zip(rows, pivots):
        c = v[piv]
        if c:
            c = p - c
            v = [(x + c * y) % p for x, y in zip(v, row)]
    return v


def _reduce_vec_field(F: FieldCtx, rows: list, pivots: list, v) -> list:
    v = list(v)
    for row, piv in zip(rows, pivots):
        c = v[piv]
        if c != F.zero:
            v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
    return v


def scale_vec(F: FieldCtx, c, v) -> list:
    """c * v."""
    if F.k == 1:
        p = F.p
        return [c * x % p for x in v]
    return [F.mul(c, x) for x in v]


def add_scaled(F: FieldCtx, v, c, w) -> list:
    """v + c * w."""
    if F.k == 1:
        p = F.p
        return [(x + c * y) % p for x, y in zip(v, w)]
    return [F.add(x, F.mul(c, y)) for x, y in zip(v, w)]


def rank(F: FieldCtx, A: list) -> int:
    """Rank by forward elimination: only rows below a pivot are cleared."""
    if F.k == 1:
        return len(_rref_mod(F.p, A, _echelon=True)[1])
    return len(_rref_field(F, A, _echelon=True)[1])


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


def mat_inv(F: FieldCtx, A: list) -> list:
    n = len(A)
    M = [list(row) + ident_row for row, ident_row in zip(A, eye(F, n))]
    R, pivots = rref(F, M)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return [row[n:] for row in R]


def det(F: FieldCtx, A: list) -> object:
    M = [list(r) for r in A]
    n = len(M)
    d = F.one
    for c in range(n):
        pr = None
        for i in range(c, n):
            if M[i][c] != F.zero:
                pr = i
                break
        if pr is None:
            return F.zero
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            d = F.neg(d)
        d = F.mul(d, M[c][c])
        inv = F.inv(M[c][c])
        for i in range(c + 1, n):
            if M[i][c] != F.zero:
                f = F.mul(inv, M[i][c])
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[c])]
    return d


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


class SpinBasis:
    """Incrementally row-reduced spanning set for spin closures."""

    def __init__(self, F: FieldCtx, n: int):
        self.F = F
        self.n = n
        self.rows = []
        self.pivot_of_row = []

    def reduce(self, v):
        return reduce_vec(self.F, self.rows, self.pivot_of_row, v)

    def add(self, v) -> bool:
        """Insert v if independent; True when the basis grew."""
        F = self.F
        v = self.reduce(v)
        piv = next((j for j, x in enumerate(v) if x != F.zero), None)
        if piv is None:
            return False
        v = scale_vec(F, F.inv(v[piv]), v)
        # clear the new pivot column from the rows already in the basis
        self.rows = [reduce_vec(F, [v], [piv], row) for row in self.rows]
        self.rows.append(v)
        self.pivot_of_row.append(piv)
        return True

    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> tuple:
        order = sorted(range(len(self.rows)), key=lambda i: self.pivot_of_row[i])
        return tuple(tuple(self.rows[i]) for i in order)
