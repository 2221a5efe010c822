"""Root systems and highest-weight modules.

Weyl dimensions, Freudenthal weight multiplicities, and torus
specializations of characteristic polynomials, plus the divisibility and
eigenvalue-separation checks built on them.

Weights cross the module boundary as integer vectors in fundamental-weight
coordinates.  Internally each root system lives in its standard Bourbaki
realization with Fraction coordinates, so every inner product is exact.

Labeling note for G2: omega_1 here is the fundamental weight attached to
the SHORT simple root, so weyl_dim(G2, (1, 0)) = 7.  Conventions differ
between references; this one is fixed and covered by tests.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .ff import (FieldCtx, make_field, multiplicative_generator, poly_divides,
                 poly_mul, prime_power)
from .rng import SeedStream


class NotDominant(ValueError):
    pass


class TooLarge(ValueError):
    pass


class ZeroTorusValue(ValueError):
    pass


class HypothesisViolated(ValueError):
    pass


class NotRestricted(ValueError):
    pass


DIM_CAP = 10 ** 5

# Scope statement attached to every divisibility report: the comparison is
# made at torus specializations, where characteristic polynomials of
# diagonalizable elements are products over weight values.
SCOPE_NOTE = "compared at torus specializations only"


def _vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _vscale(u, c):
    return tuple(a * c for a in u)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _fsolve(rows, rhs):
    """Solve a small square Fraction system by Gaussian elimination.

    Returns the solution vector, or None if the matrix is singular.
    """
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return tuple(aug[i][n] for i in range(n))


_POSITIVE_COUNT = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "G": lambda r: 6,
}

_RANK_RANGE = {"A": (1, 4), "B": (2, 4), "C": (2, 4), "D": (3, 4), "G": (2, 2)}


def _simple_roots(letter: str, rank: int):
    one = Fraction(1)

    def e(i, n):
        return tuple(one if j == i else Fraction(0) for j in range(n))

    if letter == "A":
        n = rank + 1
        return [_vsub(e(i, n), e(i + 1, n)) for i in range(rank)]
    if letter == "B":
        out = [_vsub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        out.append(e(rank - 1, rank))
        return out
    if letter == "C":
        out = [_vsub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        out.append(_vscale(e(rank - 1, rank), Fraction(2)))
        return out
    if letter == "D":
        out = [_vsub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        out.append(_vadd(e(rank - 2, rank), e(rank - 1, rank)))
        return out
    # G2 in R^3; alpha_1 = e1 - e2 is the SHORT simple root.
    return [(one, -one, Fraction(0)), (Fraction(-2), one, one)]


class RootSystem:
    """An irreducible root system of rank <= 4 in Bourbaki coordinates.

    Attributes: `simple`, `positive`, `fundamental`, `rho` are tuples of
    ambient Fraction vectors; `cartan[i][j]` is the pairing of alpha_j
    against the coroot of alpha_i.
    """

    def __init__(self, name: str):
        letter, rank = _parse_name(name)
        self.name = name
        self.letter = letter
        self.rank = rank
        self.simple = tuple(_simple_roots(letter, rank))
        self._norm = tuple(_dot(a, a) for a in self.simple)
        self.positive = self._closure_positive()
        if len(self.positive) != _POSITIVE_COUNT[letter](rank):
            raise AssertionError(f"positive root count wrong for {name}")
        self.fundamental = self._solve_fundamental()
        half = Fraction(1, 2)
        rho = tuple(_vscale(a, half) for a in self.positive)
        acc = (Fraction(0),) * len(self.simple[0])
        for v in rho:
            acc = _vadd(acc, v)
        self.rho = acc
        for i in range(rank):
            if self.pairing(self.rho, i) != 1:
                raise AssertionError("Weyl vector pairing is not 1")
            for j in range(rank):
                want = 1 if i == j else 0
                if self.pairing(self.fundamental[j], i) != want:
                    raise AssertionError("fundamental weight pairing wrong")
        self.cartan = tuple(
            tuple(int(self.pairing(self.simple[j], i)) for j in range(rank))
            for i in range(rank)
        )

    # pairings and coordinates -------------------------------------------

    def pairing(self, v, i: int) -> Fraction:
        """<v, alpha_i-coroot> = 2(v, alpha_i)/(alpha_i, alpha_i)."""
        return 2 * _dot(v, self.simple[i]) / self._norm[i]

    def fund_to_ambient(self, lam):
        acc = (Fraction(0),) * len(self.simple[0])
        for c, w in zip(lam, self.fundamental):
            if c:
                acc = _vadd(acc, _vscale(w, Fraction(c)))
        return acc

    def ambient_to_fund(self, v):
        out = []
        for i in range(self.rank):
            c = self.pairing(v, i)
            if c.denominator != 1:
                raise AssertionError("vector is not an integral weight")
            out.append(int(c))
        return tuple(out)

    def simple_coords(self, v):
        """Coordinates of v in the simple-root basis, or None."""
        gram = [[_dot(a, b) for b in self.simple] for a in self.simple]
        rhs = [_dot(v, a) for a in self.simple]
        sol = _fsolve(gram, rhs)
        if sol is None:
            return None
        check = (Fraction(0),) * len(v)
        for c, a in zip(sol, self.simple):
            check = _vadd(check, _vscale(a, c))
        return sol if check == tuple(v) else None

    # reflections ---------------------------------------------------------

    def reflect(self, v, i: int):
        return _vsub(v, _vscale(self.simple[i], self.pairing(v, i)))

    def reflect_fund(self, w, i: int):
        """Simple reflection acting on fundamental coordinates."""
        return tuple(w[j] - w[i] * self.cartan[j][i] for j in range(self.rank))

    def dominant_rep(self, v):
        for _ in range(10 ** 6):
            i = next((j for j in range(self.rank) if self.pairing(v, j) < 0), None)
            if i is None:
                return v
            v = self.reflect(v, i)
        raise AssertionError("dominant representative did not stabilize")

    def weyl_orbit(self, w):
        """Orbit of a fundamental-coordinate weight under the Weyl group."""
        start = tuple(w)
        seen = {start}
        queue = [start]
        for cur in queue:
            for i in range(self.rank):
                nxt = self.reflect_fund(cur, i)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return sorted(seen)

    # construction helpers -------------------------------------------------

    def _closure_positive(self):
        seen = set(self.simple)
        queue = list(self.simple)
        for root in queue:
            for i in range(self.rank):
                r = self.reflect(root, i)
                if r not in seen:
                    seen.add(r)
                    queue.append(r)
        positive = []
        for root in sorted(seen):
            coords = self.simple_coords(root)
            if coords is not None and all(c >= 0 for c in coords):
                positive.append(root)
        return tuple(positive)

    def _solve_fundamental(self):
        rank = self.rank
        mat = [
            [self.pairing(self.simple[k], j) for k in range(rank)]
            for j in range(rank)
        ]
        out = []
        for i in range(rank):
            rhs = [Fraction(1) if j == i else Fraction(0) for j in range(rank)]
            coeffs = _fsolve(mat, rhs)
            acc = (Fraction(0),) * len(self.simple[0])
            for c, a in zip(coeffs, self.simple):
                acc = _vadd(acc, _vscale(a, c))
            out.append(acc)
        return tuple(out)


def _parse_name(name: str):
    if not isinstance(name, str) or len(name) != 2:
        raise ValueError(f"bad root system name: {name!r}")
    letter, digit = name[0].upper(), name[1]
    if letter not in _RANK_RANGE or not digit.isdigit():
        raise ValueError(f"bad root system name: {name!r}")
    rank = int(digit)
    lo, hi = _RANK_RANGE[letter]
    if not lo <= rank <= hi:
        raise ValueError(f"rank {rank} out of range for type {letter}")
    return letter, rank


_RS_CACHE: dict = {}


def root_system(name: str) -> RootSystem:
    key = name.upper()
    if key not in _RS_CACHE:
        _RS_CACHE[key] = RootSystem(key)
    return _RS_CACHE[key]


def _check_dominant(rs: RootSystem, lam) -> tuple:
    lam = tuple(lam)
    if len(lam) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates, got {len(lam)}")
    if any(not isinstance(c, int) for c in lam):
        raise NotDominant(f"coordinates must be integers: {lam}")
    if any(c < 0 for c in lam):
        raise NotDominant(f"not a dominant weight: {lam}")
    return lam


def weyl_dim(rs: RootSystem, lam) -> int:
    lam = _check_dominant(rs, lam)
    shifted = _vadd(rs.fund_to_ambient(lam), rs.rho)
    num = Fraction(1)
    den = Fraction(1)
    for alpha in rs.positive:
        num *= _dot(shifted, alpha)
        den *= _dot(rs.rho, alpha)
    d = num / den
    if d.denominator != 1 or d <= 0:
        raise AssertionError(f"Weyl dimension not a positive integer: {d}")
    return int(d)


@dataclass(frozen=True)
class WeightMultiset:
    """Weights of an irreducible highest-weight module.

    `entries` lists (weight in fundamental coordinates, multiplicity),
    sorted, each weight appearing once.
    """

    system: str
    rank: int
    entries: tuple

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def multiplicity(self, w) -> int:
        w = tuple(w)
        for weight, m in self.entries:
            if weight == w:
                return m
        return 0


def weight_multiset(rs: RootSystem, lam) -> WeightMultiset:
    """Weights with multiplicities, by Freudenthal's recursion.

    Multiplicities are computed on the dominant cone top-down, then spread
    over Weyl orbits.  The recursion needs multiplicities only at weights
    strictly closer to the highest weight, and those are looked up through
    their dominant representatives.
    """
    lam = _check_dominant(rs, lam)
    dim = weyl_dim(rs, lam)
    if dim > DIM_CAP:
        raise TooLarge(f"dimension {dim} exceeds cap {DIM_CAP}")
    lam_amb = rs.fund_to_ambient(lam)
    two_rho = _vscale(rs.rho, Fraction(2))

    # The lowest weight is the dominant representative of -lam negated;
    # lam minus lowest bounds the coefficient box for dominant candidates.
    lowest_neg = rs.dominant_rep(_vscale(lam_amb, Fraction(-1)))
    span = _vadd(lam_amb, lowest_neg)
    box = []
    for c in rs.simple_coords(span):
        if c.denominator != 1 or c < 0:
            raise AssertionError("weight span is not a nonnegative root sum")
        box.append(int(c))

    pos_simple = []
    for alpha in rs.positive:
        coords = tuple(int(c) for c in rs.simple_coords(alpha))
        pos_simple.append(coords)

    candidates = []
    for cvec in product(*(range(b + 1) for b in box)):
        v = lam_amb
        for c, alpha in zip(cvec, rs.simple):
            if c:
                v = _vsub(v, _vscale(alpha, Fraction(c)))
        if all(rs.pairing(v, i) >= 0 for i in range(rs.rank)):
            candidates.append((sum(cvec), cvec, rs.ambient_to_fund(v), v))
    candidates.sort(key=lambda item: (item[0], item[2]))

    mult = {lam: 1}
    for height, cvec, fund, v in candidates:
        if height == 0:
            continue
        num = Fraction(0)
        for alpha, acoords in zip(rs.positive, pos_simple):
            j = 1
            while True:
                rest = tuple(c - j * a for c, a in zip(cvec, acoords))
                if any(c < 0 for c in rest):
                    break
                nu = _vadd(v, _vscale(alpha, Fraction(j)))
                m = mult.get(rs.ambient_to_fund(rs.dominant_rep(nu)), 0)
                if m:
                    num += m * _dot(nu, alpha)
                j += 1
        den = _dot(_vadd(_vadd(lam_amb, v), two_rho), _vsub(lam_amb, v))
        if den <= 0:
            raise AssertionError("Freudenthal denominator not positive")
        m = 2 * num / den
        if m.denominator != 1 or m < 0:
            raise AssertionError("Freudenthal multiplicity not a nonnegative integer")
        if m:
            mult[fund] = int(m)

    entries = {}
    for fund, m in mult.items():
        for w in rs.weyl_orbit(fund):
            if w in entries:
                raise AssertionError("Weyl orbits of distinct dominant weights met")
            entries[w] = m
    wms = WeightMultiset(rs.name, rs.rank, tuple(sorted(entries.items())))
    if wms.total() != dim:
        raise AssertionError(
            f"weight multiplicities sum to {wms.total()}, expected {dim}"
        )
    return wms


# torus specialization --------------------------------------------------


def torus_char_poly(wms: WeightMultiset, t, F: FieldCtx) -> tuple:
    """prod over (weight mu, mult m) of (x - t^mu)^m.

    `t` assigns one nonzero field element per fundamental-torus coordinate;
    t^mu multiplies t_i raised to the i-th coordinate of mu.
    """
    t = tuple(t)
    if len(t) != wms.rank:
        raise ValueError(f"expected {wms.rank} torus values, got {len(t)}")
    for x in t:
        if F.is_zero(x):
            raise ZeroTorusValue("torus values must be nonzero")
    poly = (F.one,)
    for weight, m in wms.entries:
        val = F.one
        for x, w in zip(t, weight):
            val = F.mul(val, F.pow(x, w))
        factor = (F.neg(val), F.one)
        for _ in range(m):
            poly = poly_mul(F, poly, factor)
    return poly


def torus_sample_set(F: FieldCtx, rank: int, count: int, seed: int) -> list:
    """Seeded nonzero torus assignments for the divisibility checks."""
    stream = SeedStream(seed)
    out = []
    for _ in range(count):
        out.append(
            tuple(F.element(1 + stream.randrange(F.q - 1)) for _ in range(rank))
        )
    return out


def _scaled(wms: WeightMultiset, c: int) -> WeightMultiset:
    entries = tuple(
        sorted((tuple(x * c for x in w), m) for w, m in wms.entries)
    )
    return WeightMultiset(wms.system, wms.rank, entries)


def _tensor(a: WeightMultiset, b: WeightMultiset) -> WeightMultiset:
    acc: dict = {}
    for wa, ma in a.entries:
        for wb, mb in b.entries:
            w = tuple(x + y for x, y in zip(wa, wb))
            acc[w] = acc.get(w, 0) + ma * mb
    return WeightMultiset(a.system, a.rank, tuple(sorted(acc.items())))


def _contains(big: WeightMultiset, small: WeightMultiset) -> bool:
    lookup = dict(big.entries)
    return all(lookup.get(w, 0) >= m for w, m in small.entries)


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of a character divisibility check.

    verdict is "holds", "NotApplicable", or "Unresolved".  The check
    compares characteristic polynomials at sampled torus elements only
    (`scope`); containment_ok records the weight-multiset route.
    """

    verdict: str
    containment_ok: bool
    samples_checked: int
    failed_samples: tuple
    scope: str = SCOPE_NOTE


def check_twist_divisibility(
    rs: RootSystem, lam0, lam1, p: int, samples, F: FieldCtx
) -> DivisibilityReport:
    """Does the twisted factor's polynomial divide the tensor's?

    The tensor is module(lam0) with module(lam1) twisted by the p-power
    map, so its weights are weights(lam0) + p*weights(lam1).  When 0 is a
    weight of lam0 the twisted factor's weight multiset embeds in the
    tensor's, forcing divisibility; without a 0 weight the hypothesis
    fails and the verdict is NotApplicable.
    """
    if p < 2:
        raise ValueError(f"twist exponent must be at least 2: {p}")
    w0 = weight_multiset(rs, lam0)
    w1 = weight_multiset(rs, lam1)
    if w0.multiplicity((0,) * rs.rank) == 0:
        return DivisibilityReport("NotApplicable", False, 0, ())
    twisted = _scaled(w1, p)
    tensor = _tensor(w0, twisted)
    containment = _contains(tensor, twisted)
    failed = []
    checked = 0
    for t in samples:
        small = torus_char_poly(twisted, t, F)
        big = torus_char_poly(tensor, t, F)
        if not poly_divides(F, small, big):
            failed.append(tuple(t))
        checked += 1
    verdict = "holds" if containment and not failed else "Unresolved"
    return DivisibilityReport(verdict, containment, checked, tuple(failed))


def check_sym_divisibility(n: int, s: int, samples, F: FieldCtx) -> DivisibilityReport:
    """Does the degree-s symmetric power's polynomial divide the degree-(s+n) one?

    Type A_{n-1}.  Multiplying a degree-s monomial in n variables by the
    product of all variables gives a degree-(s+n) monomial with the same
    torus character (the determinant weight is trivial), so the smaller
    weight multiset embeds in the larger.  Valid only past s + n in the
    field characteristic; below that the modules involved need not match
    their characteristic-0 weight structure.
    """
    if not 2 <= n <= 5:
        raise ValueError(f"n must be between 2 and 5: {n}")
    if s < 1:
        raise ValueError(f"s must be positive: {s}")
    if F.p <= s + n:
        raise HypothesisViolated(
            f"requires characteristic > s + n = {s + n}, field has {F.p}"
        )
    rs = root_system(f"A{n - 1}")
    lam_small = (s,) + (0,) * (rs.rank - 1)
    lam_big = (s + n,) + (0,) * (rs.rank - 1)
    small = weight_multiset(rs, lam_small)
    big = weight_multiset(rs, lam_big)
    containment = _contains(big, small)
    failed = []
    checked = 0
    for t in samples:
        fs = torus_char_poly(small, t, F)
        fb = torus_char_poly(big, t, F)
        if not poly_divides(F, fs, fb):
            failed.append(tuple(t))
        checked += 1
    verdict = "holds" if containment and not failed else "Unresolved"
    return DivisibilityReport(verdict, containment, checked, tuple(failed))


# eigenvalue separation on a torus of order q + 1 ------------------------


@dataclass(frozen=True)
class EigenvalueReport:
    """Whether the weight values s, s-2, ..., -s stay distinct at an
    element of order q + 1.

    `witness` holds the field-element encodings of the values when
    distinct, otherwise one coinciding weight pair.
    """

    q: int
    s: int
    p: int
    module_dim: int
    torus_order: int
    distinct: bool
    witness: tuple


def sl2_distinct_eigenvalues(q: int, s: int) -> EigenvalueReport:
    """Evaluate the weights of the (s+1)-dimensional restricted module at
    an element of multiplicative order q + 1.

    The element is realized as a power of a generator of GF(q^2)^*, so the
    weight values are honest field elements; they are pairwise distinct
    exactly when 2(s+1) - 2 < q + 1, and the report's distinctness is
    cross-checked against that threshold.
    """
    if not isinstance(q, int) or q < 3 or q > 10 ** 4 or q % 2 == 0:
        raise ValueError(f"q must be an odd prime power in [3, 10^4]: {q}")
    p, k = prime_power(q)
    if not 0 <= s <= p - 1:
        raise NotRestricted(f"s must lie in [0, {p - 1}]: {s}")
    F = make_field(p, 2 * k)
    gen = multiplicative_generator(F)
    zeta = F.pow(gen, (F.q - 1) // (q + 1))
    weights = list(range(s, -s - 1, -2))
    values = [F.pow(zeta, w) for w in weights]
    first_at: dict = {}
    pair = None
    for w, v in zip(weights, values):
        if v in first_at and pair is None:
            pair = (first_at[v], w)
        first_at.setdefault(v, w)
    distinct = pair is None
    if distinct != (2 * (s + 1) - 2 < q + 1):
        raise AssertionError("distinctness disagrees with the threshold criterion")
    witness = tuple(F.encode(v) for v in values) if distinct else pair
    return EigenvalueReport(q, s, p, s + 1, q + 1, distinct, witness)
