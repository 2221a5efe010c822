"""Root systems and highest-weight modules.

Weyl dimensions and Freudenthal weight multiplicities, plus the
characteristic-polynomial divisibility checks and the eigenvalue-separation
check built on them.  A diagonalizable element's characteristic polynomial
on a module is the product of (x - t^mu) over its weights mu, so one
polynomial divides another at every torus element exactly when the first
weight multiset is contained in the second.

Everything is integer arithmetic on Cartan-matrix data.  Weights are
integer vectors in fundamental-weight coordinates, roots and differences
of weights are integer vectors in simple-root coordinates, and the
invariant form is (mu, alpha) = sum_i a_i n_i mu_i for the root-length
symmetrizer n_i (Humphreys, Introduction to Lie Algebras and
Representation Theory, sections 22-24).

Labeling note for G2: omega_1 here is the fundamental weight attached to
the SHORT simple root, so weyl_dim(G2, (1, 0)) = 7.  Conventions differ
between references; this one is fixed and covered by tests.
"""

from functools import cache
from typing import NamedTuple

from .ff import make_field, multiplicative_generator, prime_power


class NotDominant(ValueError):
    pass


class TooLarge(ValueError):
    pass


class HypothesisViolated(ValueError):
    pass


class NotRestricted(ValueError):
    pass


DIM_CAP = 10 ** 5


_POSITIVE_COUNT = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "G": lambda r: 6,
}

_RANK_RANGE = {"A": (1, 4), "B": (2, 4), "C": (2, 4), "D": (3, 4), "G": (2, 2)}

# Root-length symmetrizer n_i, proportional to (alpha_i, alpha_i).
_SYMMETRIZER = {
    "A": lambda r: (1,) * r,
    "B": lambda r: (2,) * (r - 1) + (1,),
    "C": lambda r: (1,) * (r - 1) + (2,),
    "D": lambda r: (1,) * r,
    "G": lambda r: (1, 3),
}


def _cartan(letter: str, norm) -> tuple:
    """Cartan matrix from the Dynkin diagram and the symmetrizer.

    For an edge i - j, n_i * cartan[i][j] = -max(n_i, n_j), which makes
    n_i * cartan[i][j] symmetric.
    """
    rank = len(norm)
    edges = [(i, i + 1) for i in range(rank - 1)]
    if letter == "D":
        edges[-1] = (rank - 3, rank - 1)
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        longer = max(norm[i], norm[j])
        cartan[i][j] = -(longer // norm[i])
        cartan[j][i] = -(longer // norm[j])
    return tuple(tuple(row) for row in cartan)


class RootSystem:
    """An irreducible root system of rank <= 4 in integer coordinates.

    `cartan[i][j]` is the pairing of alpha_j against the coroot of alpha_i,
    and `norm[i]` is n_i, so (alpha_i, alpha_j) is proportional to
    n_i * cartan[i][j].  `positive` lists the positive roots in simple-root
    coordinates; weights use fundamental-weight coordinates.
    """

    def __init__(self, name: str):
        letter, rank = _parse_name(name)
        self.name = name
        self.rank = rank
        self.norm = _SYMMETRIZER[letter](rank)
        self.cartan = _cartan(letter, self.norm)
        self.positive = self._closure_positive()
        if len(self.positive) != _POSITIVE_COUNT[letter](rank):
            raise AssertionError(f"positive root count wrong for {name}")

    def inner(self, mu, a) -> int:
        """(mu, alpha) for mu in fundamental and alpha in simple-root
        coordinates, up to a positive factor fixed by the system."""
        return sum(c * n * m for c, n, m in zip(a, self.norm, mu))

    def root_to_fund(self, a) -> tuple:
        """Fundamental coordinates of the root sum with simple coordinates a."""
        return tuple(sum(c * x for c, x in zip(a, row)) for row in self.cartan)

    def reflect_fund(self, w, i: int):
        """Simple reflection acting on fundamental coordinates."""
        return tuple(w[j] - w[i] * self.cartan[j][i] for j in range(self.rank))

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

    def _closure_positive(self):
        """Reflection closure of the simple roots, nonnegative half."""
        unit = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        seen = set(unit)
        queue = list(unit)
        for root in queue:
            for i, pair in enumerate(self.root_to_fund(root)):
                r = root[:i] + (root[i] - pair,) + root[i + 1:]
                if r not in seen:
                    seen.add(r)
                    queue.append(r)
        return tuple(sorted(r for r in seen if min(r) >= 0))


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


@cache
def root_system(name: str) -> RootSystem:
    return RootSystem(name.upper())


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
    """prod over positive alpha of (lam + rho, alpha) / (rho, alpha)."""
    lam = _check_dominant(rs, lam)
    shifted = tuple(c + 1 for c in lam)
    rho = (1,) * rs.rank
    num = 1
    den = 1
    for alpha in rs.positive:
        num *= rs.inner(shifted, alpha)
        den *= rs.inner(rho, alpha)
    if num % den or num <= 0:
        raise AssertionError(f"Weyl dimension not a positive integer: {num}/{den}")
    return num // den


class WeightMultiset(NamedTuple):
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


def _dominant_walk(rs: RootSystem, w):
    """Dominant representative of w."""
    while True:
        i = next((j for j in range(rs.rank) if w[j] < 0), None)
        if i is None:
            return w
        w = rs.reflect_fund(w, i)


def _dominant_below(rs: RootSystem, lam) -> dict:
    """Every dominant weight v <= lam, mapped to the simple-root
    coordinates of lam - v: the dominant results of walking down from lam
    by positive roots."""
    roots = [(a, rs.root_to_fund(a)) for a in rs.positive]
    below = {lam: (0,) * rs.rank}
    queue = [lam]
    for v in queue:
        for a, afund in roots:
            u = tuple(x - y for x, y in zip(v, afund))
            if min(u) >= 0 and u not in below:
                below[u] = tuple(x + y for x, y in zip(below[v], a))
                queue.append(u)
    return below


def weight_multiset(rs: RootSystem, lam) -> WeightMultiset:
    """Weights with multiplicities, by Freudenthal's recursion.

    Multiplicities are computed on the dominant cone top-down, then spread
    over Weyl orbits.  The dominant weights below lam are found by walking
    down from lam by positive roots and keeping the dominant results: two
    dominant weights adjacent in the dominance order differ by a positive
    root (Stembridge, The partial order of dominant weights, Adv. Math.
    136, 1998), so the walk reaches all of them.  The recursion needs
    multiplicities only at weights strictly closer to the highest weight,
    and those are looked up through their dominant representatives
    (Moody-Patera).  Every quantity is an integer: weights in fundamental
    coordinates, roots and lam - mu in simple-root coordinates.
    """
    lam = _check_dominant(rs, lam)
    dim = weyl_dim(rs, lam)
    if dim > DIM_CAP:
        raise TooLarge(f"dimension {dim} exceeds cap {DIM_CAP}")

    below = _dominant_below(rs, lam)
    candidates = sorted((sum(cvec), v, cvec) for v, cvec in below.items())
    roots = [(a, rs.root_to_fund(a)) for a in rs.positive]
    lam_2rho = tuple(c + 2 for c in lam)
    mult = {lam: 1}
    for height, v, cvec in candidates:
        if height == 0:
            continue
        num = 0
        for a, afund in roots:
            nu, rest = v, cvec
            while True:
                rest = tuple(c - x for c, x in zip(rest, a))
                if min(rest) < 0:
                    break
                nu = tuple(x + y for x, y in zip(nu, afund))
                m = mult.get(_dominant_walk(rs, nu), 0)
                if m:
                    num += m * rs.inner(nu, a)
        den = rs.inner(tuple(x + y for x, y in zip(lam_2rho, v)), cvec)
        if den <= 0:
            raise AssertionError("Freudenthal denominator not positive")
        m, r = divmod(2 * num, den)
        if r or m < 0:
            raise AssertionError("Freudenthal multiplicity not a nonnegative integer")
        if m:
            mult[v] = m

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


# divisibility of characteristic polynomials ---------------------------


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


class DivisibilityReport(NamedTuple):
    """Outcome of a characteristic-polynomial divisibility check.

    verdict is "holds" when the smaller weight multiset is contained in the
    larger one, "fails" when it is not, and "NotApplicable" when the
    check's hypothesis (a zero weight) is absent.  short_weight is, for
    "fails", a weight whose multiplicity in the larger multiset falls
    short, and () otherwise.
    """

    verdict: str
    short_weight: tuple


def _compare_divisibility(small: WeightMultiset, big: WeightMultiset) -> DivisibilityReport:
    """Containment of small in big, weight by weight with multiplicity."""
    lookup = dict(big.entries)
    for w, m in small.entries:
        if lookup.get(w, 0) < m:
            return DivisibilityReport("fails", w)
    return DivisibilityReport("holds", ())


def _check_lowest_alcove(rs: RootSystem, lam, p: int) -> None:
    """Raise HypothesisViolated unless <lam + rho, alpha^vee> <= p for every
    positive root alpha.  In that closed alcove the Weyl module is
    irreducible (Jantzen, Representations of Algebraic Groups, II.6, the
    linkage principle), so its Freudenthal weights are the weights of the
    simple module in characteristic p."""
    shift = tuple(c + 1 for c in lam)
    level = max(2 * rs.inner(shift, a) // rs.inner(rs.root_to_fund(a), a)
                for a in rs.positive)
    if level > p:
        raise HypothesisViolated(
            f"weight {lam} lies outside the lowest alcove closure: "
            f"<lambda + rho, alpha^vee> = {level} > p = {p}"
        )


def check_twist_divisibility(rs: RootSystem, lam0, lam1, p: int) -> DivisibilityReport:
    """Does the twisted factor's polynomial divide the tensor's?

    The tensor is module(lam0) with module(lam1) twisted by the p-power
    map, so its weights are weights(lam0) + p*weights(lam1).  When 0 is a
    weight of lam0 the twisted factor's weight multiset embeds in the
    tensor's, forcing divisibility; without a 0 weight the hypothesis
    fails and the verdict is NotApplicable.  Both weights must lie in the
    closure of the lowest alcove for p, where the characteristic-0 weights
    are the module's; outside it HypothesisViolated is raised.
    """
    if p < 2:
        raise ValueError(f"twist exponent must be at least 2: {p}")
    lam0, lam1 = _check_dominant(rs, lam0), _check_dominant(rs, lam1)
    _check_lowest_alcove(rs, lam0, p)
    _check_lowest_alcove(rs, lam1, p)
    w0 = weight_multiset(rs, lam0)
    if w0.multiplicity((0,) * rs.rank) == 0:
        return DivisibilityReport("NotApplicable", ())
    twisted = _scaled(weight_multiset(rs, lam1), p)
    return _compare_divisibility(twisted, _tensor(w0, twisted))


def check_sym_divisibility(n: int, s: int, p: int) -> DivisibilityReport:
    """Does the degree-s symmetric power's polynomial divide the degree-(s+n) one?

    Type A_{n-1}.  Multiplying a degree-s monomial in n variables by the
    product of all variables gives a degree-(s+n) monomial with the same
    torus character (the determinant weight is trivial), so the smaller
    weight multiset embeds in the larger.  Valid only past s + n in the
    characteristic p; below that the modules involved need not match
    their characteristic-0 weight structure.
    """
    if not 2 <= n <= 5:
        raise ValueError(f"n must be between 2 and 5: {n}")
    if s < 1:
        raise ValueError(f"s must be positive: {s}")
    if p <= s + n:
        raise HypothesisViolated(
            f"requires characteristic > s + n = {s + n}, got p = {p}"
        )
    rs = root_system(f"A{n - 1}")
    lam_small = (s,) + (0,) * (rs.rank - 1)
    lam_big = (s + n,) + (0,) * (rs.rank - 1)
    return _compare_divisibility(weight_multiset(rs, lam_small),
                                 weight_multiset(rs, lam_big))


# eigenvalue separation on a torus of order q + 1 ------------------------


class EigenvalueReport(NamedTuple):
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
    values = [F.pow(zeta, w % (q + 1)) for w in weights]   # zeta^(q+1) = 1: no inverse
    first_at: dict = {}
    pair = None
    for w, v in zip(weights, values):
        if v in first_at and pair is None:
            pair = (first_at[v], w)
        first_at.setdefault(v, w)
    distinct = pair is None
    if distinct != (2 * (s + 1) - 2 < q + 1):
        raise AssertionError("distinctness disagrees with the threshold criterion")
    witness = tuple(values) if distinct else pair
    return EigenvalueReport(q, s, p, s + 1, q + 1, distinct, witness)
