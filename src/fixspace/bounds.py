"""Fixed-space bound checks over a built-in catalog of representations.

Each clause gates on arithmetic hypotheses (characteristic vs group order,
vs dimension, primality of the dimension) and asserts a bound on fixed-space
dimensions of semisimple elements, strict or non-strict exactly as stated.
The catalog rows pin the families where the bounds are known to be sharp.
"""

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .ff import is_prime, make_field, multiplicative_order
from .linalg import extend_basis, eye, shift
from .matrep import (
    MatRep,
    build_rep,
    builtin_matgroup,
    deleted,
    dual,
    eigenspace_profile,
    fixed_space_dim,
    is_irreducible,
    perm_module,
    section,
    sym_power,
    tensor,
)
from .perm import NotInGroup, builtin_group, element_order, pinv, pmul, ppow
from .rng import SeedStream


class NotIrreducible(ValueError):
    pass


class TrivialAction(ValueError):
    """Every generator acts as the identity: no element moves a vector, so
    no fixed-space bound can hold."""


def semisimple_classes(group, p: int):
    """The conjugacy classes of nontrivial elements of order prime to p,
    in the canonical class ordering."""
    for cls in group.conjugacy_classes():
        if cls.element_order > 1 and cls.element_order % p:
            yield cls


def min_semisimple_fixdim(rep: MatRep):
    """Minimum fixed-space dimension over nontrivial p'-classes, p the
    characteristic of the module's field.

    Returns (class, dim); ties go to the smaller element order, then to
    the earlier class in the canonical ordering.
    """
    best = None
    for cls in semisimple_classes(rep.group, rep.field.p):
        d = fixed_space_dim(rep, cls.rep)
        if best is None or d < best[1]:
            best = (cls, d)
    if best is None:
        raise ValueError("no nontrivial semisimple classes")
    return best


class ClauseResult(NamedTuple):
    clause: str
    applicable: bool
    threshold: Fraction
    strict: bool
    satisfied: bool          # vacuously True when not applicable
    witness_dim: int = -1


class BoundReport(NamedTuple):
    dim: int
    p: int
    group_order: int
    min_fixed_dim: int
    min_class_order: int
    min_class_index: int
    clauses: tuple

    @property
    def holds(self) -> bool:
        return all(c.satisfied for c in self.clauses if c.applicable)


def check_bound_theorems(rep: MatRep, p: int = None) -> BoundReport:
    """Evaluate every applicable fixed-space bound clause on one module, p
    the characteristic of its field: any other p given is a ValueError.

    Clauses, with their gates:
      half-strict                always: some semisimple class has
                                 fixed dim < n/2 (strict)
      coprime-order-third        p does not divide |G|: min <= n/3
      large-char-third           p > n + 2: min <= n/3
      coprime-dim-three-eighths  p does not divide n: min <= 3n/8
      two-primitive-third        n an odd prime with 2 generating the
                                 units mod n: min <= n/3
      prime-dim-line-eigenspaces n an odd prime, p > 2n - 3: some
                                 semisimple class has every eigenspace
                                 of dimension <= 1
    """
    if p not in (None, rep.field.p):
        raise ValueError(f"p = {p} is not the characteristic {rep.field.p} "
                         "of the module's field")
    p = rep.field.p
    verdict = is_irreducible(rep, SeedStream(1))
    if not verdict.irreducible:
        raise NotIrreducible(f"module of dimension {rep.dim} is reducible")
    n = rep.dim
    identity = eye(rep.field, n)
    if all(M == identity for M in rep.images):
        raise TrivialAction(f"the group acts trivially on the module of dimension {n}")
    group = rep.group
    cls, mindim = min_semisimple_fixdim(rep)
    cls_index = group.conjugacy_classes().index(cls)
    odd_prime = n % 2 == 1 and is_prime(n)

    rows = (
        ("half-strict", True, Fraction(n, 2), True),
        ("coprime-order-third", group.order % p != 0, Fraction(n, 3), False),
        ("large-char-third", p > n + 2, Fraction(n, 3), False),
        ("coprime-dim-three-eighths", n % p != 0, Fraction(3 * n, 8), False),
        ("two-primitive-third", odd_prime and multiplicative_order(2, n) == n - 1,
         Fraction(n, 3), False),
    )
    clauses = [
        ClauseResult(name, True, t, strict, mindim < t if strict else mindim <= t,
                     mindim)
        if gate else ClauseResult(name, False, t, strict, True)
        for name, gate, t, strict in rows
    ]

    # a witness has every eigenspace of dimension <= 1, so of dimension 1
    line_gate = odd_prime and p > 2 * n - 3
    line = line_gate and next(
        (c for c in semisimple_classes(group, p)
         if eigenspace_profile(rep, c.rep).max_eigenspace_dim <= 1), None)
    clauses.append(
        ClauseResult("prime-dim-line-eigenspaces", True, Fraction(1), False, True, 1)
        if line else
        ClauseResult("prime-dim-line-eigenspaces", line_gate, Fraction(1), False,
                     not line_gate))

    return BoundReport(n, p, group.order, mindim, cls.element_order, cls_index,
                       tuple(clauses))


# two-generator fixed-space inequality ------------------------------------


class ScottReport(NamedTuple):
    lhs: int
    rhs: int
    fixed_x: int
    fixed_y: int
    fixed_product_inv: int
    ambient: int
    invariants: int
    dual_invariants: int
    holds: bool


def scott_check(rep: MatRep, x, y) -> ScottReport:
    """Fixed dims of x, y, (xy)^-1 against dim V plus the invariants of
    <x, y> on V and on its dual.  The inequality is a theorem; a failure
    means a computation bug, so callers treat holds=False as fatal.
    Raises NotInGroup when x or y lies outside the represented group; x and
    y may be lists, as for fixed_space_dim.
    """
    if not (rep.group.contains(x) and rep.group.contains(y)):
        raise NotInGroup("element is outside the represented group")
    return _scott(rep, tuple(x), tuple(y), {})


def _shifts(rep: MatRep, x, y, memo: dict) -> tuple:
    """For each of x, y and (xy)^-1, image(g) - 1, a basis of its row space
    as extend_basis keeps it (rows, pivots), and n minus the basis length,
    the fixed dimension of g; from a memo that maps each element to those
    four and fills as it goes."""
    F, n = rep.field, rep.dim
    elems = (x, y, pinv(pmul(x, y)))
    for g in elems:
        if g not in memo:
            M = shift(F, rep.image(g), F.one)
            rows, pivots = [], []
            memo[g] = M, rows, pivots, n - extend_basis(F, rows, pivots, M, n)
    return tuple(memo[g] for g in elems)


def _scott(rep: MatRep, x, y, memo: dict) -> ScottReport:
    """scott_check on known group elements, with a _shifts memo. With X, Y,
    Z the images of x, y, (xy)^-1 minus 1, each number is n minus a rank:
    of X, Y, Z, read off their memoized row bases; of X stacked on Y,
    whose kernel <x, y> fixes, by growing a copy of X's basis with Y's
    basis rows; of X beside Y, whose left kernel <x, y> fixes on the dual,
    as (X^-1)^T v = v iff (X - 1)^T v = 0, by growing a basis with its
    rows. Whatever <x, y> fixes, on V or on the dual, each of x, y and
    (xy)^-1 fixes, and g fixes as much of the dual as of V; so when one of
    dx, dy, dz is 0, both joint numbers are 0 and no further rank is
    taken."""
    F, n = rep.field, rep.dim
    (X, xrows, xpivots, dx), (Y, yrows, _, dy), (*_, dz) = _shifts(rep, x, y, memo)
    inv = dinv = 0
    if min(dx, dy, dz):
        inv = n - extend_basis(F, list(xrows), list(xpivots), yrows, n)
        dinv = n - extend_basis(F, [], [], [a + b for a, b in zip(X, Y)], n)
    lhs, rhs = dx + dy + dz, n + inv + dinv
    return ScottReport(lhs, rhs, dx, dy, dz, n, inv, dinv, lhs <= rhs)


class ScottSuiteReport(NamedTuple):
    checked: int
    violations: tuple


def scott_suite(rep: MatRep, pairs: int = 1000, seed: int = 1) -> ScottSuiteReport:
    """Scott's inequality on `pairs` seeded random pairs, with one memo for
    this call only, so each drawn element is imaged once. A pair with
    dx + dy + dz <= n holds whatever its invariants, which are never
    negative, so it takes neither stacked rank."""
    stream = SeedStream(seed)
    memo = {}
    violations = []
    for _ in range(pairs):
        x = rep.group.random_element(stream)
        y = rep.group.random_element(stream)
        if (sum(d for *_, d in _shifts(rep, x, y, memo)) > rep.dim
                and not _scott(rep, x, y, memo).holds):
            violations.append((x, y))
    return ScottSuiteReport(pairs, tuple(violations))


# the dim p^2 - 2 section of the 3x3 matrix module ------------------------


class AdjointSectionReport(NamedTuple):
    p: int
    ambient_dim: int
    section_dim: int
    bound: int
    min_fixed: int
    witness_order: int
    classes_checked: int
    holds: bool


@cache
def sl3_adjoint_heart() -> MatRep:
    """The 7-dimensional irreducible section of 3x3 matrices over GF(3)
    under conjugation by SL3(3): the quotient by the scalars (the identity
    is the sum of e_i (x) e_i*), then its automatic sub section."""
    _, nat = builtin_matgroup("SL3_3")
    matrices = tensor(nat.spec, dual(nat.spec))
    scalars = ((1, 0, 0, 0, 1, 0, 0, 0, 1),)
    return build_rep(section(section(matrices, "quotient", basis=scalars), "sub"))


def sl_p_adjoint_check() -> AdjointSectionReport:
    """Every nontrivial semisimple class of SL3(3) keeps a fixed space of
    dimension at least p - 2 = 1 on the 7-dimensional section, p = 3.

    The ambient conjugation module has dimension 9; regular semisimple
    elements are centralized by a maximal torus there, and passing to the
    section costs at most the two trivial composition factors.
    """
    rep = sl3_adjoint_heart()
    p = rep.field.p
    bound = p - 2
    cls, mind = min_semisimple_fixdim(rep)
    checked = sum(1 for _ in semisimple_classes(rep.group, p))
    return AdjointSectionReport(
        p, 9, rep.dim, bound, mind, cls.element_order, checked, mind >= bound
    )


# free action of an order-3 subgroup of the extraspecial group -------------


class FreeActionReport(NamedTuple):
    dim: int
    subgroup_order: int
    element_orders: tuple
    max_eigenspace_dim: int
    holds: bool


def extraspecial_free_check() -> FreeActionReport:
    """The diagonal order-3 generator of the extraspecial group of order 27
    acts on the 3-dimensional module with all eigenspaces of dimension 1,
    and so does its square: the chosen order-3 subgroup acts freely."""
    group, rep = builtin_matgroup("E27")
    x = group.gens[0]
    elems = (x, ppow(x, 2))
    orders = []
    worst = 0
    for g in elems:
        prof = eigenspace_profile(rep, g)
        orders.append(element_order(g))
        worst = max(worst, prof.max_eigenspace_dim)
    return FreeActionReport(rep.dim, 3, tuple(orders), worst, worst == 1)


# regression catalog --------------------------------------------------------


class CatalogEntry(NamedTuple):
    ident: str
    p: int
    rep: MatRep


_DELETED_ROWS = (
    ("A4", 4), ("A5", 5), ("A6", 6), ("A7", 7), ("A8", 8), ("A9", 9),
    ("S3", 3), ("S4", 4), ("S5", 5), ("S6", 6),
)


@cache
def catalog() -> tuple:
    """Irreducible modules exercised by the bound checks.

    Deleted permutation modules in coprime-to-|points| characteristic,
    both affine Frobenius sharpness families, SL2 naturals with symmetric
    powers up to the restricted range, SL3(3) natural plus its adjoint
    section, and the extraspecial dim-3 module.
    """
    entries = []
    for gname, npts in _DELETED_ROWS:
        G = builtin_group(gname)
        for q in (2, 3, 5, 7, 11, 13):
            if npts % q == 0:
                continue
            rep = build_rep(deleted(perm_module(G)), make_field(q))
            entries.append(CatalogEntry(f"{gname.lower()}-deleted-gf{q}", q, rep))
    for name, a, q in (("F12", 2, 3), ("F56", 3, 7)):
        G = builtin_group(name)
        rep = build_rep(deleted(perm_module(G)), make_field(q))
        entries.append(CatalogEntry(f"mersenne-a{a}", q, rep))
    for name in ("SL2_5", "SL2_7"):
        _, nat = builtin_matgroup(name)
        low = name.lower()
        entries.append(CatalogEntry(f"{low}-natural", nat.field.p, nat))
        for s in (2, 3, 4):
            rep = build_rep(sym_power(nat.spec, s), nat.field)
            entries.append(CatalogEntry(f"{low}-sym{s}", nat.field.p, rep))
    _, nat = builtin_matgroup("SL3_3")
    entries.append(CatalogEntry("sl3_3-natural", 3, nat))
    entries.append(CatalogEntry("sl3_3-adjoint-heart", 3, sl3_adjoint_heart()))
    _, e27 = builtin_matgroup("E27")
    entries.append(CatalogEntry("e27", 7, e27))
    return tuple(entries)
