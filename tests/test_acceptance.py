"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `acceptance NN <label>: pass|FAIL` line so the
suite doubles as a checklist when run with -s.
"""

import functools
import subprocess
import sys
import time
from pathlib import Path

from fixspace.bounds import (catalog, check_bound_theorems,
                             min_semisimple_fixdim, scott_suite,
                             sl3_adjoint_heart)
from fixspace.chartab import character_table, triple_count
from fixspace.ff import make_field, prime_factors
from fixspace.gensearch import (exhaustive_triple_search, find_conjugate_pair,
                                find_triple, phi_star, verify_pair,
                                verify_triple)
from fixspace.matrep import (build_rep, deleted, fixed_space_dim,
                             is_irreducible, perm_module)
from fixspace.perm import (PermGroup, builtin_group, perm_from_cycles, pinv,
                           pmul, psl2)
from fixspace.rng import SeedStream
from fixspace.weights import (check_sym_divisibility, check_twist_divisibility,
                              root_system, sl2_distinct_eigenvalues,
                              weight_multiset, weyl_dim)

from cyclo import cyc_add, cyc_as_integer, cyc_mul

ROOT = Path(__file__).resolve().parent.parent

# every prime divisor of the group order, minus the one true exception
TRIPLE_CATALOG = [
    ('A5', (2, 3)),
    ('A6', (2, 3, 5)),
    ('A7', (2, 3, 5, 7)),
    ('A8', (2, 3, 5, 7)),
    ('A9', (2, 3, 5, 7)),
    ('L2_7', (2, 3, 7)),
    ('L2_8', (2, 3, 7)),
    ('L2_11', (2, 3, 5, 11)),
    ('L2_13', (2, 3, 7, 13)),
]

ORDER_MATCHED = [
    ('A6', (4, 4, 4), (3, 5)),
    ('A7', (5, 5, 5), (2, 3, 7)),
    ('L2_7', (7, 7, 7), (2, 3)),
    ('L2_7', (4, 4, 4), (3, 7)),
]

_tables = {}


def table_of(name):
    if name not in _tables:
        _tables[name] = character_table(builtin_group(name))
    return _tables[name]


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"acceptance {num:02d} {label}: FAIL")
                raise
            print(f"acceptance {num:02d} {label}: pass")
        return wrapper
    return deco


@criterion(1, "exception-a5-p5")
def test_acceptance_01_exception():
    # every simple group of order below 10^4 that builds here, at every
    # prime dividing its order: only A5 = L2(4) at p = 5 has no triple
    m11 = PermGroup(11, (perm_from_cycles(11, [tuple(range(1, 12))]),
                         perm_from_cycles(11, [(3, 7, 11, 8), (4, 10, 5, 6)])))
    assert m11.order == 7920
    groups = [('A5', builtin_group('A5')), ('L2(4)', psl2(4)), ('L2(7)', psl2(7)),
              ('A6', builtin_group('A6')), ('L2(8)', psl2(8)), ('L2(11)', psl2(11)),
              ('L2(13)', psl2(13)), ('L2(17)', psl2(17)), ('A7', builtin_group('A7')),
              ('L2(19)', psl2(19)), ('L2(16)', psl2(16)), ('L2(23)', psl2(23)),
              ('L2(25)', psl2(25)), ('M11', m11), ('L2(27)', psl2(27))]
    start = time.monotonic()
    proved_none = []
    witnesses = 0
    for name, G in groups:
        assert G.order < 10 ** 4, name
        for p in prime_factors(G.order):
            res = exhaustive_triple_search(G, p)
            if res.verdict == "ProvedNone":
                assert res.certificate is None
                proved_none.append((name, p))
            else:
                assert verify_triple(G, res.certificate), (name, p)
                witnesses += 1
    elapsed = time.monotonic() - start
    assert proved_none == [('A5', 5), ('L2(4)', 5)]
    assert witnesses == 52
    assert elapsed < 60


@criterion(2, "triple-catalog")
def test_acceptance_02_triples():
    start = time.monotonic()
    pairs = [(name, p) for name, ps in TRIPLE_CATALOG for p in ps]
    assert len(pairs) == 31
    for name, p in pairs:
        G = builtin_group(name)
        cert = find_triple(G, p, budget=10 ** 5, seed=1)
        assert cert.verdict == "Generates", (name, p)
        assert verify_triple(G, cert), (name, p)
    for name, orders, ps in ORDER_MATCHED:
        G = builtin_group(name)
        for p in ps:
            cert = find_triple(G, p, budget=10 ** 5, seed=1, orders=orders)
            assert cert.verdict == "Generates", (name, orders, p)
            assert cert.orders == orders, (name, orders, p)
            assert verify_triple(G, cert)
    assert time.monotonic() - start < 300


@criterion(3, "conjugate-pairs")
def test_acceptance_03_pairs():
    start = time.monotonic()
    pairs = [(name, p) for name, ps in TRIPLE_CATALOG for p in ps]
    pairs.append(('A5', 5))
    for name, p in pairs:
        G = builtin_group(name)
        cert = find_conjugate_pair(G, p, budget=10 ** 5, seed=1)
        assert cert.verdict == "Generates", (name, p)
        assert verify_pair(G, cert), (name, p)
    G = builtin_group('A12')
    for p in (2, 3, 5, 7):
        cert = find_conjugate_pair(G, p, budget=10 ** 5, seed=1, order=11)
        assert cert.verdict == "Generates", p
        assert cert.order == 11
        assert verify_pair(G, cert)
    assert time.monotonic() - start < 300


@criterion(4, "mersenne-sharpness")
def test_acceptance_04_mersenne():
    for name, p, want in [('F12', 3, 1), ('F56', 7, 3)]:
        rep = build_rep(deleted(perm_module(builtin_group(name))),
                        make_field(p))
        assert rep.dim == p
        assert is_irreducible(rep, SeedStream(1)).irreducible
        assert want == (p - 1) // 2
        for cls in rep.group.conjugacy_classes():
            if cls.element_order == 1 or cls.element_order % p == 0:
                continue
            assert fixed_space_dim(rep, cls.rep) == want, (name, cls.element_order)


@criterion(5, "bound-theorems-catalog")
def test_acceptance_05_bounds():
    start = time.monotonic()
    entries = catalog()
    assert len(entries) >= 25
    for e in entries:
        report = check_bound_theorems(e.rep, e.p)
        assert report.holds, e.ident
        by_name = {c.clause: c for c in report.clauses}
        n = report.dim
        # re-derive each gate and confirm the gated clause passed
        assert by_name["half-strict"].applicable
        assert by_name["half-strict"].satisfied
        if report.group_order % e.p != 0:
            assert by_name["coprime-order-third"].satisfied, e.ident
        if n % e.p != 0:
            assert by_name["coprime-dim-three-eighths"].satisfied, e.ident
        if n % 2 == 1 and n in (3, 5, 7, 11, 13) and e.p > 2 * n - 3:
            assert by_name["prime-dim-line-eigenspaces"].satisfied, e.ident
    assert time.monotonic() - start < 600


@criterion(6, "scott-inequality-suite")
def test_acceptance_06_scott():
    for e in catalog():
        suite = scott_suite(e.rep, pairs=1000, seed=11)
        assert suite.checked == 1000
        assert suite.violations == (), e.ident


@criterion(7, "frobenius-counts")
def test_acceptance_07_frobenius():
    start = time.monotonic()
    for name in ['S3', 'A4', 'S4', 'A5', 'S5', 'A6']:
        G = builtin_group(name)
        assert G.order <= 720
        table = table_of(name)
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
        k = len(classes)
        for i in range(k):
            for j in range(k):
                for m in range(k):
                    assert triple_count(table, i, j, m) == \
                        counts.get((i, j, m), 0), (name, i, j, m)
    assert time.monotonic() - start < 300


@criterion(8, "character-tables")
def test_acceptance_08_chartab():
    for name in ['S3', 'A4', 'S4', 'A5', 'S5', 'A6']:
        G = builtin_group(name)
        table = table_of(name)
        assert sum(d * d for d in table.degrees) == G.order, name
        e = table.exponent
        k = len(table.classes)
        for chi in range(k):
            for psi in range(k):
                acc = (0,) * e
                for c in range(k):
                    term = cyc_mul(table.values[chi][c],
                                   table.values[psi][table.inverse_class[c]], e)
                    acc = cyc_add(acc, tuple(x * table.classes[c].size
                                             for x in term))
                want = G.order if chi == psi else 0
                assert cyc_as_integer(acc, e) == want, (name, chi, psi)
        for c1 in range(k):
            for c2 in range(k):
                acc = (0,) * e
                c2_inv = table.inverse_class[c2]
                for chi in range(k):
                    acc = cyc_add(acc, cyc_mul(table.values[chi][c1],
                                               table.values[chi][c2_inv], e))
                want = (G.order // table.classes[c1].size if c1 == c2 else 0)
                assert cyc_as_integer(acc, e) == want, (name, c1, c2)
    assert tuple(sorted(table_of('A5').degrees)) == (1, 3, 3, 4, 5)


@criterion(9, "adjoint-section-sl3")
def test_acceptance_09_adjoint():
    rep = sl3_adjoint_heart()
    assert rep.dim == 7
    assert is_irreducible(rep, SeedStream(1)).irreducible
    _, mindim = min_semisimple_fixdim(rep)
    assert mindim >= 1
    assert mindim == 3 - 2


@criterion(10, "primitive-part-suite")
def test_acceptance_10_phi():
    def oracle(n, q):
        import math
        N = q ** n - 1
        best = 1
        d = 1
        while d * d <= N:
            if N % d == 0:
                for cand in (d, N // d):
                    if all(math.gcd(cand, q ** m - 1) == 1
                           for m in range(1, n)):
                        best = max(best, cand)
            d += 1
        return best

    for q in [2, 3, 4, 5, 7, 8, 9]:
        for n in range(2, 13):
            assert phi_star(n, q) == oracle(n, q), (n, q)
    assert phi_star(6, 2) == 1


@criterion(11, "weight-machinery")
def test_acceptance_11_weights():
    sweep = [("A1", (s,)) for s in range(5)]
    sweep += [("A2", lam) for lam in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]]
    sweep += [("A3", lam) for lam in [(1, 0, 0), (0, 1, 0), (1, 0, 1)]]
    sweep += [("B2", lam) for lam in [(1, 0), (0, 1), (1, 1)]]
    sweep += [("C3", lam) for lam in [(1, 0, 0), (0, 1, 0)]]
    sweep += [("D4", lam) for lam in [(1, 0, 0, 0), (0, 1, 0, 0)]]
    sweep += [("G2", lam) for lam in [(1, 0), (0, 1)]]
    for name, lam in sweep:
        rs = root_system(name)
        assert weight_multiset(rs, lam).total() == weyl_dim(rs, lam), (name, lam)

    assert weyl_dim(root_system("G2"), (1, 0)) == 7

    fields = {(2, 1): 5, (2, 2): 5, (2, 3): 7, (3, 1): 5, (3, 2): 7, (3, 3): 7}
    for (n, s), p in fields.items():
        assert check_sym_divisibility(n, s, p).verdict == "holds", (n, s)

    A1, A2 = root_system("A1"), root_system("A2")
    assert check_twist_divisibility(A1, (2,), (1,), 5).verdict == "holds"
    assert check_twist_divisibility(A1, (1,), (1,), 5).verdict == "NotApplicable"
    assert check_twist_divisibility(A2, (1, 1), (1, 0), 7).verdict == "holds"

    for q in [3, 5, 7, 9, 11, 13]:
        p = 3 if q == 9 else q
        for s in range(p):
            rep = sl2_distinct_eigenvalues(q, s)
            dim = s + 1
            assert rep.distinct == (2 * dim - 2 < q + 1), (q, s)


@criterion(12, "deterministic-verify")
def test_acceptance_12_determinism():
    cmd = [sys.executable, "-m", "fixspace.cli", "verify",
           "--manifest", str(ROOT / "data" / "claims.manifest"),
           "--seed", "42", "--format", "records"]
    first = subprocess.run(cmd, capture_output=True, cwd=ROOT)
    second = subprocess.run(cmd, capture_output=True, cwd=ROOT)
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert b"failed = 0" in first.stdout
