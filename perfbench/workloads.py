"""The benchmark's four workloads.

A workload builds its inputs in ``setup`` and turns the run's seed into a
fixed list of tasks; the run repeats that list. A task's ``run`` is a
zero-argument call into fixspace. ``check`` tests an output with code of
the benchmark's own, not through the code path being timed, and returns
(attempted, failed); ``record`` gives the canonical text of an output
that goes into the run's digest.

Why these four: each layer a later change is likely to speed up does most
of the work in one workload and little or none in another, so a gain in
one place and a loss in another both show.

- modules: bound reports, Scott pairs and fixed-space probes on the
  61-entry module catalog plus three modules over GF(4), GF(25), GF(9).
  linalg, matrep and ff do the work; perm only sifts and draws.
- search: random triple and conjugate-pair searches over the rows of the
  acceptance catalog, plus exhaustive class-triple sweeps. perm chain
  builds and rng draws do the work; linalg and matrep are never called.
- characters: fresh groups, their classes, character tables and full
  class-triple count tensors, plus Freudenthal weight multisets. chartab
  and weights do the work; matrep, gensearch and bounds are never called.
- verify: cold ``fixspace verify`` processes on the claim manifest, the
  only path through the cli layer and process start-up.
"""

import hashlib
import importlib
import itertools
import json
import os
import subprocess
import sys
from collections import namedtuple
from math import gcd

import child

# label: unique within a run; run: the timed call; meta: what check needs
Task = namedtuple("Task", "label run meta")

# -- independent permutation helpers used by the output checks ------------


def cycle_count(g) -> int:
    """Number of cycles of g on its points, fixed points included."""
    seen = [False] * len(g)
    count = 0
    for i in range(len(g)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = g[j]
    return count


def perm_order(g) -> int:
    seen = [False] * len(g)
    order = 1
    for i in range(len(g)):
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = g[j]
            length += 1
        if length:
            order = order * length // gcd(order, length)
    return order


def compose(a, b):
    """Apply a, then b (the package's convention)."""
    return tuple(b[x] for x in a)


def inverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_text(g) -> str:
    return ",".join(str(x) for x in g) if g is not None else "-"


# -- modules ---------------------------------------------------------------


class Modules:
    """Bound reports and Scott pairs over the module catalog."""

    name = "modules"
    min_passes = 5
    pairs = 40          # Scott pairs per module
    probes = 4          # sampled elements per module for closed-form fixed dims

    def setup(self):
        bounds = importlib.import_module("fixspace.bounds")
        ff = importlib.import_module("fixspace.ff")
        matrep = importlib.import_module("fixspace.matrep")
        perm = importlib.import_module("fixspace.perm")
        modules = [(e.ident, e.rep, e.p, True) for e in bounds.catalog()]
        F4, F9, F25 = ff.make_field(2, 2), ff.make_field(3, 2), ff.make_field(5, 2)
        for gname, F in (("A5", F4), ("A6", F25)):
            spec = matrep.deleted(matrep.perm_module(perm.builtin_group(gname)))
            modules.append((f"{gname.lower()}-deleted-gf{F.q}",
                            matrep.build_rep(spec, F), F.p, False))
        # SL2(9) from the transvections by 1 and by the field generator x
        # (encoding 3) and the Weyl element; natural tensor its Frobenius twist
        _, nat = matrep.embed_matrix_group(
            F9, 2, [[[1, 1], [0, 1]], [[1, 3], [0, 1]], [[0, 1], [2, 0]]],
            name="SL2_9")
        twisted = matrep.tensor(nat.spec, matrep.frobenius_twist(nat.spec, 1))
        modules.append(("sl2_9-natural-x-twist", matrep.build_rep(twisted, F9),
                        3, False))
        entries = []
        for ident, rep, p, bound in modules:
            rep.group.conjugacy_classes()
            perm_rep = None
            if rep.spec.kind == "deleted":
                G = rep.spec.children[0].group
                perm_rep = matrep.build_rep(matrep.perm_module(G), rep.field)
            entries.append((ident, rep, p, bound, perm_rep))
        return {"bounds": bounds, "matrep": matrep,
                "rng": importlib.import_module("fixspace.rng"),
                "entries": entries}

    def tasks(self, ctx, seed):
        return [Task(entry[0], lambda e=entry, s=seed * 100 + j: self._run(ctx, e, s), None)
                for j, entry in enumerate(ctx["entries"])]

    def _run(self, ctx, entry, seed):
        bounds, matrep = ctx["bounds"], ctx["matrep"]
        _, rep, p, bound, perm_rep = entry
        report = bounds.check_bound_theorems(rep, p) if bound else None
        stream = ctx["rng"].SeedStream(seed)
        G = rep.group
        scott = []
        for _ in range(self.pairs):
            x = G.random_element(stream)
            y = G.random_element(stream)
            scott.append(bounds.scott_check(rep, x, y))
        probes = []
        if perm_rep is not None:
            for _ in range(self.probes):
                g = G.random_element(stream)
                probes.append((g, matrep.fixed_space_dim(rep, g),
                               matrep.fixed_space_dim(perm_rep, g)))
        return report, scott, probes

    def check(self, ctx, task, output):
        report, scott, probes = output
        ok = all(r.holds for r in scott) and (report is None or report.holds)
        for g, d_deleted, d_perm in probes:
            # a permutation matrix fixes one vector per cycle; the deleted
            # module loses the trivial summand when p does not divide the
            # number of points, which holds for every deleted module here
            ok = ok and d_perm == cycle_count(g) and d_deleted == cycle_count(g) - 1
        return 1, int(not ok)

    def record(self, task, output):
        report, scott, probes = output
        head = "scott-only"
        if report is not None:
            head = (f"dim={report.dim} min={report.min_fixed_dim} "
                    f"order={report.min_class_order} "
                    f"class={report.min_class_index} holds={report.holds}")
        sums = [sum(getattr(r, f) for r in scott)
                for f in ("lhs", "rhs", "invariants", "dual_invariants")]
        return f"{task.label}: {head} scott={sums} probes={[p[1:] for p in probes]}"


# -- search ----------------------------------------------------------------

# acceptance-catalog rows: every prime divisor of |G| for the triple
# and pair searches, minus the one true triple exception
TRIPLE_ROWS = [
    ("A5", (2, 3)), ("A6", (2, 3, 5)), ("A7", (2, 3, 5, 7)),
    ("A8", (2, 3, 5, 7)), ("A9", (2, 3, 5, 7)), ("L2_7", (2, 3, 7)),
    ("L2_8", (2, 3, 7)), ("L2_11", (2, 3, 5, 11)), ("L2_13", (2, 3, 7, 13)),
]
ORDER_MATCHED = [
    ("A6", (4, 4, 4), (3, 5)), ("A7", (5, 5, 5), (2, 3, 7)),
    ("L2_7", (7, 7, 7), (2, 3)), ("L2_7", (4, 4, 4), (3, 7)),
]
# (group, p, expected verdict); A5 at p = 5 is the paper's exception and
# S5 at p = 2 cannot work because every odd-order element is even
EXHAUSTIVE = [
    ("A5", 5, "ProvedNone"), ("S5", 2, "ProvedNone"),
    ("A5", 2, "ExistsWithWitness"), ("A5", 3, "ExistsWithWitness"),
    ("S5", 3, "ExistsWithWitness"), ("S5", 5, "ExistsWithWitness"),
    ("A6", 3, "ExistsWithWitness"), ("A6", 5, "ExistsWithWitness"),
    ("L2_7", 7, "ExistsWithWitness"), ("L2_8", 3, "ExistsWithWitness"),
]
A5_PROOF_TESTS = 80


def search_rows():
    """(kind, group, p, orders or order) for every random-search row."""
    rows = [("triple", g, p, None) for g, ps in TRIPLE_ROWS for p in ps]
    rows += [("triple", g, p, o) for g, o, ps in ORDER_MATCHED for p in ps]
    rows += [("pair", g, p, None) for g, ps in TRIPLE_ROWS for p in ps]
    rows.append(("pair", "A5", 5, None))
    rows += [("pair", "A12", p, 11) for p in (2, 3, 5, 7)]
    return rows


class Search:
    """Random generating triple / conjugate pair searches on a run of
    consecutive seeds per row, and class-triple sweeps."""

    name = "search"
    min_passes = 2
    # the attempt counts of the A7 (5,5,5) rows vary most from seed to
    # seed; 24 seeds per row keep a run's total within a few percent
    seeds_per_row = 24

    def setup(self):
        gensearch = importlib.import_module("fixspace.gensearch")
        perm = importlib.import_module("fixspace.perm")
        chartab = importlib.import_module("fixspace.chartab")
        rows = search_rows()
        groups = {g: perm.builtin_group(g)
                  for g in {r[1] for r in rows} | {e[0] for e in EXHAUSTIVE}}
        tables = {g: chartab.character_table(groups[g])
                  for g in {e[0] for e in EXHAUSTIVE}}
        return {"gensearch": gensearch, "perm": perm, "rows": rows,
                "groups": groups, "tables": tables}

    def tasks(self, ctx, seed):
        gs, groups = ctx["gensearch"], ctx["groups"]
        out = []
        for i in range(self.seeds_per_row):
            for r, (kind, g, p, want) in enumerate(ctx["rows"]):
                s = (seed * 100 + i) * 100 + r
                G = groups[g]
                if kind == "triple":
                    fn = lambda G=G, p=p, s=s, o=want: gs.find_triple(G, p, seed=s, orders=o)
                else:
                    fn = lambda G=G, p=p, s=s, o=want: gs.find_conjugate_pair(G, p, seed=s, order=o)
                out.append(Task(f"{kind} {g} p={p} want={want} seed={s}", fn,
                                (kind, G, p, want)))
        for g, p, verdict in EXHAUSTIVE:
            G, T = groups[g], ctx["tables"][g]
            out.append(Task(f"exhaustive {g} p={p}",
                            lambda G=G, p=p, T=T: gs.exhaustive_triple_search(G, p, table=T),
                            ("exhaustive", G, p, verdict)))
        return out

    def check(self, ctx, task, output):
        kind, G, p, want = task.meta
        if kind == "exhaustive":
            ok = output.verdict == want
            if G.name == "A5" and p == 5:
                ok = ok and output.generation_tests == A5_PROOF_TESTS
            if output.certificate is not None:
                ok = ok and self._triple_ok(ctx, G, output.certificate, p, None)
        elif kind == "triple":
            ok = self._triple_ok(ctx, G, output, p, want)
        else:
            ok = self._pair_ok(ctx, G, output, p, want)
        return 1, int(not ok)

    def record(self, task, output):
        if task.meta[0] == "exhaustive":
            cert = output.certificate
            witness = f" {perm_text(cert.x)} {perm_text(cert.y)}" if cert else ""
            return f"{task.label}: {output.verdict} tests={output.generation_tests}{witness}"
        other = output.y if task.meta[0] == "triple" else output.h
        return (f"{task.label}: {output.verdict} {perm_text(output.x)} "
                f"{perm_text(other)} attempts={output.attempts}")

    def _generates(self, ctx, G, x, y) -> bool:
        """<x, y> = G, by the order of a freshly built group."""
        return ctx["perm"].PermGroup(G.degree, [x, y]).order == G.order

    def _triple_ok(self, ctx, G, cert, p, orders) -> bool:
        if cert.verdict != "Generates":
            return False
        x, y, z = cert.x, cert.y, cert.z
        if compose(compose(x, y), z) != tuple(range(G.degree)):
            return False
        got = tuple(perm_order(g) for g in (x, y, z))
        if any(o % p == 0 for o in got) or got != tuple(cert.orders):
            return False
        if orders is not None and got != tuple(orders):
            return False
        return self._generates(ctx, G, x, y)

    def _pair_ok(self, ctx, G, cert, p, order) -> bool:
        if cert.verdict != "Generates":
            return False
        x, h, y = cert.x, cert.h, cert.y
        if compose(compose(inverse(h), x), h) != y:
            return False
        o = perm_order(x)
        if o % p == 0 or o != cert.order or (order is not None and o != order):
            return False
        return self._generates(ctx, G, x, y)


# -- characters ------------------------------------------------------------

# (name, constructor, argument, conjugacy classes, full triple-count tensor?);
# exponents run from 30 (A5) to 420 (A7), and the cost of cyclotomic
# arithmetic grows with the square of the exponent. L2(11) (exponent 330)
# and A8 get a table only, so a pass stays short enough to repeat.
CHARACTER_GROUPS = [
    ("A5", "alternating", 5, 5, True), ("S5", "symmetric", 5, 7, True),
    ("A6", "alternating", 6, 7, True), ("S6", "symmetric", 6, 11, True),
    ("L2_7", "psl2", 7, 6, True), ("L2_8", "psl2", 8, 9, True),
    ("L2_11", "psl2", 11, 8, False), ("A7", "alternating", 7, 9, True),
    ("A8", "alternating", 8, 14, False),
]
# (root system, coordinate sum of the seeded dominant weight); the sums
# keep every multiset under about a tenth of a second
WEIGHT_SYSTEMS = [
    ("A2", 3), ("B2", 3), ("G2", 3), ("A3", 2), ("B3", 2), ("C3", 2),
    ("A4", 2), ("D4", 2), ("B4", 1), ("C4", 1),
]


class Characters:
    """Classes, character tables and triple-count tensors of groups built
    fresh from generators in every pass, and seeded weight multisets."""

    name = "characters"
    min_passes = 4

    def setup(self):
        return {"perm": importlib.import_module("fixspace.perm"),
                "chartab": importlib.import_module("fixspace.chartab"),
                "weights": importlib.import_module("fixspace.weights"),
                "rng": importlib.import_module("fixspace.rng"),
                "tables": {}}

    def tasks(self, ctx, seed):
        perm, chartab, wt = ctx["perm"], ctx["chartab"], ctx["weights"]
        tables = ctx["tables"]

        def table(name, ctor, arg):
            G = getattr(perm, ctor)(arg)
            G.conjugacy_classes()
            tables[name] = chartab.character_table(G)
            return tables[name]

        def row(name, i):
            T = tables[name]
            r = len(T.classes)
            cache = {}
            return [[chartab.triple_count(T, i, j, k, cache) for k in range(r)]
                    for j in range(r)]

        out = []
        for name, ctor, arg, classes, tensor in CHARACTER_GROUPS:
            out.append(Task(f"table {name}", lambda n=name, c=ctor, a=arg: table(n, c, a),
                            ("table", name, classes)))
            if tensor:
                # each row task reads the table built by the task before it
                out.extend(Task(f"row {name} {i}", lambda n=name, i=i: row(n, i),
                                ("row", name, i))
                           for i in range(classes))
        stream = ctx["rng"].SeedStream(seed)
        chosen = []
        for sysname, total in WEIGHT_SYSTEMS:
            rs = wt.root_system(sysname)
            cands = [c for c in itertools.product(range(total + 1), repeat=rs.rank)
                     if sum(c) == total]
            chosen.append((rs, cands[stream.randrange(len(cands))]))
        # one task for all multisets: their costs differ tenfold from
        # weight to weight, and as separate tasks the seed would move them
        # across the median
        out.append(Task(f"weights {[(rs.name, lam) for rs, lam in chosen]}",
                        lambda: [wt.weight_multiset(rs, lam) for rs, lam in chosen],
                        ("weights", chosen)))
        return out

    def check(self, ctx, task, output):
        kind = task.meta[0]
        if kind == "table":
            ok = (sum(d * d for d in output.degrees) == output.group.order
                  and len(output.classes) == task.meta[2])
        elif kind == "row":
            _, name, i = task.meta
            T = ctx["tables"][name]
            sizes = [c.size for c in T.classes]
            ok = all(sum(output[j]) == sizes[i] * sizes[j] for j in range(len(sizes)))
            if name == "A5":
                ok = ok and output == brute_force_row(T, i)
        else:
            ok = all(m.total() == ctx["weights"].weyl_dim(rs, lam)
                     for m, (rs, lam) in zip(output, task.meta[1]))
        return 1, int(not ok)

    def record(self, task, output):
        kind = task.meta[0]
        if kind == "table":
            values = hashlib.sha256(repr(output.values).encode()).hexdigest()[:16]
            return (f"{task.label}: order={output.group.order} e={output.exponent} "
                    f"l={output.modulus} degrees={list(output.degrees)} values={values}")
        if kind == "row":
            return f"{task.label}: {output}"
        return f"{task.label}: {[m.entries for m in output]}"


def brute_force_row(T, i):
    """count(i, j, k) by enumerating x in C_i, y in C_j, z = (xy)^-1."""
    where = {}
    for k, cls in enumerate(T.classes):
        for g in cls.members:
            where[g] = k
    r = len(T.classes)
    counts = [[0] * r for _ in range(r)]
    for j in range(r):
        for x in T.classes[i].members:
            for y in T.classes[j].members:
                counts[j][where[inverse(compose(x, y))]] += 1
    return counts


# -- verify ----------------------------------------------------------------


class Verify:
    """Cold ``fixspace verify`` processes on consecutive seeds, one after
    another. Each process runs through child.py, which calls the command's
    ``main`` in a fresh interpreter and reports per-claim times; the
    claims are the process's sub-tasks."""

    name = "verify"
    min_passes = 3
    processes = 16
    # "none" only times claims; "spans" and "fieldops" also trace
    mode = "none"

    def __init__(self, root):
        self.root = root

    def setup(self):
        importlib.import_module("fixspace.cli")
        return {}

    def tasks(self, ctx, seed):
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))

        def run(s):
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "child.py"),
                   "cli", self.mode, "verify",
                   "--manifest", os.path.join("data", "claims.manifest"),
                   "--seed", str(s), "--format", "records"]
            proc = subprocess.run(cmd, cwd=self.root, env=env,
                                  capture_output=True, text=True)
            layers = {}
            lines = proc.stderr.splitlines()
            if lines and lines[-1].startswith(child.MARK):
                layers = json.loads(lines[-1][len(child.MARK):])
            return proc.returncode, proc.stdout, layers

        return [Task(f"verify seed={s}", lambda s=s: run(s), None)
                for s in range(seed * 100, seed * 100 + self.processes)]

    def check(self, ctx, task, output):
        """Claims run count as attempted; failed claims, or a process that
        exits non-zero or prints no counts, count as failed."""
        code, stdout, _ = output
        records = dict(line.split(" = ", 1) for line in stdout.splitlines()
                       if " = " in line)
        try:
            passed, failed = int(records["passed"]), int(records["failed"])
        except (KeyError, ValueError):
            return 1, 1
        if code != 0:
            failed = max(failed, 1)
        return passed + failed, failed

    def record(self, task, output):
        return f"{task.label}: exit={output[0]}\n{output[1]}"

    def subtasks(self, output):
        """(claim id, seconds) for every claim the process ran."""
        return list(output[2].get("claims", {}).items())


def make(name, root):
    return {"modules": Modules, "search": Search, "characters": Characters,
            "verify": lambda: Verify(root)}[name]()


NAMES = ("modules", "search", "characters", "verify")
