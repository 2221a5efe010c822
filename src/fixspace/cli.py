"""Command line surface.

Each subcommand is an evaluator: a function of plain parameters that
returns a Result, that is its human-readable lines, its machine-readable
`key = value` records and its exit status. One runner prints what an
evaluator returns; `--format records` drops the human section. `verify`
runs the same evaluators on the keys of each manifest claim and compares
their records against the claim's `expect`. Machine output is
byte-identical across runs for fixed seed and inputs, and nothing is kept
between runs: each evaluator builds what it needs from its inputs.
"""

import argparse
import gc
import os
import sys

from . import bounds as bnd
from . import chartab, gensearch, matrep
from . import weights as wt
from .ff import is_prime, make_field
from .perm import CLASS_CAP, builtin_group, format_cycles, read_group_file
from .rng import SeedStream


class ManifestParse(ValueError):
    def __init__(self, lineno: int, msg: str):
        super().__init__(f"manifest line {lineno}: {msg}")
        self.lineno = lineno


CLAIM_KINDS = ("triple", "pair", "exception", "bound", "scott", "weights",
               "phi", "example")


class Result:
    """What an evaluator found: human lines, `key = value` records and the
    exit status (0 success, 1 not found, violated or failing)."""

    def __init__(self, human: list, records: list, status: int = 0):
        self.human = human
        self.records = records
        self.status = status
        self.rec = dict(records)


# output helpers -----------------------------------------------------------


def _emit(res: Result, fmt: str) -> None:
    lines = []
    if fmt == "plain":
        lines.extend(res.human)
        if res.human and res.records:
            lines.append("")
    lines.extend(f"{k} = {v}" for k, v in res.records)
    sys.stdout.write("\n".join(lines) + "\n")


def _fail(msg: str) -> int:
    sys.stderr.write(f"error: {msg}\n")
    return 2


def _csv(items) -> str:
    return ",".join(str(x) for x in items)


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _check(p: int = None, orders: tuple = None, order: int = None,
           group=None, **counts) -> None:
    """Reject what an evaluator cannot honour with a ValueError: the runner
    prints it as one `error:` line (exit status 2), a claim reports FAIL.
    No p'-element has an order below 1 or divisible by p, and no element
    of G has an order that does not divide |G|.  Every prime dividing |G|
    is an element order (Cauchy); a composite one is looked up in the
    classes when |G| is within perm.CLASS_CAP, and left open above it."""
    if p is not None and not is_prime(p):
        raise ValueError(f"p must be a prime, got {p}")
    if orders is not None and len(orders) != 3:
        raise ValueError(f"orders needs exactly 3 entries, got {len(orders)}")
    for value in (orders or ()) + ((order,) if order is not None else ()):
        if value < 1 or value % p == 0:
            raise ValueError(f"an element order must be at least 1 and "
                             f"prime to p = {p}, got {value}")
        if group.order % value:
            raise ValueError(f"no element has order {value}, which does not "
                             f"divide |G| = {group.order}")
        if (group.order <= CLASS_CAP and not is_prime(value)
                and all(c.element_order != value for c in group.conjugacy_classes())):
            raise ValueError(f"no element has order {value}: no class of "
                             f"G (|G| = {group.order}) has it")
    for name, value in counts.items():
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


# input loading -------------------------------------------------------------


def _path(spec: str, base: str) -> str:
    return spec if os.path.isabs(spec) or not base else os.path.join(base, spec)


def _load_group(spec: str, base: str = ""):
    """A path to a .grp file, or a builtin group name."""
    path = _path(spec, base)
    if os.path.exists(path):
        return read_group_file(path)
    return builtin_group(spec)


def _load_module(spec: str, base: str = "", matgroup: str = None):
    matgroups = {}
    if matgroup:
        group, rep = matrep.read_matgroup_file(_path(matgroup, base))
        matgroups[group.name] = (group, rep)
    return matrep.read_module_file(_path(spec, base), matgroups=matgroups)


# subcommand evaluators -----------------------------------------------------


def eval_table(group: str, base: str = "") -> Result:
    G = _load_group(group, base)
    table = chartab.character_table(G)
    name = G.name or "group"
    classes = table.classes
    human = [
        f"character table of {name}: order {G.order}, "
        f"{len(classes)} classes, exponent {table.exponent}",
        "class orders: " + _csv(c.element_order for c in classes),
        "class sizes:  " + _csv(c.size for c in classes),
        "degrees:      " + _csv(table.degrees),
    ]
    records = [
        ("group", name),
        ("order", G.order),
        ("classes", len(classes)),
        ("exponent", table.exponent),
        ("dixon_modulus", table.modulus),
        ("class_orders", _csv(c.element_order for c in classes)),
        ("class_sizes", _csv(c.size for c in classes)),
        ("degrees", _csv(table.degrees)),
    ]
    for i, row in enumerate(table.values):
        packed = "|".join(_csv(vec) for vec in row)
        records.append((f"character_{i}", f"{table.degrees[i]}:{packed}"))
    return Result(human, records)


def _witness_records(cert) -> list:
    return [
        ("x", format_cycles(cert.x)),
        ("y", format_cycles(cert.y)),
        ("z", format_cycles(cert.z)),
        ("orders", _csv(cert.orders)),
        ("subgroup_order", cert.subgroup_order_of_xy),
    ]


def eval_triples(group: str, p: int, seed: int = None, budget: int = 10 ** 5,
                 orders: tuple = None, exhaustive: bool = False,
                 base: str = "") -> Result:
    if exhaustive and orders is not None:
        raise ValueError("--orders does not apply to the exhaustive search")
    G = _load_group(group, base)
    _check(p, orders, group=G, budget=budget)
    name = G.name or "group"
    if exhaustive:
        res = gensearch.exhaustive_triple_search(G, p)
        verdict = {"ProvedNone": "proved_none",
                   "ExistsWithWitness": "exists_with_witness"}[res.verdict]
        human = [f"exhaustive class-triple search in {name} at p = {p}"]
        records = [("group", name), ("p", p), ("mode", "exhaustive"),
                   ("verdict", verdict),
                   ("generation_tests", res.generation_tests)]
        if res.certificate is not None:
            human.append(f"witness triple of orders {res.certificate.orders}")
            records += _witness_records(res.certificate)
        else:
            human.append("no generating triple of coprime-order elements exists")
        return Result(human, records)
    if seed is None:
        raise ValueError("--seed is required for the randomized search")
    cert = gensearch.find_triple(G, p, budget=budget, seed=seed, orders=orders)
    found = cert.verdict == "Generates"
    human = [f"random triple search in {name} at p = {p}: "
             + (f"found after {cert.attempts} attempts" if found
                else f"nothing in {cert.attempts} attempts")]
    records = [("group", name), ("p", p), ("mode", "random"),
               ("seed", seed),
               ("verdict", "found" if found else "not_found"),
               ("attempts", cert.attempts)]
    if found:
        records += _witness_records(cert)
    return Result(human, records, 0 if found else 1)


def eval_pairs(group: str, p: int, seed: int = None, budget: int = 10 ** 5,
               order: int = None, base: str = "") -> Result:
    G = _load_group(group, base)
    _check(p, order=order, group=G, budget=budget)
    name = G.name or "group"
    if seed is None:
        raise ValueError("--seed is required for the randomized search")
    cert = gensearch.find_conjugate_pair(G, p, budget=budget, seed=seed,
                                         order=order)
    found = cert.verdict == "Generates"
    human = [f"conjugate generating pair search in {name} at p = {p}: "
             + (f"found after {cert.attempts} attempts" if found
                else f"nothing in {cert.attempts} attempts")]
    records = [("group", name), ("p", p), ("seed", seed),
               ("verdict", "found" if found else "not_found"),
               ("attempts", cert.attempts)]
    if found:
        records += [
            ("x", format_cycles(cert.x)),
            ("h", format_cycles(cert.h)),
            ("y", format_cycles(cert.y)),
            ("order", cert.order),
            ("subgroup_order", cert.subgroup_order_of_xy),
        ]
    return Result(human, records, 0 if found else 1)


_CLAUSE_KEYS = (
    "half-strict", "coprime-order-third", "large-char-third",
    "coprime-dim-three-eighths", "two-primitive-third",
    "prime-dim-line-eigenspaces",
)


def eval_bounds(module: str, p: int = None, matgroup: str = None,
                base: str = "") -> Result:
    """Raises bounds.NotIrreducible (a ValueError) on a reducible module,
    and ValueError when p is not the characteristic of the module's field."""
    rep = _load_module(module, base, matgroup)
    p = rep.field.p if p is None else p
    if p != rep.field.p:
        raise ValueError(f"p = {p} is not the characteristic {rep.field.p} "
                         "of the module's field")
    report = bnd.check_bound_theorems(rep, p)
    human = [
        f"module of dimension {report.dim} over GF({rep.field.q}), "
        f"group order {report.group_order}, p = {p}",
        f"minimum semisimple fixed dimension: {report.min_fixed_dim} "
        f"(class of element order {report.min_class_order})",
    ]
    records = [
        ("module", module),
        ("dim", report.dim),
        ("p", p),
        ("group_order", report.group_order),
        ("min_semisimple_fixdim", report.min_fixed_dim),
        ("min_class_order", report.min_class_order),
    ]
    by_name = {c.clause: c for c in report.clauses}
    for key in _CLAUSE_KEYS:
        c = by_name[key]
        status = "skip" if not c.applicable else ("pass" if c.satisfied else "fail")
        human.append(f"  {key}: {status}"
                     + (f" (threshold {c.threshold}, witness {c.witness_dim})"
                        if c.applicable else ""))
        records.append((f"clause_{key.replace('-', '_')}", status))
    records.append(("holds", "yes" if report.holds else "no"))
    return Result(human, records, 0 if report.holds else 1)


def eval_scott(module: str, seed: int = None, pairs: int = 1000,
               matgroup: str = None, base: str = "") -> Result:
    if seed is None:
        raise ValueError("--seed is required for the randomized pair sweep")
    _check(pairs=pairs)
    rep = _load_module(module, base, matgroup)
    suite = bnd.scott_suite(rep, pairs=pairs, seed=seed)
    ok = not suite.violations
    human = [f"fixed-dimension inequality on {suite.checked} random pairs: "
             + ("no violations" if ok else f"{len(suite.violations)} violations")]
    records = [("module", module), ("pairs", suite.checked),
               ("seed", seed),
               ("violations", len(suite.violations)),
               ("holds", "yes" if ok else "no")]
    return Result(human, records, 0 if ok else 1)


def eval_weights(system: str, weight: str) -> Result:
    """Exit status 1 when the multiset total differs from the Weyl dimension."""
    rs = wt.root_system(system)
    lam = _ints(weight)
    dim = wt.weyl_dim(rs, lam)
    wms = wt.weight_multiset(rs, lam)
    human = [f"{rs.name} highest weight ({_csv(lam)}): dimension {dim}, "
             f"{len(wms.entries)} distinct weights"]
    for w, m in wms.entries:
        human.append(f"  weight ({_csv(w)}) multiplicity {m}")
    records = [("system", rs.name), ("weight", _csv(lam)),
               ("weyl_dim", dim), ("entries", len(wms.entries))]
    for i, (w, m) in enumerate(wms.entries):
        records.append((f"weight_{i}", f"{_csv(w)}:{m}"))
    return Result(human, records, 0 if wms.total() == dim else 1)


def eval_phi(n: int, q: int) -> Result:
    value = gensearch.phi_star(n, q)
    human = [f"largest divisor of {q}^{n} - 1 coprime to every "
             f"smaller {q}^m - 1: {value}"]
    return Result(human, [("n", n), ("q", q), ("phi_star", value)])


# worked-example evaluators (manifest kind `example`) --------------------------


def _report(rep) -> Result:
    """A worked example's report record as records, one per field."""
    return Result([], list(rep._asdict().items()))


def eval_semisimple_fixdims(module: str, p: int, base: str = "") -> Result:
    rep = _load_module(module, base)
    dims = sorted({matrep.fixed_space_dim(rep, cls.rep)
                   for cls in bnd.semisimple_classes(rep.group, p)})
    return Result([], [("fixed_dims", dims)])


# the divisibility examples test this many torus points, drawn from this seed
DIVISIBILITY_SAMPLES = 25
DIVISIBILITY_SEED = 1


def eval_twist_divisibility(system: str, weight0: str, weight1: str, p: int,
                            ext: int = 2) -> Result:
    rs = wt.root_system(system)
    F = make_field(p, ext)
    points = wt.torus_sample_set(F, rs.rank, DIVISIBILITY_SAMPLES, seed=DIVISIBILITY_SEED)
    return _report(wt.check_twist_divisibility(
        rs, _ints(weight0), _ints(weight1), p, points, F))


def eval_sym_divisibility(n: int, s: int, p: int) -> Result:
    F = make_field(p)
    points = wt.torus_sample_set(F, n - 1, DIVISIBILITY_SAMPLES, seed=DIVISIBILITY_SEED)
    return _report(wt.check_sym_divisibility(n, s, points, F))


# the claim regression runner ------------------------------------------------


def parse_manifest(text: str) -> list:
    """Claims as dicts of their keys plus `id` and `_line` (the header's
    line). A key the claim's kind does not read, a repeated key and an
    unknown `check` raise ManifestParse at the line that carries them."""
    claims = []
    sections = []   # per claim: header id, header line, key -> the line that sets it
    seen = set()
    cur = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            ident = line[1:-1].strip()
            if not ident:
                raise ManifestParse(lineno, "empty claim id")
            if ident in seen:
                raise ManifestParse(lineno, f"duplicate claim id {ident!r}")
            seen.add(ident)
            cur = {"id": ident, "_line": lineno}
            claims.append(cur)
            sections.append((ident, lineno, {}))
        elif "=" in line:
            if cur is None:
                raise ManifestParse(lineno, "key outside any [claim] section")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in sections[-1][2]:
                raise ManifestParse(lineno, f"claim {sections[-1][0]!r} repeats key {key!r}")
            sections[-1][2][key] = lineno
            cur[key] = value
        else:
            raise ManifestParse(lineno, f"unparseable line {line!r}")
    for claim, (ident, lineno, lines) in zip(claims, sections):
        kind = claim.get("kind")
        if kind not in CLAIM_KINDS:
            raise ManifestParse(lineno, f"claim {ident!r} has bad kind {kind!r}")
        entry, allowed = kind, _COMMON_KEYS
        if kind == "example":
            entry, allowed = claim.get("check"), allowed + ("check",)
            if entry not in _CLAIMS or entry in CLAIM_KINDS:
                raise ManifestParse(lines.get("check", lineno),
                                    f"claim {ident!r} has unknown check {entry!r}")
        for key, at in lines.items():
            if key not in allowed + _CLAIMS[entry][0]:
                raise ManifestParse(at, f"claim {ident!r} of kind {kind} "
                                        f"has unknown key {key!r}")
        if "expect" not in claim:
            raise ManifestParse(lineno, f"claim {ident!r} lacks expect")
        prov = claim.get("provenance")
        if prov not in ("paper", "derived"):
            raise ManifestParse(
                lineno, f"claim {ident!r} provenance must be paper or derived")
        if prov == "paper" and not claim.get("anchor"):
            raise ManifestParse(
                lineno, f"claim {ident!r} needs an anchor line")
    return claims


def _claim_seed(master_seed: int, index: int) -> int:
    return SeedStream(master_seed).fork(index).randrange(2 ** 62) + 1


def _int(claim: dict, key: str, default=None):
    return int(claim[key]) if key in claim else default


def _multiset_total(res: Result) -> int:
    return sum(int(v.rsplit(":", 1)[1]) for k, v in res.records
               if k.startswith("weight_"))


def _separation(res: Result) -> str:
    return "distinct" if res.rec["distinct"] else "coincidence"


# keys every claim may carry; an `example` claim also carries its `check`
_COMMON_KEYS = ("kind", "expect", "provenance", "anchor", "scale")

# claim kind, or check name of an `example` claim ->
#   (the claim keys the evaluator reads,
#    evaluator run on the claim's keys: claim, seed, base -> Result,
#    PASS test: result, expect -> bool,
#    detail line: result -> str)
_CLAIMS = {
    "triple": (
        ("group", "p", "budget", "orders"),
        lambda c, seed, base: eval_triples(
            c["group"], int(c["p"]), seed=seed, budget=_int(c, "budget", 10 ** 5),
            orders=_ints(c["orders"]) if "orders" in c else None, base=base),
        lambda res, expect: res.rec["verdict"] == expect,
        lambda res: (f"{res.rec['verdict']}, orders {res.rec.get('orders', '-')}, "
                     f"attempts {res.rec['attempts']}")),
    "pair": (
        ("group", "p", "budget", "order"),
        lambda c, seed, base: eval_pairs(
            c["group"], int(c["p"]), seed=seed, budget=_int(c, "budget", 10 ** 5),
            order=_int(c, "order"), base=base),
        lambda res, expect: res.rec["verdict"] == expect,
        lambda res: f"{res.rec['verdict']}, attempts {res.rec['attempts']}"),
    "exception": (
        ("group", "p"),
        lambda c, seed, base: eval_triples(
            c["group"], int(c["p"]), exhaustive=True, base=base),
        lambda res, expect: res.rec["verdict"] == expect,
        lambda res: (f"{res.rec['verdict']} after {res.rec['generation_tests']} "
                     "generation tests")),
    "bound": (
        ("module", "p", "matgroup"),
        lambda c, seed, base: eval_bounds(
            c["module"], _int(c, "p"), c.get("matgroup"), base),
        lambda res, expect: (res.rec["holds"] == "yes"
                             and str(res.rec["min_semisimple_fixdim"]) == expect),
        lambda res: (f"min fixed dim {res.rec['min_semisimple_fixdim']}, clauses "
                     + ("hold" if res.rec["holds"] == "yes" else "VIOLATED"))),
    "scott": (
        ("module", "pairs", "matgroup"),
        lambda c, seed, base: eval_scott(
            c["module"], seed, _int(c, "pairs", 1000), c.get("matgroup"), base),
        lambda res, expect: res.rec["holds"] == "yes" and expect == "zero-violations",
        lambda res: f"{res.rec['violations']} violations in {res.rec['pairs']} pairs"),
    "weights": (
        ("type", "weight"),
        lambda c, seed, base: eval_weights(c["type"], c["weight"]),
        lambda res, expect: res.status == 0 and res.rec["weyl_dim"] == int(expect),
        lambda res: (f"dimension {res.rec['weyl_dim']}, "
                     f"multiset total {_multiset_total(res)}")),
    "phi": (
        ("n", "q"),
        lambda c, seed, base: eval_phi(int(c["n"]), int(c["q"])),
        lambda res, expect: res.rec["phi_star"] == int(expect),
        lambda res: f"phi_star = {res.rec['phi_star']}"),
    "adjoint-section": (
        (),
        lambda c, seed, base: _report(bnd.sl_p_adjoint_check()),
        lambda res, expect: res.rec["holds"] and str(res.rec["min_fixed"]) == expect,
        lambda res: (f"min fixed dim {res.rec['min_fixed']} "
                     f"on the dim-{res.rec['section_dim']} section")),
    "extraspecial-free": (
        (),
        lambda c, seed, base: _report(bnd.extraspecial_free_check()),
        lambda res, expect: res.rec["holds"] and expect == "free",
        lambda res: f"max eigenspace dimension {res.rec['max_eigenspace_dim']}"),
    "eigen-separation": (
        ("q", "s"),
        lambda c, seed, base: _report(
            wt.sl2_distinct_eigenvalues(int(c["q"]), int(c["s"]))),
        lambda res, expect: _separation(res) == expect,
        lambda res: f"q={res.rec['q']} s={res.rec['s']}: {_separation(res)}"),
    "mersenne-sharp": (
        ("module", "p"),
        lambda c, seed, base: eval_semisimple_fixdims(
            c["module"], int(c["p"]), base),
        lambda res, expect: res.rec["fixed_dims"] == [int(expect)],
        lambda res: f"semisimple fixed dims {res.rec['fixed_dims']}"),
    "twist-divisibility": (
        ("type", "weight0", "weight1", "p", "ext"),
        lambda c, seed, base: eval_twist_divisibility(
            c["type"], c["weight0"], c["weight1"], int(c["p"]), _int(c, "ext", 2)),
        lambda res, expect: res.rec["verdict"] == expect,
        lambda res: f"verdict {res.rec['verdict']}"),
    "sym-divisibility": (
        ("n", "s", "p"),
        lambda c, seed, base: eval_sym_divisibility(int(c["n"]), int(c["s"]), int(c["p"])),
        lambda res, expect: res.rec["verdict"] == expect,
        lambda res: f"verdict {res.rec['verdict']}"),
}


def _run_claim(claim: dict, index: int, args, base: str) -> tuple:
    """Returns (status, detail) with status PASS, FAIL, or UNVERIFIED."""
    if claim.get("scale") == "beyond-desk":
        return "UNVERIFIED", "beyond desk scale; recorded, not executed"
    kind = claim["kind"]
    _, evaluate, passes, detail = _CLAIMS[claim["check"] if kind == "example" else kind]
    seed = _claim_seed(args.seed, index)
    try:
        res = evaluate(claim, seed, base)
        return ("PASS" if passes(res, claim["expect"]) else "FAIL"), detail(res)
    except Exception as exc:  # a crashed claim is a failed claim
        return "FAIL", f"error: {exc}"


def cmd_verify(args) -> Result:
    if args.seed is None:
        raise ValueError("--seed is required for the claim runner")
    with open(args.manifest) as fh:
        claims = parse_manifest(fh.read())
    base = os.path.dirname(os.path.abspath(args.manifest))
    human = []
    records = []
    counts = {"PASS": 0, "FAIL": 0, "UNVERIFIED": 0}
    for index, claim in enumerate(claims):
        status, detail = _run_claim(claim, index, args, base)
        counts[status] += 1
        human.append(f"{status:10} {claim['id']}: {detail}")
        records.append((f"claim_{claim['id']}", status))
    records += [("total", len(claims)), ("passed", counts["PASS"]),
                ("failed", counts["FAIL"]),
                ("unverified", counts["UNVERIFIED"])]
    return Result(human, records, 0 if counts["FAIL"] == 0 else 1)


# argument wiring -------------------------------------------------------------


def _add_common(sub, seed=False, budget=False, module=False, group=False):
    sub.add_argument("--format", choices=("plain", "records"), default="plain")
    if group:
        sub.add_argument("--group", required=True,
                         help="path to a .grp file, or a builtin group name")
    if module:
        sub.add_argument("--module", required=True, help="path to a .mod recipe")
        sub.add_argument("--matgroup", default=None,
                         help="optional .mat file registering a matrix group")
    if seed:
        sub.add_argument("--seed", type=int, default=None)
    if budget:
        sub.add_argument("--budget", type=int, default=10 ** 5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixspace",
        description="group and representation computations with exact "
                    "fixed-space bound checks")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("table", help="character table of a group")
    _add_common(s, group=True)
    s.set_defaults(fn=lambda a: eval_table(a.group))

    s = subs.add_parser("triples", help="generating triple of coprime-order elements")
    _add_common(s, group=True, seed=True, budget=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--orders", default=None, help="comma list like 4,4,4")
    s.add_argument("--exhaustive", action="store_true",
                   help="complete class-triple sweep (proof when none exists)")
    s.set_defaults(fn=lambda a: eval_triples(
        a.group, a.p, a.seed, a.budget, _ints(a.orders) if a.orders else None,
        a.exhaustive))

    s = subs.add_parser("pairs", help="conjugate generating pair")
    _add_common(s, group=True, seed=True, budget=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--order", type=int, default=None)
    s.set_defaults(fn=lambda a: eval_pairs(a.group, a.p, a.seed, a.budget,
                                           a.order))

    s = subs.add_parser("bounds", help="fixed-space bound clauses on a module")
    _add_common(s, module=True)
    s.add_argument("--p", type=int, default=None)
    s.set_defaults(fn=lambda a: eval_bounds(a.module, a.p, a.matgroup))

    s = subs.add_parser("scott", help="random-pair fixed-dimension inequality sweep")
    _add_common(s, module=True, seed=True)
    s.add_argument("--pairs", type=int, default=1000)
    s.set_defaults(fn=lambda a: eval_scott(a.module, a.seed, a.pairs, a.matgroup))

    s = subs.add_parser("weights", help="weight multiset of a highest-weight module")
    _add_common(s)
    s.add_argument("--type", required=True, help="root system name like A2 or G2")
    s.add_argument("--weight", required=True, help="fundamental coordinates like 1,1")
    s.set_defaults(fn=lambda a: eval_weights(a.type, a.weight))

    s = subs.add_parser("phi", help="largest primitive divisor of q^n - 1")
    _add_common(s)
    s.add_argument("n", type=int)
    s.add_argument("q", type=int)
    s.set_defaults(fn=lambda a: eval_phi(a.n, a.q))

    s = subs.add_parser("verify", help="run a claims manifest")
    _add_common(s, seed=True)
    s.add_argument("--manifest", required=True)
    s.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    # what is loaded by now lives as long as the process: keep the cyclic
    # collector from traversing it again in a young collection (about 1 ms)
    gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        res = args.fn(args)
        _emit(res, args.format)
        return res.status
    except (OSError, KeyError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
