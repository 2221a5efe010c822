"""Command line surface.

Every job is an evaluator: a function of plain parameters that returns a
Result, that is its human-readable lines, its machine-readable `key =
value` records and its exit status. One runner prints what an evaluator
returns; `--format records` drops the human section. Machine output is
byte-identical across runs for fixed seed and inputs, and nothing is kept
between runs: each evaluator builds what it needs from its inputs. A
search's certificate is printed only once gensearch.verify_triple or
verify_pair accepts it, with a full chain build of <x, y>.

One table, EVALUATORS, declares each evaluator once: its subcommand, its
parameters and, for a claim kind, its PASS test. The parser builds the
subcommands from it. `verify`, one of its rows, checks and converts each
manifest claim's keys against the row its kind names before any claim
runs, then runs that evaluator and compares its records with `expect`.
"""

import argparse
import gc
import os
import sys

from . import bounds as bnd
from . import chartab, gensearch, matrep
from . import weights as wt
from .ff import is_prime
from .perm import CLASS_CAP, builtin_group, format_cycles, read_group_file
from .rng import SeedStream


class ManifestParse(ValueError):
    def __init__(self, lineno: int, msg: str):
        super().__init__(f"manifest line {lineno}: {msg}")
        self.lineno = lineno


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


def _message(exc: Exception) -> str:
    """What an error says: str() of a KeyError would quote it as a repr."""
    return str(exc.args[0] if isinstance(exc, KeyError) else exc)


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
    classes when |G| is within perm.CLASS_CAP, and left open above it.
    p is bounded before it is trial-divided."""
    if p is not None and p >= 2**31:
        raise ValueError(f"p must be below 2**31, got {p}")
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


def _load_group(spec: str, base: str = ""):
    """A path to a .grp file, or a builtin group name."""
    path = os.path.join(base, spec)
    if os.path.exists(path):
        return read_group_file(path)
    return builtin_group(spec)


def _load_module(spec: str, base: str, matgroup: str = None):
    matgroups = {}
    if matgroup:
        group, rep = matrep.read_matgroup_file(os.path.join(base, matgroup))
        matgroups[group.name] = (group, rep)
    return matrep.read_module_file(os.path.join(base, spec), matgroups=matgroups)


# subcommand evaluators -----------------------------------------------------


def eval_table(group: str) -> Result:
    G = _load_group(group)
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


def _certified(ok: bool) -> None:
    """Print a certificate only if gensearch.verify_* and what was asked hold."""
    if not ok:
        raise ValueError("the certificate found fails the independent check")


def _witness_records(G, cert, orders=None) -> list:
    _certified(gensearch.verify_triple(G, cert) and orders in (None, cert.orders))
    return [
        ("x", format_cycles(cert.x)),
        ("y", format_cycles(cert.y)),
        ("z", format_cycles(cert.z)),
        ("orders", _csv(cert.orders)),
        ("subgroup_order", cert.subgroup_order_of_xy),
    ]


def eval_exhaustive(group: str, p: int, base: str) -> Result:
    G = _load_group(group, base)
    _check(p, group=G)
    name = G.name or "group"
    res = gensearch.exhaustive_triple_search(G, p)
    verdict = {"ProvedNone": "proved_none",
               "ExistsWithWitness": "exists_with_witness"}[res.verdict]
    human = [f"exhaustive class-triple search in {name} at p = {p}"]
    records = [("group", name), ("p", p), ("mode", "exhaustive"),
               ("verdict", verdict),
               ("generation_tests", res.generation_tests)]
    if res.certificate is not None:
        human.append(f"witness triple of orders {res.certificate.orders}")
        records += _witness_records(G, res.certificate)
    else:
        human.append("no generating triple of coprime-order elements exists")
    return Result(human, records)


def eval_triples(group: str, p: int, seed: int, budget: int, orders: tuple,
                 base: str) -> Result:
    G = _load_group(group, base)
    _check(p, orders, group=G, budget=budget)
    name = G.name or "group"
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
        records += _witness_records(G, cert, orders)
    return Result(human, records, 0 if found else 1)


def eval_pairs(group: str, p: int, seed: int, budget: int, order: int,
               base: str) -> Result:
    G = _load_group(group, base)
    _check(p, order=order, group=G, budget=budget)
    name = G.name or "group"
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
        _certified(gensearch.verify_pair(G, cert) and order in (None, cert.order))
        records += [
            ("x", format_cycles(cert.x)),
            ("h", format_cycles(cert.h)),
            ("y", format_cycles(cert.y)),
            ("order", cert.order),
            ("subgroup_order", cert.subgroup_order_of_xy),
        ]
    return Result(human, records, 0 if found else 1)


def eval_bounds(module: str, matgroup: str, base: str) -> Result:
    """Raises bounds.NotIrreducible on a reducible module and
    bounds.TrivialAction on one where the group acts as the identity (both
    ValueErrors). p is the characteristic of the module's field."""
    rep = _load_module(module, base, matgroup)
    report = bnd.check_bound_theorems(rep)
    human = [
        f"module of dimension {report.dim} over GF({rep.field.q}), "
        f"group order {report.group_order}, p = {report.p}",
        f"minimum semisimple fixed dimension: {report.min_fixed_dim} "
        f"(class of element order {report.min_class_order})",
    ]
    records = [
        ("module", module),
        ("dim", report.dim),
        ("p", report.p),
        ("group_order", report.group_order),
        ("min_semisimple_fixdim", report.min_fixed_dim),
        ("min_class_order", report.min_class_order),
    ]
    for c in report.clauses:   # in the order check_bound_theorems documents
        status = "skip" if not c.applicable else ("pass" if c.satisfied else "fail")
        human.append(f"  {c.clause}: {status}"
                     + (f" (threshold {c.threshold}, witness {c.witness_dim})"
                        if c.applicable else ""))
        records.append((f"clause_{c.clause.replace('-', '_')}", status))
    records.append(("holds", "yes" if report.holds else "no"))
    return Result(human, records, 0 if report.holds else 1)


def eval_scott(module: str, seed: int, pairs: int, matgroup: str,
               base: str) -> Result:
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


def eval_weights(type: str, weight: str) -> Result:
    """Exit status 1 when the multiset total differs from the Weyl dimension."""
    rs = wt.root_system(type)
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


# evaluators with no subcommand, run only as manifest claim kinds ------------


def _report(rep) -> Result:
    """A worked example's report record as records, one per field."""
    return Result([], list(rep._asdict().items()))


def eval_semisimple_fixdims(module: str, base: str) -> Result:
    rep = _load_module(module, base)
    classes = bnd.semisimple_classes(rep.group, rep.field.p)
    dims = sorted({matrep.fixed_space_dim(rep, cls.rep) for cls in classes})
    return Result([], [("fixed_dims", dims)])


def eval_twist_divisibility(type: str, weight0: str, weight1: str, p: int) -> Result:
    _check(p=p)
    return _report(wt.check_twist_divisibility(
        wt.root_system(type), _ints(weight0), _ints(weight1), p))


def eval_sym_divisibility(n: int, s: int, p: int) -> Result:
    _check(p=p)
    return _report(wt.check_sym_divisibility(n, s, p))


# the claim runner ------------------------------------------------------------

# keys every claim may carry
_COMMON_KEYS = ("kind", "expect", "provenance", "anchor", "scale")


def parse_manifest(text: str) -> list:
    """Claims as dicts of their keys plus `id`, `_line` (the header's line)
    and `_args` (the evaluator's arguments, converted). A key the claim's
    kind does not read, a repeated key and a value that does not convert
    raise ManifestParse at the line that carries them, an unknown kind and a
    missing key at the claim's header."""
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
            raise ManifestParse(lineno, f"claim {ident!r} has bad kind {kind!r}; "
                                        f"known: {', '.join(CLAIM_KINDS)}")
        params = EVALUATORS[kind][2]
        keys = {p[0]: p for p in params if p[1] and p[0] != "seed"}
        for key, at in lines.items():
            if key not in _COMMON_KEYS and key not in keys:
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
        args = {p[0]: p[2] for p in params}
        for key, convert, default, _ in keys.values():
            if key in claim:
                try:
                    args[key] = convert(claim[key])
                except ValueError as exc:
                    raise ManifestParse(lines[key], f"claim {ident!r} has bad {key} "
                                                    f"{claim[key]!r}: {exc}") from None
            elif default is _REQUIRED or default is _POSITIONAL:
                raise ManifestParse(lineno, f"claim {ident!r} lacks {key}")
        claim["_args"] = args
    return claims


def _claim_seed(master_seed: int, index: int) -> int:
    return SeedStream(master_seed).fork(index).randrange(2 ** 62) + 1


def _run_claim(claim: dict, index: int, seed: int, base: str) -> tuple:
    """Returns (status, detail) with status PASS, FAIL, or UNVERIFIED."""
    if claim.get("scale") == "beyond-desk":
        return "UNVERIFIED", "beyond desk scale; recorded, not executed"
    evaluate, _, _, passes, detail = EVALUATORS[claim["kind"]]
    kwargs = claim["_args"]
    if "seed" in kwargs:
        kwargs["seed"] = _claim_seed(seed, index)
    if "base" in kwargs:
        kwargs["base"] = base
    try:
        res = evaluate(**kwargs)
        return ("PASS" if passes(res, claim["expect"]) else "FAIL"), detail(res)
    except Exception as exc:  # a crashed claim is a failed claim
        return "FAIL", f"error: {_message(exc)}"


def eval_verify(seed: int, manifest: str) -> Result:
    with open(manifest) as fh:
        claims = parse_manifest(fh.read())
    base = os.path.dirname(os.path.abspath(manifest))
    human, records = [], []
    counts = {"PASS": 0, "FAIL": 0, "UNVERIFIED": 0}
    for index, claim in enumerate(claims):
        # what earlier claims left (group caches) lives as long as the process:
        # freeze it, so a claim's collections follow from its own allocations
        gc.freeze()
        status, detail = _run_claim(claim, index, seed, base)
        counts[status] += 1
        human.append(f"{status:10} {claim['id']}: {detail}")
        records.append((f"claim_{claim['id']}", status))
    records += [("total", len(claims)), ("passed", counts["PASS"]),
                ("failed", counts["FAIL"]), ("unverified", counts["UNVERIFIED"])]
    return Result(human, records, 0 if counts["FAIL"] == 0 else 1)


# the evaluator table ---------------------------------------------------------

# defaults of the parameters that must be given: as options, or positionally
_REQUIRED, _POSITIONAL = object(), object()

_GROUP = ("group", str, _REQUIRED, "path to a .grp file, or a builtin group name")
_MODULE = ("module", str, _REQUIRED, "path to a .mod recipe")
_MATGROUP = ("matgroup", str, None, "optional .mat file registering a matrix group")
_TYPE = ("type", str, _REQUIRED, "root system name like A2 or G2")
_P = ("p", int, _REQUIRED, None)
_SEED = ("seed", int, _REQUIRED, None)
_BUDGET = ("budget", int, 10 ** 5, None)
# the directory relative paths resolve against: the manifest's for a claim,
# the working directory ("") for a subcommand
_BASE = ("base", None, "", None)


def _verdict(res: Result, expect: str) -> bool:
    return res.rec["verdict"] == expect


def _holds(res: Result) -> bool:
    return res.rec["holds"] == "yes"


def _multiset_total(res: Result) -> int:
    return sum(int(v.rsplit(":", 1)[1]) for k, v in res.records
               if k.startswith("weight_"))


def _separation(res: Result) -> str:
    return "distinct" if res.rec["distinct"] else "coincidence"


# evaluator name -> (evaluator, subcommand help or None for an evaluator run
# only as a claim kind, parameters as (name, conversion, default, help), PASS
# test as result, expect -> bool or None, a claim's detail line as result ->
# str or None), each parameter passed by name. A subcommand takes each as an
# option. A claim kind is the name of a row with a PASS test; a claim sets
# each parameter as a key but `seed`, which the runner forks from the run's
# seed, and `base`.
EVALUATORS = {
    "table": (eval_table, "character table of a group", (_GROUP,), None, None),
    "triples": (eval_triples, "generating triple of coprime-order elements", (
        _GROUP, _P, _SEED, _BUDGET, ("orders", _ints, None, "comma list like 4,4,4"),
        _BASE), _verdict,
        lambda res: (f"{res.rec['verdict']}, orders {res.rec.get('orders', '-')}, "
                     f"attempts {res.rec['attempts']}")),
    "exhaustive": (eval_exhaustive, "complete class-triple sweep (proof when "
                   "none exists)", (_GROUP, _P, _BASE), _verdict,
                   lambda res: (f"{res.rec['verdict']} after "
                                f"{res.rec['generation_tests']} generation tests")),
    "pairs": (eval_pairs, "conjugate generating pair", (
        _GROUP, _P, _SEED, _BUDGET, ("order", int, None, None), _BASE), _verdict,
        lambda res: f"{res.rec['verdict']}, attempts {res.rec['attempts']}"),
    "bounds": (eval_bounds, "fixed-space bound clauses on a module", (
        _MODULE, _MATGROUP, _BASE),
        lambda res, expect: _holds(res) and str(res.rec["min_semisimple_fixdim"]) == expect,
        lambda res: (f"min fixed dim {res.rec['min_semisimple_fixdim']}, clauses "
                     + ("hold" if _holds(res) else "VIOLATED"))),
    "scott": (eval_scott, "random-pair fixed-dimension inequality sweep", (
        _MODULE, _SEED, ("pairs", int, 1000, None), _MATGROUP, _BASE),
        lambda res, expect: _holds(res) and expect == "zero-violations",
        lambda res: f"{res.rec['violations']} violations in {res.rec['pairs']} pairs"),
    "weights": (eval_weights, "weight multiset of a highest-weight module", (
        _TYPE, ("weight", str, _REQUIRED, "fundamental coordinates like 1,1")),
        lambda res, expect: res.status == 0 and res.rec["weyl_dim"] == int(expect),
        lambda res: (f"dimension {res.rec['weyl_dim']}, "
                     f"multiset total {_multiset_total(res)}")),
    "phi": (eval_phi, "largest primitive divisor of q^n - 1", (
        ("n", int, _POSITIONAL, None), ("q", int, _POSITIONAL, None)),
        lambda res, expect: res.rec["phi_star"] == int(expect),
        lambda res: f"phi_star = {res.rec['phi_star']}"),
    "verify": (eval_verify, "run a claims manifest", (
        _SEED, ("manifest", str, _REQUIRED, None)), None, None),
    "adjoint-section": (
        lambda: _report(bnd.sl_p_adjoint_check()), None, (),
        lambda res, expect: res.rec["holds"] and str(res.rec["min_fixed"]) == expect,
        lambda res: (f"min fixed dim {res.rec['min_fixed']} "
                     f"on the dim-{res.rec['section_dim']} section")),
    "extraspecial-free": (
        lambda: _report(bnd.extraspecial_free_check()), None, (),
        lambda res, expect: res.rec["holds"] and expect == "free",
        lambda res: f"max eigenspace dimension {res.rec['max_eigenspace_dim']}"),
    "eigen-separation": (
        lambda q, s: _report(wt.sl2_distinct_eigenvalues(q, s)), None,
        (("q", int, _REQUIRED, None), ("s", int, _REQUIRED, None)),
        lambda res, expect: _separation(res) == expect,
        lambda res: f"q={res.rec['q']} s={res.rec['s']}: {_separation(res)}"),
    "mersenne-sharp": (
        eval_semisimple_fixdims, None, (_MODULE, _BASE),
        lambda res, expect: res.rec["fixed_dims"] == [int(expect)],
        lambda res: f"semisimple fixed dims {res.rec['fixed_dims']}"),
    "twist-divisibility": (eval_twist_divisibility, None, (
        _TYPE, ("weight0", str, _REQUIRED, None), ("weight1", str, _REQUIRED, None), _P),
        _verdict, lambda res: f"verdict {res.rec['verdict']}"),
    "sym-divisibility": (eval_sym_divisibility, None, (
        ("n", int, _REQUIRED, None), ("s", int, _REQUIRED, None), _P),
        _verdict, lambda res: f"verdict {res.rec['verdict']}"),
}
CLAIM_KINDS = tuple(sorted(name for name, row in EVALUATORS.items() if row[3]))


# argument wiring -------------------------------------------------------------


def _add_options(sub, params) -> None:
    sub.add_argument("--format", choices=("plain", "records"), default="plain")
    for name, convert, default, text in params:
        if default is _POSITIONAL:
            sub.add_argument(name, type=convert, help=text)
        elif convert is not None:
            required = default is _REQUIRED
            sub.add_argument(f"--{name}", type=convert, required=required,
                             default=None if required else default, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixspace",
        description="group and representation computations with exact "
                    "fixed-space bound checks")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, params, _, _) in EVALUATORS.items():
        if text is not None:
            _add_options(subs.add_parser(name, help=text), params)
    return parser


def main(argv=None) -> int:
    # what is loaded by now lives as long as the process: keep the cyclic
    # collector from traversing it again in a young collection (about 1 ms)
    gc.freeze()
    args = build_parser().parse_args(argv)
    evaluate, _, params, _, _ = EVALUATORS[args.command]
    try:  # `base`, no option, keeps its default
        res = evaluate(**{p[0]: getattr(args, p[0], p[2]) for p in params})
        _emit(res, args.format)
        return res.status
    except (OSError, KeyError, ValueError, matrep.Inconclusive) as exc:
        return _fail(_message(exc))


if __name__ == "__main__":
    sys.exit(main())
