"""Spans and counters around the public functions of each fixspace layer.

The tracer patches functions from outside the package: it replaces a
function on the module that defines it, on every other ``fixspace.*``
module that imported it by name (``from .perm import element_order``), or
a method on its class. Each call through a span wrapper appends one span
(name, start, end, parent index) to an in-memory list; counting wrappers
only bump a counter. ``uninstall`` puts every original back.

Self time of a span is its duration minus the durations of its direct
children, so nested spans (rref under fixed_space_dim under scott_check)
are not counted twice.
"""

import importlib
import sys
import time
from collections import Counter

# (module, class or None, attribute, span name)
SPAN_POINTS = [
    *(("fixspace.ff", None, name, "ff.poly") for name in (
        "poly_add", "poly_sub", "poly_scale", "poly_mul", "poly_divmod",
        "poly_mod", "poly_monic", "poly_gcd", "poly_pow_mod", "poly_eval",
        "poly_deriv", "poly_divides", "poly_is_irreducible",
        "squarefree_decomposition", "root_multiplicity", "poly_roots")),
    ("fixspace.linalg", None, "rref", "linalg.rref"),
    ("fixspace.linalg", None, "mat_mul", "linalg.matmul"),
    ("fixspace.linalg", None, "char_poly", "linalg.charpoly"),
    ("fixspace.perm", "PermGroup", "contains", "perm.sift"),
    ("fixspace.perm", "PermGroup", "random_element", "perm.random_element"),
    ("fixspace.perm", "PermGroup", "_build_chain", "perm.chain_build"),
    ("fixspace.perm", "PermGroup", "subgroup_order", "perm.subgroup_order"),
    ("fixspace.perm", "PermGroup", "conjugacy_classes", "perm.classes"),
    ("fixspace.matrep", "MatRep", "image", "matrep.image"),
    ("fixspace.matrep", "MatRep", "dual_image", "matrep.image"),
    ("fixspace.matrep", None, "fixed_space_dim", "matrep.fixdim"),
    ("fixspace.matrep", None, "module_fixed_dim", "matrep.fixdim"),
    ("fixspace.matrep", None, "module_dual_fixed_dim", "matrep.fixdim"),
    ("fixspace.matrep", None, "is_irreducible", "matrep.irreducible"),
    ("fixspace.gensearch", None, "find_triple", "gensearch.search"),
    ("fixspace.gensearch", None, "find_conjugate_pair", "gensearch.search"),
    ("fixspace.gensearch", None, "exhaustive_triple_search", "gensearch.search"),
    ("fixspace.gensearch", None, "verify_triple", "gensearch.verify"),
    ("fixspace.gensearch", None, "verify_pair", "gensearch.verify"),
    ("fixspace.bounds", None, "check_bound_theorems", "bounds.report"),
    ("fixspace.bounds", None, "min_semisimple_fixdim", "bounds.min_fixdim"),
    ("fixspace.bounds", None, "scott_check", "bounds.scott"),
    ("fixspace.bounds", None, "scott_suite", "bounds.suite"),
    ("fixspace.bounds", None, "sl_p_adjoint_check", "bounds.example"),
    ("fixspace.bounds", None, "extraspecial_free_check", "bounds.example"),
    ("fixspace.chartab", None, "character_table", "chartab.table"),
    ("fixspace.chartab", None, "triple_count", "chartab.triple_count"),
    ("fixspace.weights", None, "weight_multiset", "weights.freudenthal"),
]

# Hot leaf calls get a counter, not a span: a span per call would cost
# more than the call itself.
COUNT_POINTS = [
    ("fixspace.perm", None, "element_order", "perm.element_orders"),
    ("fixspace.rng", "SeedStream", "randrange", "rng.draws"),
]

# Field element operations; counted in a pass of their own because even a
# counting wrapper roughly doubles the cost of the linear algebra.
FIELD_OPS = [("fixspace.ff", "FieldCtx", name, "ff.elem_ops")
             for name in ("add", "sub", "neg", "mul", "inv")]


def _rref_cells(counts, args, result):
    rows = args[1]
    if rows:
        counts["linalg.rref_cells"] += len(rows) * len(rows[0])


def _image_entries(counts, args, result):
    counts["matrep.image_entries"] += len(result) ** 2


def _search_outcome(counts, args, result):
    if hasattr(result, "generation_tests"):   # an exhaustive sweep
        found = result.verdict == "ExistsWithWitness"
    else:
        counts["gensearch.attempts"] += result.attempts
        found = result.verdict == "Generates"
    counts["gensearch.certificates"] += int(found)


def _multiset_entries(counts, args, result):
    counts["weights.entries"] += len(result.entries)


ON_RETURN = {
    "rref": _rref_cells,
    "image": _image_entries,
    "dual_image": _image_entries,
    "find_triple": _search_outcome,
    "find_conjugate_pair": _search_outcome,
    "exhaustive_triple_search": _search_outcome,
    "weight_multiset": _multiset_entries,
}


class Tracer:
    """Installs wrappers, records spans and counts, and restores originals."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # wrappers ------------------------------------------------------------

    def _span(self, name, fn, on_return):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_return is not None:
                on_return(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # installation --------------------------------------------------------

    def install(self, spans=True, field_ops=False):
        """Patch the span and count points, or only the field-op counters."""
        points = []
        if spans:
            points += [(p, "span") for p in SPAN_POINTS]
            points += [(p, "count") for p in COUNT_POINTS]
        if field_ops:
            points += [(p, "count") for p in FIELD_OPS]
        for (modname, clsname, attr, name), kind in points:
            module = importlib.import_module(modname)
            owner = getattr(module, clsname) if clsname else module
            original = vars(owner)[attr]
            if kind == "span":
                wrapped = self._span(name, original, ON_RETURN.get(attr))
            else:
                wrapped = self._count(name, original)
            self._set(owner, attr, original, wrapped)
            if clsname is None:
                for alias_owner, alias in aliases(original):
                    self._set(alias_owner, alias, original, wrapped)

    def _set(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # summaries -----------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, secs = out.get(name, (0, 0.0))
            out[name] = (calls + 1, secs + (end - start) - inner)
        return out

    def generation_tests(self) -> int:
        """Subgroup-order computations made directly by a search, which
        are its generation tests; rechecks inside verify_* do not count."""
        spans = self.spans
        return sum(1 for name, _, _, parent in spans
                   if name == "perm.subgroup_order" and parent >= 0
                   and spans[parent][0] == "gensearch.search")

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def aliases(original):
    """(module, name) for every fixspace module attribute bound to original
    under any name other than its definition."""
    out = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "fixspace" or modname.startswith("fixspace.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                out.append((module, name))
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer numbers of one traced pass (counts and self seconds)."""
    st = tracer.self_times()
    c = tracer.counts

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def secs(*names):
        return sum(st.get(n, (0, 0.0))[1] for n in names)

    tests = tracer.generation_tests()
    return {
        "ff.poly_calls": calls("ff.poly"),
        "ff.poly_s": secs("ff.poly"),
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_cells": c["linalg.rref_cells"],
        "linalg.rref_s": secs("linalg.rref"),
        "linalg.matmul_calls": calls("linalg.matmul"),
        "linalg.matmul_s": secs("linalg.matmul"),
        "linalg.charpoly_s": secs("linalg.charpoly"),
        "perm.sift_calls": calls("perm.sift"),
        "perm.sift_s": secs("perm.sift"),
        "perm.random_elements": calls("perm.random_element"),
        "perm.random_element_s": secs("perm.random_element"),
        "perm.chain_builds": calls("perm.chain_build"),
        "perm.chain_build_s": secs("perm.chain_build"),
        "perm.element_orders": c["perm.element_orders"],
        "perm.classes_s": secs("perm.classes"),
        "rng.draws": c["rng.draws"],
        "matrep.image_calls": calls("matrep.image"),
        "matrep.image_entries": c["matrep.image_entries"],
        "matrep.image_s": secs("matrep.image"),
        "matrep.fixdim_calls": calls("matrep.fixdim"),
        "matrep.fixdim_s": secs("matrep.fixdim"),
        "matrep.irreducible_s": secs("matrep.irreducible"),
        "gensearch.attempts": c["gensearch.attempts"],
        "gensearch.generation_tests": tests,
        "gensearch.yield": c["gensearch.certificates"] / tests if tests else 0.0,
        "gensearch.self_s": secs("gensearch.search", "gensearch.verify"),
        "bounds.scott_checks": calls("bounds.scott"),
        "bounds.reports": calls("bounds.report"),
        "bounds.self_s": secs("bounds.report", "bounds.min_fixdim",
                              "bounds.scott", "bounds.suite", "bounds.example"),
        "chartab.tables": calls("chartab.table"),
        "chartab.table_s": secs("chartab.table"),
        "chartab.triple_counts": calls("chartab.triple_count"),
        "chartab.triple_count_s": secs("chartab.triple_count"),
        "weights.multisets": calls("weights.freudenthal"),
        "weights.entries": c["weights.entries"],
        "weights.freudenthal_s": secs("weights.freudenthal"),
    }
