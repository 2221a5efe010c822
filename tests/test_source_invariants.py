"""Guards for nine package-wide invariants: exact arithmetic only (no
float literal, no float() call, no true division), no dependency outside
the standard library (every absolute import is a stdlib module), no code
in the package that only the tests reach, memoization through
functools.cache only (no module-level container that functions fill), no
state keyed by object identity (no id() call), a cold import of the
command line that loads neither dataclasses nor inspect, field tables
read by ff and linalg only, no FieldCtx element method called in linalg,
and no read of the environment (no os.environ, no open() in the locale's
encoding)."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fixspace").glob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
# read by the benchmark's workloads to build their inputs; not wrapped by
# the tracer, and no package code calls them
WORKLOAD_INPUTS = {("fixspace.bounds", None, "catalog")}


def violations(path):
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append(f"{where} float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            out.append(f"{where} float() call")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            out.append(f"{where} true division")
        elif isinstance(node, ast.Import):
            out += [f"{where} import {a.name}" for a in node.names
                    if a.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] not in sys.stdlib_module_names:
            out.append(f"{where} import from {node.module}")
    return out


def test_exact_arithmetic_and_stdlib_only():
    assert SOURCES, "package sources not found"
    found = [v for path in SOURCES for v in violations(path)]
    assert found == []


def definitions(tree):
    """(class or None, name, node) for every top-level function and class
    and every method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield node.name, item.name, item


def mentions(tree):
    """How often each name or attribute name is read in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def data_attributes(trees):
    """Names that some object carries as data: assigned as an attribute
    (self.dim = ...) or declared in a class body (record fields)."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                out.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign):
                        targets = [item.target]
                    elif isinstance(item, ast.Assign):
                        targets = item.targets
                    else:
                        continue
                    out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


def method_uses(tree, data):
    """How often each attribute name is used as a method in tree: called
    (x.m(...)), or read where no data attribute has that name. A bare name
    is a variable or a function, never a method."""
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   and (id(node) in calls or node.attr not in data))


def tracer_targets():
    """(module, class or None, attribute) the benchmark tracer wraps; the
    tracer file runs in a private namespace, perfbench is not imported."""
    ns = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), ns)
    return {point[:3] for point in ns["SPAN_POINTS"] + ns["COUNT_POINTS"] + ns["FIELD_OPS"]}


def is_property(node):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def unreached_definitions():
    """{(module, class or None, name): where} for every definition that no
    package code reaches."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    named = sum((mentions(tree) for tree in trees.values()), Counter())
    data = data_attributes(trees.values())
    used = sum((method_uses(tree, data) for tree in trees.values()), Counter())
    unreached = {}
    for path, tree in trees.items():
        module = f"fixspace.{path.stem}"
        for cls, name, node in definitions(tree):
            # the definition's own body does not count: recursion is no caller
            if cls is None or is_property(node):
                reached = named[name] > mentions(node)[name]
            else:
                reached = used[name] > method_uses(node, data)[name]
            if not reached:
                unreached[module, cls, name] = \
                    f"{path.name}:{node.lineno} {cls + '.' if cls else ''}{name}"
    return unreached


def test_every_definition_is_reached_from_the_package():
    workloads = WORKLOADS.read_text(encoding="utf-8")
    assert all(f".{name}(" in workloads for _, _, name in WORKLOAD_INPUTS)
    exempt = tracer_targets() | WORKLOAD_INPUTS
    assert [where for key, where in unreached_definitions().items()
            if key not in exempt] == []


def test_exempt_definitions_no_package_code_calls_are_pinned():
    """The tracer targets and workload inputs that no package code calls:
    only the tests and the benchmark reach them. A new one would be code
    kept for the tracer alone, so the set is pinned. _joint_fixed and
    MatRep.dual_image are reached only through these."""
    exempt = tracer_targets() | WORKLOAD_INPUTS
    assert exempt & set(unreached_definitions()) == {
        ("fixspace.bounds", None, "scott_check"),
        ("fixspace.bounds", None, "catalog"),
        ("fixspace.chartab", None, "triple_count"),
        ("fixspace.ff", None, "poly_eval"),
        ("fixspace.ff", None, "poly_divides"),
        ("fixspace.linalg", None, "mat_mul"),
        ("fixspace.matrep", None, "module_fixed_dim"),
        ("fixspace.matrep", None, "module_dual_fixed_dim"),
    }


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTATORS = {"append", "extend", "insert", "update", "setdefault", "add", "pop",
            "clear"}


def module_containers(tree):
    """Names bound at module level to a dict, list or set display."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, CONTAINERS):
            out.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return out


def mutated_names(node):
    """Names that node item-assigns, item-deletes or calls a mutating
    method on: x[k] = v, x[k] += v, del x[k], x.append(v), ..."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Subscript) and isinstance(sub.ctx, (ast.Store, ast.Del)) \
                and isinstance(sub.value, ast.Name):
            yield sub.value.id
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) \
                and sub.func.attr in MUTATORS and isinstance(sub.func.value, ast.Name):
            yield sub.func.value.id


def test_no_module_level_memo_containers():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        containers = module_containers(tree)
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.Lambda))]
        for fn in functions:
            for name in set(mutated_names(fn)) & set(containers):
                found.append(f"{path.name}:{containers[name]} {name}")
    assert sorted(set(found)) == []


def test_cold_cli_import_skips_dataclasses_and_inspect():
    """Result records are NamedTuples: importing the command line in a
    fresh interpreter without site loads neither module."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fixspace.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_no_identity_keyed_state():
    """No package code calls id(): state keyed by object identity outlives
    or aliases the object it describes."""
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "id"]
    assert found == []


def test_no_dataclasses_import():
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert found == []


def test_only_ff_and_linalg_read_the_field_tables():
    """The table layout is ff's; linalg's loops are its one other reader.
    Any other module does arithmetic through FieldCtx methods or linalg."""
    readers = {path.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "tables"}
    assert readers == {"ff.py", "linalg.py"}


def test_linalg_calls_no_field_element_method():
    """linalg's arithmetic is its own row loops, each reading F.p or the
    tables; a FieldCtx element method per entry is what they replace."""
    path = ROOT / "src" / "fixspace" / "linalg.py"
    calls = [f"{path.name}:{node.lineno} F.{node.func.attr}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in {"add", "sub", "neg", "mul", "inv", "pow",
                                    "frobenius"}]
    assert calls == []


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path):
    """os.environ and os.getenv reads, and open() calls that take the
    locale's encoding for want of an encoding= argument."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(a.name in ENVIRONMENT_READS for a in node.names)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"
            and all(k.arg != "encoding" for k in node.keywords)]


def test_no_environment_reads():
    """No package code reads os.environ or os.getenv, or decodes a file in
    the locale's encoding: a tuning constant such as perm.WALK_IDLE stays a
    constant, and a run depends on its arguments and files alone."""
    assert [r for path in SOURCES for r in environment_reads(path)] == []
