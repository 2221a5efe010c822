"""Statement coverage of src/fixspace under the tier-1 suite.

    PYTHONPATH=src python tests/stmtcov.py

Runs the tier-1 suite in this process, with the tier-1 flags, under a
sys.settrace line tracer (stdlib only), and exits 1, listing them, when a
statement of src/fixspace never executes. Exempt are the internal
consistency raises, ``raise AssertionError(...)`` and ``raise
LiftFailure(...)``, and the body of ``if __name__ == "__main__":``. A
statement counts as executed when a line event fires on one of its own
lines: all of a simple statement's lines, a compound statement's header
and decorators. Statements that compile to no bytecode, such as
docstrings, are not counted. Code a test runs in a child process is not
seen; the file has no test_ prefix, so pytest does not collect it.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(Path(os.path.realpath(ROOT / "src" / "fixspace")).glob("*.py"))
EXEMPT_RAISES = {"AssertionError", "LiftFailure"}


def code_lines(code) -> set:
    """The lines that carry bytecode in code and the code nested in it."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= code_lines(const)
    return out


def own_lines(node) -> range:
    """A simple statement's lines; a compound statement's decorators and
    header, up to its first body statement."""
    if not hasattr(node, "body"):
        return range(node.lineno, node.end_lineno + 1)
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(start, node.body[0].lineno)


def is_exempt(node) -> bool:
    return isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
        and isinstance(node.exc.func, ast.Name) and node.exc.func.id in EXEMPT_RAISES


def is_main_guard(node) -> bool:
    test = node.test if isinstance(node, ast.If) else None
    return isinstance(test, ast.Compare) and isinstance(test.left, ast.Name) \
        and test.left.id == "__name__" and any(
            isinstance(c, ast.Constant) and c.value == "__main__" for c in test.comparators)


def statements(path: Path) -> list:
    """(first line, own lines) of each counted statement of the file."""
    source = path.read_text(encoding="utf-8")
    executable = code_lines(compile(source, str(path), "exec"))
    out = []

    def walk(nodes):
        for node in nodes:
            if not isinstance(node, ast.stmt) or is_exempt(node):
                continue
            lines = own_lines(node)
            if executable.intersection(lines):
                out.append((node.lineno, lines))
            if is_main_guard(node):
                continue
            for field in ("body", "orelse", "finalbody"):
                walk(getattr(node, field, ()))
            for handler in getattr(node, "handlers", ()):
                walk(handler.body)

    walk(ast.parse(source, filename=str(path)).body)
    return out


def run_traced(args: list) -> tuple:
    """pytest's exit code for args, and the lines of SOURCES that ran."""
    files = {str(p): set() for p in SOURCES}
    seen = {}   # co_filename -> its set in files, or None

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = files.get(os.path.realpath(name))
        if seen[name] is None:
            return None
        seen[name].add(frame.f_lineno)
        return local

    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return code, files


def main() -> int:
    code, hit = run_traced(["-q", "-W", "error", "--continue-on-collection-errors",
                            str(ROOT / "tests")])
    missed = [f"{path.relative_to(ROOT)}:{first}"
              for path in SOURCES for first, lines in statements(path)
              if not hit[str(path)].intersection(lines)]
    for where in missed:
        print(f"never executed: {where}")
    print(f"stmtcov: {len(missed)} statements of src/fixspace never executed; "
          f"pytest exit code {int(code)}")
    return 1 if missed or code else 0


if __name__ == "__main__":
    sys.exit(main())
