"""Static guards for two package-wide invariants: exact arithmetic only
(no float literal, no float() call, no true division) and no dependency
outside the standard library (every absolute import is a stdlib module)."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "fixspace").glob("*.py"))


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
