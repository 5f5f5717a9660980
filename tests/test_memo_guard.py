"""No unbounded memo on the simulation path.

A result must be a function of its job alone, and a finished run must
leave nothing behind, so the package keeps no process-lifetime memo.
The only ``functools`` caches allowed are ``maxsize=1`` probes that
answer one question once per process (the source fingerprint of the
result cache, whether worker processes can spawn).  Lazy state that a
run needs belongs on the instance that uses it.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _functools_cache_decorators(tree: ast.Module):
    """Yield ``(function name, decorator)`` for every ``lru_cache`` or
    ``cache`` decorator from :mod:`functools` in ``tree``."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in ("lru_cache", "cache")
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if isinstance(target, ast.Attribute):
                hit = (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "functools"
                    and target.attr in ("lru_cache", "cache")
                )
            else:
                hit = isinstance(target, ast.Name) and target.id in imported
            if hit:
                yield node.name, decorator


def _bounded_to_one(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    sizes = list(decorator.args[:1]) + [
        keyword.value for keyword in decorator.keywords if keyword.arg == "maxsize"
    ]
    return (
        len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and sizes[0].value == 1
    )


def test_functools_caches_are_once_per_process_probes():
    bounded, unbounded = set(), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, decorator in _functools_cache_decorators(tree):
            label = f"{path.relative_to(SRC).with_suffix('').as_posix()}.{name}"
            if _bounded_to_one(decorator):
                bounded.add(label)
            else:
                unbounded.append(f"{label} (line {decorator.lineno})")
    assert not unbounded, f"memo without maxsize=1: {unbounded}"
    # The walk really sees the package: both known probes are found.
    assert {
        "harness/cache.source_fingerprint",
        "harness/parallel.pool_available",
    } <= bounded
