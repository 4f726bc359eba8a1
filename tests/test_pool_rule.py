"""The block pool's thread count is decided in ``core`` alone.

A pooled pass hands ``core.thread_scratch`` its part count and a lent
buffer, and runs on as many threads as the scratch it gets back; no
other module sizes threads itself.  So no package module other than
``core`` names ``pool_threads``, and none hands ``thread_scratch`` a
thread count: an argument built from ``pool_threads`` or
``pool_width``, or a name that speaks of threads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "srcortex"
SIZERS = {"pool_threads", "pool_width"}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _thread_sizing(source: str) -> list[str]:
    """Uses of ``pool_threads``, and ``thread_scratch`` calls given a thread count, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [f"imports pool_threads (line {node.lineno})"
                      for alias in node.names if alias.name == "pool_threads"]
        elif _name(node) == "pool_threads":
            found.append(f"pool_threads (line {node.lineno})")
        elif isinstance(node, ast.Call) and _name(node.func) == "thread_scratch":
            names = {_name(sub) for arg in node.args + [k.value for k in node.keywords]
                     for sub in ast.walk(arg)}
            if names & SIZERS or any(name and "thread" in name for name in names):
                found.append(f"thread_scratch given a thread count (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.stem != "core"),
                         ids=lambda p: p.name)
def test_only_core_sizes_the_pool(path):
    assert _thread_sizing(path.read_text()) == []


def test_the_check_sees_a_caller_that_sizes_threads():
    source = (
        "from .core import pool_threads, pool_width, thread_scratch\n"
        "a = thread_scratch(spare, pool_threads(blocks), (8,), dtype)\n"
        "threads = pool_width()\n"
        "b = thread_scratch(spare, threads, (8,), dtype)\n"
        "c = thread_scratch(spare, blocks, (8,), dtype)\n"
    )
    assert sorted(_thread_sizing(source)) == [
        "imports pool_threads (line 1)",
        "pool_threads (line 2)",
        "thread_scratch given a thread count (line 2)",
        "thread_scratch given a thread count (line 4)",
    ]
