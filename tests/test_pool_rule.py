"""The block pool's thread count is decided in ``core`` alone.

A blocked pass is one ``core.run_blocks`` call, handed its size and a
lent buffer, and runs on as many threads as that buffer holds scratch
arrays; no other module sizes threads or carves scratch itself.  So no
package module other than ``core`` names ``pool_threads`` or
``thread_scratch``, none other than ``core`` and ``heat`` (whose mode
product runs a part per piece) names ``run_parts``, and none hands
``thread_scratch`` a thread count: an argument built from
``pool_threads`` or ``pool_width``, or a name that speaks of threads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "srcortex"
SIZERS = {"pool_threads", "pool_width"}
# core's pool internals, by name without a leading underscore, and the
# other modules that may name them
INTERNALS = {"thread_scratch": set(), "run_parts": {"heat"}}


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


def _pool_internals(source: str, module: str) -> list[str]:
    """Names of ``core``'s pool internals that ``module`` may not name, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = [_name(node)]
        for name in names:
            allowed = INTERNALS.get(name.lstrip("_")) if name else None
            if allowed is not None and module not in allowed:
                found.append(f"{name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.stem != "core"),
                         ids=lambda p: p.name)
def test_only_core_carves_scratch_and_runs_parts(path):
    assert _pool_internals(path.read_text(), path.stem) == []


def test_the_check_sees_a_module_that_carves_scratch_or_runs_parts():
    source = (
        "from .core import run_blocks, run_parts, thread_scratch\n"
        "scratch = core._thread_scratch(spare, blocks, (8,), dtype)\n"
        "run_parts(block, blocks, len(scratch))\n"
        "run_blocks(block, size, spare, 1)\n"
    )
    assert sorted(_pool_internals(source, "dynamics")) == [
        "_thread_scratch (line 2)",
        "run_parts (line 1)",
        "run_parts (line 3)",
        "thread_scratch (line 1)",
    ]
    assert sorted(_pool_internals(source, "heat")) == [
        "_thread_scratch (line 2)",
        "thread_scratch (line 1)",
    ]
