"""The model is dispatched in three functions of ``dynamics`` and set up in one.

The two models share one evolution and differ only in the interaction,
so inside ``dynamics`` only ``_interaction`` (which builds either
model's evaluation), ``lhe_energy`` (defined for LHE alone) and
``run_model`` (whose guard differs by model) read ``.model`` or name
``WC`` or ``LHE``.  And ``_interaction`` is the one function in the
package that forms the forcing and the LHE fidelity constant: no other
calls ``_forcing`` or ``_fidelity_constant``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "srcortex"
DISPATCHERS = {"_interaction", "lhe_energy", "run_model"}
MODEL_NAMES = {"WC", "LHE"}
SET_UP = {"_forcing", "_fidelity_constant"}


def _scopes(source: str):
    """(name, node) of each top-level statement: a function, a method, or the module."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                named = isinstance(item, ast.FunctionDef)
                yield (f"{node.name}.{item.name}" if named else node.name), item
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node
        else:
            yield "<module>", node


def _model_reads(source: str) -> list[tuple[str, int]]:
    """(scope, line) of each read of ``.model`` or name ``WC``/``LHE`` outside the dispatchers."""
    found = set()
    for scope, tree in _scopes(source):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "model"
                    or isinstance(node, ast.Name) and node.id in MODEL_NAMES):
                found.add((scope, node.lineno))
    return sorted(hit for hit in found if hit[0] not in DISPATCHERS)


def _set_up_calls(source: str, module: str) -> list[tuple[str, int]]:
    """(scope, line) of each call of ``_forcing`` or ``_fidelity_constant`` but ``_interaction``'s."""
    found = []
    for scope, tree in _scopes(source):
        if (module, scope) == ("dynamics", "_interaction"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in SET_UP:
                    found.append((scope, node.lineno))
    return sorted(found)


def test_only_three_dynamics_functions_dispatch_the_model():
    assert _model_reads((PACKAGE / "dynamics.py").read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_evaluation_forms_the_forcing_and_the_constant(path):
    assert _set_up_calls(path.read_text(), path.stem) == []


def test_the_checks_see_a_second_dispatch_and_set_up():
    source = (
        "def model_drift(a, cfg):\n"
        "    if cfg.model == LHE:\n"
        "        c = _fidelity_constant(cfg, a0, mu)\n"
        "    return _interaction(cfg, prop, dynamics._forcing(cfg, a0, mu), c)(a)\n"
        "class Pair:\n"
        "    def step(self):\n"
        "        return WC\n"
        "def _interaction(cfg, prop, a0, mu):\n"
        "    return _forcing(cfg, a0, mu), cfg.model == WC\n"
        "FORCING = _forcing(CFG, A0, MU)\n"
    )
    assert _model_reads(source) == [("Pair.step", 7), ("model_drift", 2)]
    assert _set_up_calls(source, "dynamics") == [
        ("<module>", 10), ("model_drift", 3), ("model_drift", 4)]
    assert ("_interaction", 9) in _set_up_calls(source, "experiment")
