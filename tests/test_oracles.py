"""The oracles' independence from the package code they check."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import resonantk

ORACLES = Path(__file__).with_name("oracles.py")


def _package_imports(source: str) -> set[tuple[str, str | None]]:
    """(module, name) for each name ``source`` imports from resonantk, name None for ``import m``.

    ``from resonantk import X`` counts as the module X with the name None
    when X is a submodule, as it imports all of it, and else as X from the
    module that defines it; a re-exported name that records no module
    counts as imported from ``resonantk`` itself.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):  # the imports inside functions too
        if isinstance(node, ast.Import):
            found |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "resonantk":
            for alias in node.names:
                obj = getattr(resonantk, alias.name)
                if isinstance(obj, types.ModuleType):
                    found.add((obj.__name__, None))
                else:
                    found.add((getattr(obj, "__module__", None) or "resonantk", alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module:
            found |= {(node.module, alias.name) for alias in node.names}
    return {(module, name) for module, name in found if module.split(".")[0] == "resonantk"}


def test_oracles_import_no_resonance_or_leapfrog_code():
    # The sweep and the certificate oracle check resonance and leapfrog
    # results; of the matching module the sweep takes is_central alone.
    imports = _package_imports(ORACLES.read_text(encoding="utf-8"))
    modules = {module for module, _ in imports}
    assert modules.isdisjoint({"resonantk.resonance", "resonantk.leapfrog"}), imports
    assert {name for module, name in imports if module == "resonantk.matching"} == {"is_central"}
    # the ring and fragment oracles take only what the docstring lists
    assert {name for module, name in imports if module == "resonantk.rings_fragments"} == {
        "PENTAGONS_ONLY",
        "Ring",
        "_check",
        "_edge_cycles",
    }
    # the root package reaches every module, so only its submodules may come from it
    assert "resonantk" not in modules, imports
    # the walk reaches the imports made inside functions
    assert {"resonantk.kernels", "resonantk.plane_graph"} <= modules


def test_root_imports_count_as_their_defining_module():
    assert _package_imports("from resonantk import resonance_order") == {
        ("resonantk.resonance", "resonance_order")
    }
    assert _package_imports("from resonantk import two_resonance_certificate, kernels") == {
        ("resonantk.leapfrog", "two_resonance_certificate"),
        ("resonantk.kernels", None),
    }
    assert _package_imports("import resonantk") == {("resonantk", None)}
