"""Shared fixtures: catalog graphs built once per session.

Graph objects memoise expensive per-graph results (resonance decisions,
the pentagonal ring scan), so sharing instances across test modules keeps the
whole suite fast.  The acceptance module records one verdict per numbered
check into RESULTS; the terminal-summary hook prints them as a block.
"""

from __future__ import annotations

import pytest

from resonantk.catalog import catalog_graph, catalog_names, nanotube

# check number -> (description, passed)
RESULTS: dict[int, tuple[str, bool]] = {}


@pytest.fixture(scope="session")
def catalog():
    """All catalog entries by name, built once."""
    return {name: catalog_graph(name) for name in catalog_names()}


@pytest.fixture(scope="session")
def graphs(catalog):
    """The catalog's FullereneGraph objects by name."""
    return {name: entry.graph for name, entry in catalog.items()}


@pytest.fixture(scope="session")
def tubes():
    """Capped nanotubes for both cap kinds, 1..3 hexagon rings."""
    return {
        (cap, k): nanotube(cap, k) for cap in ("R5", "R6") for k in (1, 2, 3)
    }


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance checks")
    for number in sorted(RESULTS):
        description, passed = RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[acceptance] {number:2d}: {verdict} - {description}")
