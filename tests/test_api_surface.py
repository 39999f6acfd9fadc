"""Every exported name of the library is used by the library itself, or is
kept on purpose for a stated reason.

A name listed in a module's ``__all__`` must exist and be referenced in
``src/phrmt`` outside its own definition.  Names that only the tests call
are allowed only on ``KEEP``, with the reason: the acceptance criterion that
calls them, or "oracle" for a reference implementation that the tests check
live code against.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import phrmt
from phrmt import cli

SRC = Path(phrmt.__file__).parent
MODULES = ("seeding", "specfun", "circulant", "stats", "pseudo2x2", "blockcirc", "walk")

KEEP = {
    "circulant.pseudo_orthogonality_residual": "criterion 7",
    "circulant.eigenvalues": "criterion 5",
    "stats.ks_two_sample": "criterion 4",
    "blockcirc.pseudo_orthogonality_residual_block": "criterion 7",
    "blockcirc.eigenvalues_block": "criterion 7",
    "walk.spectral_gap_mixing_time": "criterion 8",
    # the paper's statement of each family's pseudo-Hermiticity, which checks
    # the live family_matrix (see docs/decisions.md)
    "pseudo2x2.metric_of": "oracle",
    "pseudo2x2.diagonalizer": "oracle",
    "pseudo2x2.pseudo_hermiticity_residual": "oracle",
}

TREES = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def _definitions(tree: ast.Module, name: str) -> list[ast.AST]:
    """Top-level def, class or assignment statements that bind ``name``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            found.append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                found.append(node)
    return found


def _references(module: str, name: str) -> int:
    """Uses of ``name`` in the package, outside its own definition."""
    own = {id(n) for d in _definitions(TREES[module], name) for n in ast.walk(d)}
    count = 0
    for tree in TREES.values():
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if isinstance(node, ast.Name) and node.id == name:
                count += 1
            elif isinstance(node, ast.Attribute) and node.attr == name:
                count += 1
            elif isinstance(node, ast.alias) and node.name == name:
                count += 1
    return count


EXPORTS = [
    (module, name) for module in MODULES for name in importlib.import_module(f"phrmt.{module}").__all__
]


@pytest.mark.parametrize("module, name", EXPORTS, ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_export_exists_and_is_used(module, name):
    assert hasattr(importlib.import_module(f"phrmt.{module}"), name)
    if f"{module}.{name}" not in KEEP:
        assert _references(module, name) > 0, (
            f"{module}.{name} is used by nothing in the library; delete it, move it to "
            "tests/oracles.py, or keep it with a reason"
        )


@pytest.mark.parametrize("key", sorted(KEEP))
def test_keep_entry_is_needed(key):
    module, name = key.split(".")
    assert name in importlib.import_module(f"phrmt.{module}").__all__
    assert _references(module, name) == 0, f"{key} is used by the library; drop it from KEEP"
    assert KEEP[key] == "oracle" or KEEP[key].startswith("criterion ")


# Names the benchmark's tracer wraps by module attribute (ROADMAP aim 2,
# "Keep for the tracer"); a renamed one would leave its span silently empty.
TRACED = (
    "cli._dispatch",
    "cli._chunked_sample",
    "seeding.spawn_generators",
    "walk.rmt_decay_monte_carlo",
    "walk.sample_decay_moduli",
    "stats.cdf_cc",
    "stats.cdf_rc",
    "stats.cdf_generic",
    "circulant.pdf_cc",
    "circulant.pdf_rc",
    "circulant.pdf_generic",
)


@pytest.mark.parametrize("key", TRACED)
def test_traced_name_exists(key):
    module, name = key.split(".")
    assert callable(getattr(importlib.import_module(f"phrmt.{module}"), name, None)), key


def test_traced_write_takes_name_and_text_and_returns_the_output_path(tmp_path):
    params = list(inspect.signature(cli.OutputDir.write_text).parameters)
    assert params == ["self", "name", "text"]
    out = cli.OutputDir(tmp_path / "run")
    assert out.write_text("a.csv", "x\n") == tmp_path / "run" / "a.csv"
    out.publish()
    assert (tmp_path / "run" / "a.csv").read_text() == "x\n"
