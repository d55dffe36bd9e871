"""The boundary between the production routes and verify-all's checks and oracles.

Production modules compute each quantity by its closed form; the quadrature
oracles, nested ones included, live in ytensor.checks.  These tests keep it so.
"""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import pytest

import ytensor
from ytensor import checks, functionals, harness, quadrature, rsk
from ytensor.harness import ExperimentConfig

SRC = Path(ytensor.__file__).parent
PRODUCTION = ("functionals", "exact", "shape", "rsk", "diagrams")
LEMMAS = ("lemma_A", "lemma_I", "lemma_F3", "lemma_intIOmega")
MOVED = ("shape_curve",) + LEMMAS
MODULES = sorted(info.name for info in pkgutil.iter_modules(ytensor.__path__))


def syntax_tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def load_time_nodes(tree: ast.Module):
    """Every node that runs when the module loads: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def imported_modules(node: ast.AST) -> list[str]:
    """Dotted names an import statement may load, relative ones with a leading dot."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return []


def names(tree: ast.Module) -> set[str]:
    """Every identifier the module names: variables, attributes and imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def defined(tree: ast.Module) -> set[str]:
    """Names of the module's top-level functions and classes."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


class TestOneRoutePerQuantity:
    PROFILE_GRID = {"slopes", "x0", "scale"}

    def test_functionals_reads_profiles_only_through_corners(self):
        assert not self.PROFILE_GRID & names(syntax_tree("functionals"))
        assert self.PROFILE_GRID <= names(syntax_tree("diagrams"))  # the scan sees them

    def test_content_route_of_the_measure_is_an_oracle(self):
        assert "schur_weyl_via_contents" not in defined(syntax_tree("exact"))
        assert "_schur_weyl_via_contents" in defined(syntax_tree("checks"))

    def test_one_schur_weyl_batch_path(self):
        assert not {"_word_lengths", "rsk_shapes_from_words"} & defined(syntax_tree("rsk"))
        assert {"_draw_batch", "_row_lengths"} <= defined(syntax_tree("rsk"))


class TestBoundary:
    @pytest.mark.parametrize("module", PRODUCTION)
    def test_no_load_time_import_of_checks(self, module):
        loaded = [name for node in load_time_nodes(syntax_tree(module))
                  for name in imported_modules(node)]
        assert loaded
        assert not [name for name in loaded if "checks" in name.split(".")]

    @pytest.mark.parametrize("module", PRODUCTION)
    def test_never_names_nested_quadrature(self, module):
        assert "nested_tanh_sinh" not in names(syntax_tree(module))

    def test_the_scan_sees_the_oracles(self):
        # the same scans find checks' own nested quadrature and harness's import
        assert "nested_tanh_sinh" in names(syntax_tree("checks"))
        assert any("checks" in name.split(".")
                   for node in load_time_nodes(syntax_tree("harness"))
                   for name in imported_modules(node))

    def test_harness_names_no_private_attribute_of_functionals(self):
        private = [node.attr for node in ast.walk(syntax_tree("harness"))
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "functionals" and node.attr.startswith("_")]
        assert not private

    def test_production_routes_run_without_nested_quadrature(self, monkeypatch):
        class NestedCall(Exception):
            pass

        def refuse(*args, **kwargs):
            raise NestedCall

        monkeypatch.setattr(quadrature, "nested_tanh_sinh", refuse)
        monkeypatch.setattr(checks, "nested_tanh_sinh", refuse)
        with pytest.raises(NestedCall):  # the patch reaches the oracles
            list(checks.minimizer_gap(cs=(0.5,)))

        n, N = 100, 12
        samples = rsk.sample_schur_weyl(n, N, 0, 4)
        below = [lam for lam in samples if lam.height < N]
        assert below
        for lam in below:
            assert all(map(math.isfinite, functionals.prop41_identity(lam, N)))
        for lam in samples:
            assert math.isfinite(functionals.prop31_decompose(lam, N).residual)
        assert functionals.theta_shape(0.5) == 0.0625
        assert math.isfinite(functionals.theta_shape(2.0))
        cfg = ExperimentConfig(n=400, c=1.0, samples=2)
        assert harness.cmd_bounds(cfg).summary["count"] == 2
        assert harness.cmd_biane(cfg).summary["count"] == 2


class TestMovedNames:
    @pytest.mark.parametrize("name", LEMMAS)
    def test_lemma_is_one_object_under_every_name(self, name):
        assert getattr(ytensor, name) is getattr(functionals, name) is getattr(checks, name)

    def test_package_exports_shape_curve_from_checks(self):
        assert ytensor.shape_curve is checks.shape_curve

    def test_unknown_functionals_attribute_raises(self):
        with pytest.raises(AttributeError):
            functionals.no_such_name  # noqa: B018

    def test_exports_moved(self):
        assert not set(MOVED) & set(functionals.__all__)
        assert set(MOVED) <= set(checks.__all__)

    @pytest.mark.parametrize("module", MODULES)
    def test_every_exported_name_resolves(self, module):
        mod = importlib.import_module(f"ytensor.{module}")
        assert mod.__all__
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
