"""The boundary between the production routes and verify-all's checks and oracles.

Production modules compute each quantity by its closed form; the quadrature
oracles, nested ones included, and the closed forms that only an oracle reads
live in ytensor.checks.  These tests keep it so.
"""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import pytest

import ytensor
from ytensor import checks, functionals, harness, quadrature, rsk
from ytensor.diagrams import Partition, profile
from ytensor.harness import ExperimentConfig

SRC = Path(ytensor.__file__).parent
PRODUCTION = ("functionals", "exact", "shape", "rsk", "diagrams")
LEMMAS = ("lemma_A", "lemma_I", "lemma_F3", "lemma_intIOmega")
# the public names each production module gave up to checks
MOVED = {"functionals": ("Curve", "shape_curve", "profile_minus_shape", "default_window") + LEMMAS,
         "shape": ("H_tilde_second",)}
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


def named_anywhere(tree: ast.Module) -> set[str]:
    """names, plus every function and class defined at any depth (methods
    too) and every string constant, such as an ``__all__`` entry."""
    found = names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def rng_constructions(tree: ast.Module) -> set[tuple[str, str]]:
    """(innermost enclosing function, or "" at module level, constructor) for
    each call that builds a numpy Generator or Philox, by attribute or by a
    name imported from numpy.random."""
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "numpy.random"
               for alias in node.names}
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else aliases.get(getattr(func, "id", ""))
            if name in {"Generator", "Philox", "default_rng"}:
                found.add((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def unserved_private(trees: list[ast.Module]) -> set[str]:
    """Private top-level names (one leading underscore) of the modules that no
    public name or dunder of theirs reads, directly or through the bodies of
    other top-level definitions.  Statements that bind no name, an ``if
    __name__`` block say, run at load and count as read; imports read nothing."""
    defs: dict[str, list[ast.AST]] = {"": []}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                bound = [""]
            for name in bound:
                defs.setdefault(name, []).append(node)
    private = {name for name in defs
               if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}
    todo = [name for name in defs if name not in private]
    reached = set(todo)
    while todo:
        for node in defs[todo.pop()]:
            new = (names(node) & defs.keys()) - reached
            reached |= new
            todo.extend(new)
    return private - reached


def callers(tree: ast.Module, callee: str) -> set[str]:
    """Innermost enclosing function (or "" at module level) of each call of
    callee, by name or by attribute."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and callee in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None)):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


class TestOneRoutePerQuantity:
    # the profile's slope grid and the helpers that only tests called
    GONE = {"slopes", "x0", "profile_from_slopes", "area_above_axis", "to_partition",
            "corner_csv", "omega_c_second",
            # the N-row carve-out of the variational identity and biane's grid
            "_check_admissible", "BIANE_GRID_STEP", "grid_step",
            # the Curve subclass that carried a profile into the penalty
            "_ProfileMinusShape",
            # ExperimentResult's JSON method, folded into its one caller
            "to_json",
            # dim_gl from a given hook product, folded into exact_dims
            "_dim_gl",
            # the Sobolev norm's padded window and its lemma I antiderivative,
            # replaced by f's support and lemma F3
            "_window", "_lemma_I_antiderivative",
            # the re-keyed shared Generator, replaced by rsk.trial_rng
            "_trial_streams",
            # tanh-sinh's second convergence check and member split, folded
            # into quadrature._integrate and _by_member
            "_converged", "_runs",
            # the long-word rule, whose lone word drew from its own Generator;
            # every batch takes the Philox pass, and the pool reads per_call == 1
            "_long_word",
            # the hull of f's support in the Sobolev norm, which is a
            # polarization without a window; checks.profile_minus_shape
            # forms it itself
            "_hull"}

    def test_no_module_names_what_is_gone(self):
        found = {module: sorted(self.GONE & named_anywhere(syntax_tree(module)))
                 for module in sorted(path.stem for path in SRC.glob("*.py"))}
        assert "__init__" in found and "diagrams" in found
        assert not {module: gone for module, gone in found.items() if gone}
        # the scan sees a dataclass field, a method, a loop variable and an __all__ entry
        seen = named_anywhere(ast.parse(
            '__all__ = ["corner_csv"]\n'
            "class Profile:\n    x0: int\n    def to_partition(self): pass\n"
            "def walk(p):\n    for slopes in p: pass\n"))
        assert {"corner_csv", "x0", "to_partition", "slopes"} <= seen

    def test_content_route_of_the_measure_is_an_oracle(self):
        assert "schur_weyl_via_contents" not in defined(syntax_tree("exact"))
        assert "_schur_weyl_via_contents" in defined(syntax_tree("checks"))

    def test_functionals_of_a_diagram_take_a_profile(self):
        # L - Omega_c as a generic Curve is an oracle's input, never a production one's
        assert {"Curve", "profile_minus_shape"} <= defined(syntax_tree("checks"))
        assert not {"Curve", "profile_minus_shape"} & defined(syntax_tree("functionals"))
        curve = checks.profile_minus_shape(profile(Partition((2, 1))), 1.0)
        for call in (lambda: functionals.theta_profile(curve),
                     lambda: functionals.rho(curve, 1.0),
                     lambda: functionals.sobolev_half_sq(curve, 1.0),
                     lambda: functionals.h_term(curve, 1.0)):
            with pytest.raises(TypeError, match="take a Profile"):
                call()

    def test_one_schur_weyl_batch_path(self):
        assert not {"_word_lengths", "rsk_shapes_from_words"} & defined(syntax_tree("rsk"))
        assert {"_draw_batch", "_row_lengths"} <= defined(syntax_tree("rsk"))

    def test_only_trial_rng_builds_a_generator(self):
        found = {(module, *call) for module in MODULES
                 for call in rng_constructions(syntax_tree(module))}
        assert found == {("rsk", "trial_rng", "Generator"), ("rsk", "trial_rng", "Philox")}
        # the scan sees a nested function, an alias and a call at module level
        assert rng_constructions(ast.parse(
            "from numpy.random import Philox as P\n"
            "def f():\n    def g():\n        return np.random.Generator(P(1))\n"
            "rng = np.random.default_rng(0)\n")) == {
                ("g", "Generator"), ("g", "Philox"), ("", "default_rng")}

    def test_sobolev_norm_takes_no_window(self):
        # theta(L) + theta(Omega_c) - 2 + the cross term: no window helper, and
        # lemma intIOmega's closed reduction is read by its verify-all oracle only
        tree = syntax_tree("functionals")
        norm = {name for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name in {"sobolev_half_sq", "_sobolev_kernel"} for name in names(node)}
        assert not {"_hull", "_int_I_omega_closed", "shape_support", "default_window"} & norm
        found = {(module, where) for module in MODULES
                 for where in callers(syntax_tree(module), "_int_I_omega_closed")}
        assert found == {("checks", "_lemma_intIOmega")}

    def test_lemma_intIOmega_oracle_reads_no_closed_form(self):
        # its left side, hk's integrand and the bulk series, stays independent
        # of the closed reduction's G, H~, J~, log moment and lemma I
        tree = syntax_tree("checks")
        oracle = set().union(*(names(node) for node in tree.body
                               if isinstance(node, ast.FunctionDef)
                               and node.name in {"_lemma_intIOmega", "_bulk_log_energy"}))
        assert "_bulk_log_energy" in oracle and "_int_I_omega_closed" in oracle
        assert not {"G", "H_tilde", "J_tilde", "_log_moment", "_lemma_I_closed", "lemma_I",
                    "_lemma_I", "nested_tanh_sinh", "_sobolev_logkernel_generic",
                    "_theta_curve"} & oracle

    def test_production_modules_hold_no_oracle_only_private(self):
        # a private name that only checks or the tests read belongs in checks,
        # beside the oracle that reads it; lemma A's and F3's closed forms
        # stay in functionals because theta_shape and the Sobolev kernel read them
        served = PRODUCTION + ("quadrature", "harness")
        assert unserved_private([syntax_tree(module) for module in served]) == set()
        assert {"_lemma_I_closed", "_log_moment", "_int_I_omega_closed"} <= defined(
            syntax_tree("checks"))
        # the scan sees a chain of private reads, an attribute, a method, a
        # dunder, a module-level constant and a load-time block; an orphan
        # chain is unserved in both links, even where another module imports it
        assert unserved_private([ast.parse(
            "def f():\n    return _g()\n"
            "def _g():\n    return mod._H\n"
            "_H = _I + 1\n_I = 2\n"
            "class K:\n    def m(self):\n        return _J\n"
            "_J = 3\n"
            "def __getattr__(name):\n    return _K\n"
            "_K = 4\n"
            "if __name__ == '__main__':\n    _L()\n"
            "def _L(): pass\n"
            "def _orphan():\n    return _M\n"
            "_M = 5\n"), ast.parse("from .a import _orphan\n")]) == {"_orphan", "_M"}

    def test_integrate_is_the_one_tanh_sinh_caller(self):
        found = {(module, where) for module in MODULES
                 for where in callers(syntax_tree(module), "_tanh_sinh_panels")}
        assert found == {("quadrature", "_integrate")}
        # the scan sees a nested function, an attribute and a call at module level
        assert callers(ast.parse("def f():\n    def g():\n        return q._tanh_sinh_panels()\n"
                                 "_tanh_sinh_panels()\n"), "_tanh_sinh_panels") == {"g", ""}


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
        for lam in rsk.sample_schur_weyl(n, N, 0, 4):
            assert all(map(math.isfinite, functionals.prop41_identity(lam, N)))
            assert math.isfinite(functionals.prop31_decompose(lam, N).residual)
        assert functionals.theta_shape(0.5) == 0.0625
        assert math.isfinite(functionals.theta_shape(2.0))
        cfg = ExperimentConfig(n=400, c=1.0, samples=2)
        assert harness.cmd_bounds(cfg).summary["count"] == 2
        assert harness.cmd_biane(cfg).summary["count"] == 2

    def test_variational_routes_run_without_quadrature(self, monkeypatch):
        class QuadratureCall(Exception):
            pass

        def refuse(*args, **kwargs):
            raise QuadratureCall

        monkeypatch.setattr(functionals, "tanh_sinh", refuse)
        with pytest.raises(QuadratureCall):  # the patch reaches alpha_constant, the one caller
            functionals.alpha_constant(0.5)

        for n, N in [(100, 12), (64, 2)]:  # c = 0.83 and 4, N-row diagrams among them
            c = math.sqrt(n) / N
            for lam in rsk.sample_schur_weyl(n, N, 0, 4):
                assert math.isfinite(functionals.sobolev_half_sq(profile(lam), c))
                assert all(map(math.isfinite, functionals.prop41_identity(lam, N)))
                assert math.isfinite(functionals.prop31_decompose(lam, N).residual)

    def test_only_alpha_constant_names_tanh_sinh(self):
        callers = {node.name for node in ast.walk(syntax_tree("functionals"))
                   if isinstance(node, ast.FunctionDef)
                   and "tanh_sinh" in names(ast.Module(body=node.body, type_ignores=[]))}
        assert callers == {"alpha_constant"}


class TestMovedNames:
    @pytest.mark.parametrize("name", LEMMAS)
    def test_lemma_is_one_object_under_every_name(self, name):
        assert getattr(ytensor, name) is getattr(functionals, name) is getattr(checks, name)

    def test_package_exports_shape_curve_from_checks(self):
        assert ytensor.shape_curve is checks.shape_curve
        assert ytensor.profile_minus_shape is checks.profile_minus_shape

    def test_unknown_functionals_attribute_raises(self):
        with pytest.raises(AttributeError):
            functionals.no_such_name  # noqa: B018

    def test_exports_moved(self):
        for module, moved in MOVED.items():
            assert not set(moved) & set(importlib.import_module(f"ytensor.{module}").__all__)
            assert not set(moved) & defined(syntax_tree(module))
            assert set(moved) <= set(checks.__all__)

    @pytest.mark.parametrize("module", MODULES)
    def test_every_exported_name_resolves(self, module):
        mod = importlib.import_module(f"ytensor.{module}")
        assert mod.__all__
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


class TestOraclesBatch:
    def test_warm_verify_all_pass_makes_few_tanh_sinh_calls(self, monkeypatch):
        # The lemmas integrate the 28 single integrals of the c grid in one
        # call and make no nested call; minimizer_gap makes one nested call
        # per c, each an outer call and its inner ones (9 calls in all).
        harness.cmd_verify_all()
        calls, nodes = [], []
        panels_tanh_sinh = quadrature._tanh_sinh_panels

        def spy(f, lo, hi, atol, args=()):
            calls.append(atol)

            def counted(x, *rest):
                nodes.append(x.size)
                return f(x, *rest)

            return panels_tanh_sinh(counted, lo, hi, atol, args)

        monkeypatch.setattr(quadrature, "_tanh_sinh_panels", spy)
        harness.cmd_verify_all()
        assert len(calls) <= 12
        assert sum(nodes) == 58_432

    @pytest.mark.parametrize("name", LEMMAS)
    def test_grid_batch_matches_each_lemma_alone(self, name, verify_all_report):
        args = {"lemma_A": lambda c, a, b: (c,),
                "lemma_I": lambda c, a, b: (c, 0.5 * c + 1.2, a, b),
                "lemma_F3": lambda c, a, b: (c, 0.3),
                "lemma_intIOmega": lambda c, a, b: (c, a, b)}
        recs = [ch for ch in verify_all_report["checks"] if ch["test"] == name]
        assert len(recs) == 7
        for ch in recs:
            c = ch["params"]["c"]
            assert getattr(checks, name)(*args[name](c, *checks.default_window(c))) == (
                ch["lhs"], ch["rhs"])
