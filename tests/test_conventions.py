"""Package-wide code conventions."""

import ast
import inspect
from pathlib import Path

from qgft import engine, fourier
from qgft.linalg import DEFAULT_TOL

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qgft"

# Every contraction in the package is a reshape or transpose followed by a
# matmul on C-contiguous operands (see the linalg module docstring), so its
# summation order does not depend on the caller's array layout.  np.einsum sums
# in layout order; a call that must stay is listed here as
# (file, function, reason).
EINSUM_ALLOWLIST: list[tuple[str, str, str]] = []


def einsum_calls(source: str) -> list[str]:
    """Names of the functions (dotted for nested ones, "<module>" at top
    level) that call einsum or einsum_path, once per call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("einsum", "einsum_path"):
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_einsum_detector_finds_calls():
    source = ("import numpy as np\nfrom numpy import einsum\n"
              "x = np.einsum('i->', y)\n"
              "class A:\n    def f(self):\n        return einsum('i->', y)\n"
              "def g():\n    return np.einsum_path('i->', y)\n")
    assert einsum_calls(source) == ["<module>", "A.f", "g"]


def test_no_einsum_in_the_package():
    allowed = {(file, function) for file, function, _ in EINSUM_ALLOWLIST}
    offenders = [(path.name, function)
                 for path in sorted(PACKAGE.glob("*.py"))
                 for function in einsum_calls(path.read_text())
                 if (path.name, function) not in allowed]
    assert offenders == []
    assert "np.einsum(" not in "".join(
        path.read_text() for path in PACKAGE.glob("*.py")
        if path.name not in {file for file, _, _ in EINSUM_ALLOWLIST})


# Every public check_* in engine and fourier is check_*(qg or mu[, rng][, tol]),
# with tol defaulting to DEFAULT_TOL.  A parameter outside that shape is listed
# here as (function, parameter, reason).
CHECK_EXTRA_PARAMETERS: list[tuple[str, str, str]] = []


def public_checks():
    for module in (engine, fourier):
        for name, fn in vars(module).items():
            if name.startswith("check_") and inspect.isfunction(fn) \
                    and fn.__module__ == module.__name__:
                yield name, fn


def test_every_check_has_the_one_signature():
    extras = {(fn, param) for fn, param, _ in CHECK_EXTRA_PARAMETERS}
    checked = set()
    for name, fn in public_checks():
        params = [p for p in inspect.signature(fn).parameters.values()
                  if (name, p.name) not in extras]
        names = [p.name for p in params]
        assert names[0] in ("qg", "mu"), name
        rest = names[2:] if names[1:2] == ["rng"] else names[1:]
        assert rest in ([], ["tol"]), name
        assert "samples" not in names, name
        by_name = {p.name: p for p in params}
        if "rng" in by_name:
            assert by_name["rng"].default is inspect.Parameter.empty, name
        if "tol" in by_name:
            assert by_name["tol"].default == DEFAULT_TOL, name
        checked.add(name)
    assert {"check_pentagon", "check_unitarity", "check_inversion", "check_plancherel",
            "check_pairing", "check_ft_pairing", "check_w_membership"} <= checked
    assert {fn for fn, _, _ in CHECK_EXTRA_PARAMETERS} <= checked
