"""Package-wide code conventions."""

import ast
from pathlib import Path

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
