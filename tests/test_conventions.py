"""Package-wide code conventions."""

import ast
import inspect
from pathlib import Path

from qgft import engine, fourier, models
from qgft.linalg import DEFAULT_TOL

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qgft"

# Every contraction in the package is a reshape or transpose followed by a
# matmul on C-contiguous operands (see the linalg module docstring), so its
# summation order does not depend on the caller's array layout.  np.einsum sums
# in layout order; a call that must stay is listed here as
# (file, function, reason).
EINSUM_ALLOWLIST: list[tuple[str, str, str]] = []


def scopes_where(source: str, matches) -> list[str]:
    """Names of the functions (dotted for nested ones, "<module>" at top
    level) holding a node for which matches(node) is true, once per node."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if matches(child):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def calls_to(source: str, names: tuple[str, ...]) -> list[str]:
    """The scopes of every call of a function or method with one of the names."""
    def matches(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")) in names
    return scopes_where(source, matches)


def einsum_calls(source: str) -> list[str]:
    """The scopes of every call of einsum or einsum_path."""
    return calls_to(source, ("einsum", "einsum_path"))


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
    # the checks of one identity on the full bases draw nothing; only the
    # slice-product laws still take a generator
    for fn in (engine.check_sharp_involution, fourier.check_inversion, fourier.check_plancherel,
               fourier.check_convolution, fourier.check_pairing, fourier.check_pairing_axioms,
               fourier.check_ft_pairing):
        assert list(inspect.signature(fn).parameters) == ["qg", "tol"], fn.__name__
    assert [name for name, fn in public_checks()
            if "rng" in inspect.signature(fn).parameters] == ["check_slice_product_laws"]


def test_group_model_oracles_take_the_model_alone():
    # the oracles compare the pair's tables on every basis pair, so they draw
    # nothing, and the sample counts of the draws are gone
    for fn in (models.convolution_oracle_deviation, models.pairing_oracle_deviation):
        assert list(inspect.signature(fn).parameters) == ["model"], fn.__name__
    assert not hasattr(models, "CONVOLUTION_SAMPLES")
    assert not hasattr(models, "PAIRING_SAMPLES")


# The Fourier and pairing tables contract W's first leg with a Haar vector
# through `engine.leg1_contraction`.  For a dense W it is a rank-one
# np.tensordot on W's own (n, n, n, n) view: routed through a slice family it
# would lay W out once more (n^4 entries), which raised the transform-stream
# benchmark's peak RSS from about 64 to 67 MB (2 vCPUs, numpy 2.4, OpenBLAS).
# A permutation W places n^2 entries instead.
# Every other contraction is a matmul (see the linalg module docstring).
TENSORDOT_ALLOWLIST: list[tuple[str, str, str]] = [
    ("engine.py", "leg1_contraction",
     "rank-one contraction of a dense W's view; a slice family would add an n^4 layout of W"),
]


def test_tensordot_only_in_the_allowed_tables():
    found = {(path.name, function)
             for path in sorted(PACKAGE.glob("*.py"))
             for function in calls_to(path.read_text(), ("tensordot",))}
    assert found == {(file, function) for file, function, _ in TENSORDOT_ALLOWLIST}


def rank_rtol_reads(source: str) -> list[str]:
    """The scopes that read or import RANK_RTOL (its assignment is not a read)."""
    def matches(node):
        if isinstance(node, ast.Name):
            return node.id == "RANK_RTOL" and not isinstance(node.ctx, ast.Store)
        if isinstance(node, ast.Attribute):
            return node.attr == "RANK_RTOL"
        if isinstance(node, ast.ImportFrom):
            return any(alias.name == "RANK_RTOL" for alias in node.names)
        return False
    return scopes_where(source, matches)


def test_rank_rtol_detector_finds_reads():
    source = ("from .linalg import RANK_RTOL\nRANK_RTOL = 1e-8\n"
              "def f(s):\n    return s > linalg.RANK_RTOL\n"
              "class A:\n    def g(self, s):\n        return RANK_RTOL * s\n")
    assert rank_rtol_reads(source) == ["<module>", "f", "A.g"]


def test_rank_rtol_is_read_only_by_linalg_rank():
    # every rank decision goes through linalg.rank, so its floor always applies
    reads = [(path.name, function)
             for path in sorted(PACKAGE.glob("*.py"))
             for function in rank_rtol_reads(path.read_text())]
    assert reads == [("linalg.py", "rank")]
