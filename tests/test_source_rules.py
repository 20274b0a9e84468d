"""Source rules that no run of the benchmark can show.

The benchmark caps BLAS at one thread, so a suite op that calls BLAS runs
there as fast as without it, while a user, under numpy's default thread
pool, waits for the pool: on a shared 2-vCPU host one matrix product made
``cconvex suite`` up to about 4x slower for users than the benchmark
reported.  ROADMAP's standing rules require any BLAS call to be timed
in-process without that cap; no module of the package makes one."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cconvex"
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_uses(tree: ast.AST) -> list[str]:
    """Line and kind of each ``@``, each call of a BLAS-backed product and
    each reference to ``linalg`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: the @ operator")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in BLAS_CALLS:
                found.append(f"{node.lineno}: a call of {name}")
        if isinstance(node, ast.Attribute) and node.attr == "linalg" \
                or isinstance(node, ast.Name) and node.id == "linalg":
            found.append(f"{node.lineno}: linalg")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names += [alias.name for alias in node.names]
            if any("linalg" in name.split(".") for name in names):
                found.append(f"{node.lineno}: an import of linalg")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_blas(path):
    found = blas_uses(ast.parse(path.read_text()))
    assert found == [], (
        f"{path.name} uses BLAS ({'; '.join(found)}).  ROADMAP standing rule: the "
        "benchmark caps BLAS at one thread, so a BLAS call must be timed in-process "
        "without that cap, as users run cconvex; the package makes none.")


@pytest.mark.parametrize("source", [
    "c = a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.einsum('ij,jk', a, b)",
    "from numpy import matmul\nmatmul(a, b)", "np.linalg.norm(a)",
    "from numpy.linalg import solve", "from numpy import linalg", "import numpy.linalg",
])
def test_each_blas_use_is_found(source):
    assert len(blas_uses(ast.parse(source))) >= 1


def test_names_that_only_look_alike_pass():
    # a local array named ``inner`` (subdiff) and its methods are not BLAS
    assert blas_uses(ast.parse("inner = a - b\ninner.max()\nx = inner[0]")) == []


def polynomial_imports(tree: ast.AST) -> list[str]:
    """Line of each import that names ``numpy.polynomial`` or a module of it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(name.split(".")[:2] == ["numpy", "polynomial"] for name in names):
            found.append(f"{node.lineno}: an import of numpy.polynomial")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_numpy_polynomial(path):
    found = polynomial_imports(ast.parse(path.read_text()))
    assert found == [], (
        f"{path.name} imports numpy.polynomial ({'; '.join(found)}).  The package "
        "evaluates its polynomials with costs._poly, which matches polyval bit for bit "
        "without the import's start-up cost.")


@pytest.mark.parametrize("source", [
    "from numpy.polynomial import polynomial as npoly",
    "import numpy.polynomial.polynomial", "from numpy import polynomial",
    "from numpy.polynomial.polynomial import polyval",
])
def test_each_polynomial_import_is_found(source):
    assert len(polynomial_imports(ast.parse(source))) == 1


def test_import_leaves_numpy_polynomial_unloaded():
    code = "import sys, cconvex, cconvex.cli; print('numpy.polynomial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "False"
