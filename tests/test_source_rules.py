"""Source rules that no run of the benchmark can show.

The benchmark caps BLAS at one thread, so a suite op that calls BLAS runs
there as fast as without it, while a user, under numpy's default thread
pool, waits for the pool: on a shared 2-vCPU host one matrix product made
``cconvex suite`` up to about 4x slower for users than the benchmark
reported.  ROADMAP's standing rules require any BLAS call to be timed
in-process without that cap; no module of the package makes one.

Each output format has one writer, so a file's bytes have one source:
every CSV goes through ``grids.write_csv``, every JSON file through
``cli._dump_json``, and no other function opens a file for writing."""

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


# the one writer of each output format, and the writes each may make
WRITERS = {("grids.py", "write_csv"): {"an open for writing", "csv.writer"},
           ("cli.py", "_dump_json"): {"an open for writing"}}


def _writes_mode(call: ast.Call) -> bool:
    """Whether an ``open`` call's mode, its ``mode`` keyword or else the
    argument after the file (the first argument of a method such as
    ``Path.open``), may write: it holds w, a, x or +, or is not a literal."""
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        method = isinstance(call.func, ast.Attribute) and not (
            isinstance(call.func.value, ast.Name) and call.func.value.id == "io")
        modes = call.args[0:1] if method else call.args[1:2]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes)


def file_writes(tree: ast.AST) -> list[tuple[str, int, str]]:
    """Enclosing function, line and kind of each file write in ``tree``: an
    ``open`` that may write, a ``csv.writer`` or ``csv.DictWriter``, a
    ``json.dump`` and an import of one of them, and a ``write_text``,
    ``write_bytes``, ``tofile`` or ``savetxt`` call."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        kind = None
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            owner = func.value.id if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) else None
            if name == "open" and _writes_mode(node):
                kind = "an open for writing"
            elif (owner, name) in (("csv", "writer"), ("csv", "DictWriter")):
                kind = "csv.writer"
            elif (owner, name) == ("json", "dump"):
                kind = "json.dump"
            elif name in ("write_text", "write_bytes", "tofile", "savetxt"):
                kind = f"a call of {name}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
            if {a.name for a in node.names} & {"writer", "DictWriter", "dump"}:
                kind = f"an import of a {node.module} writer"
        if kind:
            found.append((where, node.lineno, kind))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_writer_per_format(path):
    found = [f"{line}: {kind} in {where or 'the module'}"
             for where, line, kind in file_writes(ast.parse(path.read_text()))
             if kind not in WRITERS.get((path.name, where), ())]
    assert found == [], (
        f"{path.name} writes a file itself ({'; '.join(found)}).  Every CSV goes "
        "through grids.write_csv and every JSON file through cli._dump_json, so each "
        "format has one writer.")


@pytest.mark.parametrize("module, where", sorted(WRITERS))
def test_the_writers_make_their_writes(module, where):
    found = file_writes(ast.parse((SRC / module).read_text()))
    assert {kind for w, _, kind in found if w == where} == WRITERS[module, where]


@pytest.mark.parametrize("source", [
    "open(p, 'w')", "open(p, mode='a')", "open(p, 'xb')", "open(p, 'r+')", "open(p, m)",
    "with open(p, 'w') if p else nullcontext() as fh: pass", "io.open(p, 'w')",
    "Path(p).open('w')", "csv.writer(fh)", "csv.DictWriter(fh, names)",
    "from csv import writer", "json.dump(v, fh)", "from json import dump",
    "p.write_text(s)", "p.write_bytes(b)", "a.tofile(p)", "np.savetxt(p, a)",
])
def test_each_file_write_is_found(source):
    assert len(file_writes(ast.parse(source))) == 1


def test_reads_and_texts_pass():
    source = ("open(p)\nopen(p, 'rb')\nopen(p, newline='')\nopen('wax.csv')\n"
              "io.open(p)\nPath('wax.csv').open()\ncsv.reader(fh)\njson.dumps(v)\n"
              "json.load(fh)\nfrom json import dumps")
    assert file_writes(ast.parse(source)) == []


def test_a_write_names_its_function():
    source = "class A:\n    def f(self):\n        open(p, 'w')\n"
    assert file_writes(ast.parse(source)) == [("A.f", 3, "an open for writing")]
