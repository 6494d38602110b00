"""Every top-level import in the package is used, every export exists, no
module imports another package module's underscore-prefixed names, every
underscore-prefixed top-level name is read somewhere in the package, no
call reduces over ``axis=-1``, whose rounding depends on the memory layout,
and outside the probe's row-blocked MLP products no sum goes through a BLAS
product.

A stdlib-``ast`` stand-in for a linter's unused-import rule: a module-level
``import`` or ``from ... import`` binds names, and each must be read somewhere
in the module or be listed in its ``__all__``.  Conversely each name in
``__all__`` must be bound at the module's top level, or
``from module import *`` fails.
"""

import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "levyescape"


def _bound_names(node):
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    bound = [name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in _bound_names(node)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read - _exported(tree))


def _defined(tree):
    """Functions, classes and assigned names at a module's top level, imports aside."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return bound


def unbound_exports(source):
    tree = ast.parse(source)
    bound = _defined(tree).union(*(_bound_names(node) for node in tree.body
                                   if isinstance(node, (ast.Import, ast.ImportFrom))))
    return sorted(_exported(tree) - bound)


def unread_privates(sources):
    """Underscore-prefixed top-level names, dunders aside, that no module reads.

    A name is read where an ``ast.Name`` loads it or an ``ast.Attribute``
    names it, in any of ``sources``; a substring in a comment does not count.
    """
    trees = [ast.parse(source) for source in sources]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    read = {node.id for node in nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    private = {name for tree in trees for name in _defined(tree)
               if name.startswith("_") and not name.endswith("__")}
    return sorted(private - read)


def private_imports(source):
    """Underscore-prefixed names, dunders aside, imported from a package module."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == PACKAGE.name)
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__"))


def last_axis_reductions(source):
    """Calls of ``sum``, ``mean``, ``norm`` or ``reduce`` that pass ``axis=-1``, as line numbers.

    numpy adds a contiguous row of 8 or more terms in pairwise blocks and a
    column-major batch's rows in order, so such a row's bits depend on its
    layout; ``stable.row_sum`` adds every row in index order.
    """
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in (
                "sum", "mean", "norm", "reduce")
            and any(kw.arg == "axis" and ast.unparse(kw.value) == "-1" for kw in node.keywords)]


BLAS_REDUCTIONS = ("dot", "vdot", "inner", "matmul", "einsum", "tensordot", "norm")

# (function, use) pairs allowed in probe.py: the MLP's products, which run on
# row blocks small enough for OpenBLAS to keep on the calling thread, and the
# length each noise record reports
PROBE_BLAS = {("_forward_blocks", "@"), ("_gradient", "@"), ("noise_trajectory", "norm")}


def blas_reductions(source, allowed=()):
    """Uses of ``@`` and calls named in ``BLAS_REDUCTIONS``, as line numbers.

    A BLAS kernel picks its own order of summation, and so its bits, by CPU;
    ``stable.row_sum`` adds a row's terms in index order on every CPU.  A use
    is left out when (the top-level function or class holding it, ``"@"`` or
    the call's name) is in ``allowed``.
    """
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                use = "@"
            elif isinstance(node, ast.Call):
                use = getattr(node.func, "attr", getattr(node.func, "id", None))
            else:
                continue
            if use in ("@", *BLAS_REDUCTIONS) and (getattr(top, "name", None), use) not in allowed:
                found.append(node.lineno)
    return sorted(found)


def test_unused_import_check_catches_one():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math", "path"]
    assert unused_imports("from . import a\n__all__ = ['a']\n") == []


def test_no_unused_top_level_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_unbound_export_check_catches_one():
    source = "import math\nX: int = 1\nclass C: pass\ndef f(): pass\n"
    assert unbound_exports(source + "__all__ = ['math', 'X', 'C', 'f', 'gone']\n") == ["gone"]


def test_every_export_is_bound():
    found = {path.name: unbound_exports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_unread_private_check_catches_one():
    sources = ["_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
               "def _run_affine(): pass  # _run_affine\ndef _kept(): return _A\n",
               "import m\nclass _Gone: pass\nm._kept(); m._C = 4\n"]
    assert unread_privates(sources) == ["_B", "_Gone", "_run_affine"]


def test_no_unread_private_names():
    assert unread_privates([path.read_text() for path in sorted(PACKAGE.glob("*.py"))]) == []


def test_private_import_check_catches_one():
    source = ("from . import __version__\nfrom .dynamics import SdeState, _advance\n"
              "def f():\n    from levyescape.stable import _cms\n"
              "from numpy.linalg import _umath_linalg\n")
    assert private_imports(source) == ["_advance", "_cms"]


def test_no_private_imports_between_modules():
    found = {path.name: private_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_last_axis_reduction_check_catches_one():
    source = ("np.sum(x, axis=-1)\nx.mean(axis=-1)\nnp.linalg.norm(d, axis=-1)\n"
              "np.add.reduce(x, axis=-1)\nsum(x)\nx.sum(axis=1)\nnp.stack(x, axis=-1)\n"
              "x.sum(axis=-2)\n")
    assert last_axis_reductions(source) == [1, 2, 3, 4]


def test_no_last_axis_reductions():
    found = {path.name: last_axis_reductions(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_blas_reduction_check_catches_one():
    source = ("a @ b\nx @= y\nnp.dot(a, b)\na.dot(b)\nnp.linalg.norm(g)\n"
              "np.einsum('i,i', a, b)\nnp.vdot(a, b)\nnp.inner(a, b)\nnp.matmul(a, b)\n"
              "np.tensordot(a, b, 1)\nnp.linalg.solve(a, b)\nnp.linalg.eigvalsh(a)\n"
              "np.linalg.det(a)\nbasin.in_inner(x)\na * b\nrow_sum(a * b)\n")
    assert blas_reductions(source) == list(range(1, 11))
    # a dataset-wide product added to the probe outside its row blocks
    probe = ("def _gradient(x, w):\n    return x @ w\n"
             "def loss_value(x, w):\n    return x @ w\n"
             "def noise_trajectory(u, w):\n    return np.linalg.norm(u), u @ w\n"
             "class C:\n    def _gradient(self, x, w):\n        return x @ w\n")
    assert blas_reductions(probe, PROBE_BLAS) == [4, 6, 9]
    assert blas_reductions(probe) == [2, 4, 6, 6, 9]


def test_no_blas_reductions_outside_the_probe():
    found = {path.name: blas_reductions(path.read_text(),
                                        PROBE_BLAS if path.name == "probe.py" else ())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal alone adds about a second and 74 MB to start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    code = "import sys, levyescape.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_package_imports_leave_out_scipy():
    # scipy is a test and benchmark dependency only (pyproject's test extra)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    modules = sorted(f"levyescape.{path.stem}".removesuffix(".__init__")
                     for path in PACKAGE.glob("*.py"))
    code = f"import sys, {', '.join(modules)}; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert len(modules) == 8 and out.stdout.strip() == "False"


def test_geometry_and_compare_leave_out_scipy():
    # scipy.special alone adds about 0.4 s to start-up on a 2-vCPU x86 host; the
    # chunk kernel's scan and bound are plain numpy, where scipy.signal.lfilter
    # would add about 1.5 s to every fig3 or sweep run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    spectrum = ["--lambdas", "10 0.1", "--sigmas", "3 0.1", "--n-dirs", "500",
                "--out", os.devnull]
    fig3 = ["--a-values", "100000 500 150", "--noise-scale", "1.58e-4", "--gamma", "2.0",
            "--drift-scale", "5e-5", "--drift-substeps", "20", "--trials", "50",
            "--max-steps", "300", "--out", os.devnull]
    code = ("import sys; from levyescape.cli import main; "
            f"assert main(['geometry', *{spectrum!r}]) == 0; "
            f"assert main(['compare', *{spectrum!r}, '--trials', '4', '--max-steps', '50']) == 0; "
            f"assert main(['escape', *{fig3!r}]) == 0; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_out_random_and_thread_pool():
    # numpy.random costs about 15 ms to import and concurrent.futures about 6 ms;
    # only per-trial generators and the thread pool need them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys, levyescape.cli; from levyescape import dynamics; "
            "print(sorted({'numpy.random', 'concurrent.futures'} & set(sys.modules)), "
            "dynamics._pcg_jump_constants.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["[]", "0"]
