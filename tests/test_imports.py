"""Static checks over the flipspec sources, and what a solve loads.

Every name a module imports is used in that module, every parameter of a
function or lambda is read in its body, no top-level function is defined in
two modules, every private top-level function is referenced somewhere in
the package, every public top-level function or class, and every public
method or property of such a class, is referenced in the package or a demo,
no module keeps an ``__all__`` list, the one CSV writer is the only code
that opens a file, no code calls an SVD (nor ``lstsq``, ``pinv`` or
``matrix_rank``, which run one inside): the one dense solver is the
symmetric eigensolver, ``np.take`` is called only in the one table gather
``operators._gather`` and ``np.eye`` nowhere, and the Lanczos breakdown
rule and the solver's NotSPDError raises sit only in ``krylov._lanczos``.
No linter ships with the package, so this scans the source with ``ast``.
``__init__.py`` is skipped: its imports are the package's re-exports.  An
ex2 solve and the dense ``spectrum``/``match`` path load no scipy module,
nor does ``verify`` without its oracles suite, and an ex3 solve no scipy
subpackage but ``scipy.sparse``: each scipy import adds its load time to
every cold ``flipspec table``, ``spectrum`` or ``verify`` run.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "flipspec").glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom x import a, b as c\nos.sep\nc()\n") == [
        (1, "math"), (3, "a")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter its function or lambda never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [(node.lineno, getattr(node, "name", "<lambda>"), a.arg)
                      for a in params if a.arg not in read]
    return sorted(found)


def test_scanner_flags_an_unread_parameter():
    source = ("def f(a, b: int, *args, c=1, **kw):\n    b = a\n    return lambda x, y: y\n\n"
              "def g(n):\n    def inner():\n        return n\n    return inner\n")
    assert unread_parameters(source) == [(1, "f", "args"), (1, "f", "b"), (1, "f", "c"),
                                         (1, "f", "kw"), (3, "<lambda>", "x")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def top_level_functions(sources: dict) -> dict:
    """Function name -> sorted list of the modules that define it at top level."""
    found = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                found.setdefault(node.name, []).append(module)
    return {name: sorted(mods) for name, mods in found.items()}


def duplicated_functions(sources: dict) -> dict:
    return {name: mods for name, mods in top_level_functions(sources).items() if len(mods) > 1}


def referenced_names(sources) -> set:
    """Every name read through ``ast.Name`` or ``ast.Attribute`` in the sources."""
    referenced = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced


def unreferenced_private_functions(sources: dict) -> list:
    referenced = referenced_names(sources.values())
    return sorted(name for name in top_level_functions(sources)
                  if name.startswith("_") and name not in referenced)


def public_definitions(source: str):
    """(qualified name, name) of each public top-level function and class,
    and of each public method and property of those classes."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


def unreached_public_names(sources: dict, demos=()) -> list:
    """Public definitions (``public_definitions``) named nowhere in the sources or the demos."""
    referenced = referenced_names([*sources.values(), *demos])
    return sorted(qualified for source in sources.values()
                  for qualified, name in public_definitions(source) if name not in referenced)


def test_scanners_flag_duplicates_and_dead_helpers():
    sources = {"a": "def _used():\n    pass\n\ndef _dead():\n    pass\n\ndef f():\n    _used()\n",
               "b": "def f():\n    return a._used\n"}
    assert duplicated_functions(sources) == {"f": ["a", "b"]}
    assert unreferenced_private_functions(sources) == ["_dead"]


def test_scanner_flags_unreached_public_names():
    sources = {"a": "class Used:\n    pass\n\nclass Dead:\n    pass\n\n"
                    "def g():\n    return Used()\n\ndef _h():\n    pass\n",
               "b": "def shown():\n    pass\n\ndef hidden():\n    pass\n"}
    demo = "import b\nb.shown()\n"
    assert unreached_public_names(sources, [demo]) == ["Dead", "g", "hidden"]


def test_scanner_flags_unreached_methods_and_properties():
    sources = {"a": "class C:\n    def used(self):\n        return self.size\n\n"
                    "    @property\n    def size(self):\n        return 1\n\n"
                    "    def dead(self):\n        pass\n\n    def _private(self):\n        pass\n\n"
                    "    def __len__(self):\n        return 1\n\n"
                    "class _Hidden:\n    def never(self):\n        pass\n",
               "b": "import a\na.C().used()\n"}
    assert unreached_public_names(sources) == ["C.dead"]


def package_sources() -> dict:
    return {p.name: p.read_text(encoding="utf-8") for p in SOURCES}


def export_lists(sources: dict) -> list:
    """Modules that assign ``__all__`` anywhere in their source."""
    return sorted(module for module, source in sources.items()
                  if any(isinstance(node, ast.Name) and node.id == "__all__"
                         and isinstance(node.ctx, ast.Store) for node in ast.walk(ast.parse(source))))


def test_scanner_flags_an_export_list():
    sources = {"a": "__all__ = ['f']\n", "b": "__all__: list = []\n", "c": "__all__ += ['g']\n",
               "d": "x = __all__ = 1\n", "e": "all_ = ['f']\nprint(__all__)\n"}
    assert export_lists(sources) == ["a", "b", "c", "d"]


def test_no_module_keeps_an_export_list():
    # the package's one export list is __init__.py's imports
    assert export_lists(package_sources()) == []


def test_no_function_defined_twice():
    assert duplicated_functions(package_sources()) == {}


def test_every_private_function_is_referenced():
    assert unreferenced_private_functions(package_sources()) == []


# flipbench/tracing.py wraps these by name, so they stay until the tracer
# drops them (ROADMAP items 1 and 7)
UNREACHED_BUT_TRACED = ["ToeplitzPreconditioner.apply_inverse_sqrt", "flip_map",
                        "fourier_coefficients"]


def test_every_public_name_is_reached_from_the_package_or_a_demo():
    demos = [p.read_text(encoding="utf-8") for p in DEMOS]
    assert unreached_public_names(package_sources(), demos) == UNREACHED_BUT_TRACED


def open_calls(sources: dict) -> list:
    """(module, enclosing top-level name or None) of every call to an ``open``."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) == "open"
                        or getattr(node.func, "attr", None) == "open"):
                    found.append((module, owner))
    return found


def test_scanner_flags_open_calls():
    sources = {"a": "def _write_csv(p):\n    with open(p) as fh:\n        pass\n\n"
                    "class C:\n    def save(self, p):\n        p.open('w')\n",
               "b": "import io\nio.open('x')\n"}
    assert open_calls(sources) == [("a", "_write_csv"), ("a", "C"), ("b", None)]


def test_only_the_csv_writer_opens_files():
    assert open_calls(package_sources()) == [("experiments.py", "_write_csv")]


# numpy's lstsq is LAPACK gelsd, and pinv and matrix_rank call svd themselves
SVD_CALLS = {"svd", "lstsq", "pinv", "matrix_rank"}


def svd_calls(sources: dict) -> list:
    """Modules that call a name in ``SVD_CALLS``, as an attribute (``np.linalg.svd``) or bare."""
    return sorted({module for module, source in sources.items()
                   for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
                   and SVD_CALLS & {getattr(node.func, k, None) for k in ("id", "attr")}})


def test_scanner_flags_svd_calls():
    sources = {"a": "import numpy as np\nnp.linalg.svd(x, compute_uv=False)\n",
               "b": "from scipy.linalg import svd\ndef f(x):\n    return svd(x)\n",
               "c": "import numpy as np\nsvd = np.linalg.eigvalsh\nnp.linalg.eigvalsh(x)\n",
               "d": "import numpy as np\nsol, *_ = np.linalg.lstsq(a, b, rcond=None)\n",
               "e": "from numpy.linalg import pinv\ndef f(x):\n    return pinv(x)\n",
               "f": "import numpy as np\nr = np.linalg.matrix_rank(a)\n",
               "g": "def f(apply_pinv, r):\n    return apply_pinv(r)\n"}
    assert svd_calls(sources) == ["a", "b", "d", "e", "f"]


def test_one_dense_solver():
    # every matrix the package splits is symmetric, so its singular values are |eigvalsh|
    assert svd_calls(package_sources()) == []


# every dense form is a copy of table entries through operators._gather, the one np.take,
# and every 0/1 matrix an index map: no closed-form copy built from np.eye beside them
GATHER_CALLS = {"take", "eye"}


def gather_calls(sources: dict) -> list:
    """(module, enclosing top-level name or None, name) of each call to a name in
    ``GATHER_CALLS``, as an attribute (``np.take``, ``a.take``) or bare."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    found += [(module, owner, name) for name in sorted(
                        GATHER_CALLS & {getattr(node.func, k, None) for k in ("id", "attr")})]
    return found


def test_scanner_flags_gather_calls():
    sources = {"a": "import numpy as np\ndef _gather(t, k):\n    return np.take(t, k)\n\n"
                    "class C:\n    def dense(self):\n        return np.eye(3)[::-1]\n",
               "b": "from numpy import eye\nY = eye(4)[::-1]\n",
               "c": "def f(a, take, eye_map):\n    return a.take([0]), take, a[eye_map]\n"}
    assert gather_calls(sources) == [("a", "_gather", "take"), ("a", "C", "eye"),
                                     ("b", None, "eye"), ("c", "f", "take")]


def test_one_table_gather():
    assert gather_calls(package_sources()) == [("operators.py", "_gather", "take")]


def lanczos_owners(source: str) -> list:
    """(top-level name, what) of each read of ``_BREAKDOWN`` and each ``raise NotSPDError``."""
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and node.id == "_BREAKDOWN"
                    and isinstance(node.ctx, ast.Load)):
                found.append((owner, "_BREAKDOWN"))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) == "NotSPDError":
                    found.append((owner, "NotSPDError"))
    return sorted(found, key=str)


def test_scanner_finds_the_breakdown_rule_and_spd_raises():
    source = ("_BREAKDOWN = 1e-14\n\ndef f(b):\n    if b < _BREAKDOWN:\n"
              "        raise NotSPDError('x')\n\ndef g():\n    raise NotSPDError\n\n"
              "def h():\n    raise OperatorError('y')\n\nTOL = 2 * _BREAKDOWN\n")
    assert lanczos_owners(source) == [("f", "NotSPDError"), ("f", "_BREAKDOWN"),
                                      ("g", "NotSPDError"), (None, "_BREAKDOWN")]


def test_the_lanczos_recurrence_lives_in_one_place():
    # minres and any later Lanczos user (quadrature, Ritz values) draw on _lanczos
    # for the breakdown rule and both <r, P^-1 r> checks instead of copying them
    source = (ROOT / "src" / "flipspec" / "krylov.py").read_text(encoding="utf-8")
    assert lanczos_owners(source) == [("_lanczos", "NotSPDError"), ("_lanczos", "NotSPDError"),
                                      ("_lanczos", "_BREAKDOWN")]


SOLVE_SCRIPT = """\
import json, sys
from flipspec import experiments as ex
from flipspec.krylov import flipped_solve
exp, pre, sizes = sys.argv[1], sys.argv[2], tuple(int(v) for v in sys.argv[3].split(","))
cfg = ex.ExperimentConfig(exp=exp, precond=pre, sizes=sizes)
f = ex.experiment_symbol(cfg, sizes)
p, _ = ex.build_preconditioner(cfg, f, sizes)
assert flipped_solve(f, sizes, ex.rhs_vector(cfg, sizes), p).converged
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(script, *args) -> list:
    """The scipy modules loaded by running script with args in a fresh interpreter."""
    src = str(SOURCES[0].parents[1])
    out = subprocess.run([sys.executable, "-c", script, *args], check=True,
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout.splitlines()[-1])


SPECTRUM_SCRIPT = """\
import json, sys
from flipspec import experiments as ex
out = sys.argv[1]
ex.run_spectrum(ex.ExperimentConfig(exp="ex1", sizes=(8, 8), out=out))
ex.run_spectrum(ex.ExperimentConfig(exp="ex2", precond="toepfr", sizes=(8, 8), out=out))
ex.run_spectrum(ex.ExperimentConfig(exp="ex3", precond="toepfr", sizes=(5, 5, 5), out=out))
ex.run_spectrum(ex.ExperimentConfig(exp="ex2", precond="p2beta", sizes=(8, 8), out=out))
ex.run_spectrum(ex.ExperimentConfig(exp="ex3", precond="circsum", sizes=(5, 5, 5), out=out))
ex.run_match(ex.ExperimentConfig(exp="ex2", sizes=(6, 8), out=out))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_spectrum_and_match_load_no_scipy(tmp_path):
    assert scipy_modules_after(SPECTRUM_SCRIPT, str(tmp_path)) == []


VERIFY_SCRIPT = """\
import json, sys
from flipspec import experiments as ex
cfg = ex.ExperimentConfig(exp="ex1", out=sys.argv[1])
assert ex.run_verify(cfg, ["ops", "structure", "hankel", "distribution"])["pass"]
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_verify_without_oracles_loads_no_scipy(tmp_path):
    # the oracles suite checks the matvec kernels, scipy's DIA one among them
    assert scipy_modules_after(VERIFY_SCRIPT, str(tmp_path)) == []


def test_ex2_solve_loads_no_scipy():
    assert scipy_modules_after(SOLVE_SCRIPT, "ex2", "p22", "10,10") == []


def test_ex3_solve_loads_only_scipy_sparse():
    # scipy's own root and private modules come with any subpackage
    loaded = scipy_modules_after(SOLVE_SCRIPT, "ex3", "circsum", "5,5,5")
    public = {m.split(".")[1] for m in loaded if "." in m} - {"version"}
    assert {name for name in public if not name.startswith("_")} == {"sparse"}
