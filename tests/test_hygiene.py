"""Source hygiene: every name a lagflow module or test file imports is used
in it, only the FFT layer calls a numpy or scipy transform or loads or
calls scipy's pocketfft kernels, only the FFT layer and fields (which owns
the wavevectors) call fftfreq or rfftfreq, the weights and Lorentz checks
take an evaluated field rather than transforming one themselves, only
forcing.time_grid turns a time span and a step into a step count, the
weights make no matrix product, no caller wraps a position it hands to a
drift or to the trilinear kernel, which wraps, only the pipeline forks a
process, the binary writers make no bytes copy, integrate_flow stacks no
list of saves, the advect stage collects no ensemble of them, the solver,
weights and flow take no whole gradient, no module but the pipeline
defines or returns a verdict, and a run imports neither scipy.integrate
nor scipy.optimize nor the scipy.fft package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lagflow"
MODULES = sorted(SRC.glob("*.py"))


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # forward references written as strings, e.g. -> "ParticleEnsemble"
    for note in annotations(tree):
        used |= {node.value for node in ast.walk(note)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert len(MODULES) >= 13


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    source = ("import math\nfrom os import path, sep\nfrom x import Y\n"
              "def f(a: 'Y') -> str:\n    return sep + 'path'\n")
    assert unused_imports(source) == ["math (line 1)", "path (line 2)"]


# ---------------------------------------------------------------------------
# one FFT layer: only lagflow.fft calls a transform of numpy or scipy, or
# loads or calls scipy's compiled pocketfft kernels

FFT_LAYER = "fft.py"
TRANSFORMS = {"fft", "ifft", "fftn", "ifftn", "rfftn", "irfftn"}
FFT_MODULES = {("numpy", "fft"), ("scipy", "fft"), ("scipy", "fftpack")}
KERNEL = "pocketfft"
KERNEL_TRANSFORMS = {"r2c", "c2r", "c2c"}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def kernel_uses(source: str) -> list:
    """References to scipy's pocketfft kernels in source, as 'name (line n)':
    a module name or path that names pocketfft, imported or written as a
    string (which loading it by file location needs), as 'pocketfft', and
    each r2c, c2r or c2c attribute or name, as 'pocketfft.r2c' and so on."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_TRANSFORMS:
            found.append(f"{KERNEL}.{node.attr} (line {node.lineno})")
            continue
        elif isinstance(node, ast.Name) and node.id in KERNEL_TRANSFORMS:
            found.append(f"{KERNEL}.{node.id} (line {node.lineno})")
            continue
        else:
            continue
        if any(KERNEL in name for name in names):
            found.append(f"{KERNEL} (line {node.lineno})")
    return sorted(set(found))


def transform_uses(source: str, names=TRANSFORMS) -> list:
    """numpy/scipy FFT-module functions in names (the transforms by default)
    referenced in source, and with the transforms also every use of the
    pocketfft kernels (kernel_uses), as 'name (line n)'."""
    tree = ast.parse(source)
    bound = {}      # local name -> dotted module path it stands for
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    bound[root] = root
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)):
            parts = _dotted(node)
            if parts is None or parts[0] not in bound:
                continue
            path = bound[parts[0]].split(".") + parts[1:]
            if tuple(path[:-1]) in FFT_MODULES and path[-1] in names:
                found.append(f"{'.'.join(path)} (line {node.lineno})")
    if names is TRANSFORMS:
        found += kernel_uses(source)
    return sorted(set(found))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != FFT_LAYER],
                         ids=lambda p: p.name)
def test_transforms_only_in_fft_layer(path):
    assert transform_uses(path.read_text()) == []


def test_fft_layer_uses_transforms():
    """The layer loads the pocketfft module and its transforms are the
    kernels' r2c and c2r."""
    uses = {use.split(" ")[0] for use in transform_uses((SRC / FFT_LAYER).read_text())}
    assert {KERNEL, f"{KERNEL}.r2c", f"{KERNEL}.c2r"} <= uses


def test_detects_transform_uses():
    source = ("import numpy as np\nimport scipy.fft\nfrom numpy.fft import ifftn\n"
              "from scipy import fft as sf\nfrom . import fft\n"
              "a = np.fft.fftn(x)\nb = scipy.fft.irfftn(y)\nc = ifftn(z)\n"
              "d = sf.rfftn(w)\ne = np.fft.rfftfreq(8)\nf = fft.forward(x)\n")
    assert transform_uses(source) == ["numpy.fft.fftn (line 6)", "numpy.fft.ifftn (line 8)",
                                      "scipy.fft.irfftn (line 7)", "scipy.fft.rfftn (line 9)"]


def test_detects_kernel_uses():
    source = ("import importlib\nfrom scipy.fft._pocketfft import pypocketfft as pf\n"
              "m = importlib.import_module('scipy.fft._pocketfft.pypocketfft')\n"
              "a = pf.r2c(x, (0, 1, 2), True, 2, None, 1)\nb = m.c2r(c, (0,), 8)\n"
              "e = c2c(y)\nd = spec.r2cx\nname = 'rfftn'\n")
    assert transform_uses(source) == ["pocketfft (line 2)", "pocketfft (line 3)",
                                      "pocketfft.c2c (line 6)", "pocketfft.c2r (line 5)",
                                      "pocketfft.r2c (line 4)"]
    assert transform_uses(source, FREQS) == []


# ---------------------------------------------------------------------------
# one spectral layout: its mode numbers come from lagflow.fields

FREQ_OWNERS = {FFT_LAYER, "fields.py"}
FREQS = {"fftfreq", "rfftfreq"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in FREQ_OWNERS],
                         ids=lambda p: p.name)
def test_mode_numbers_only_in_fields(path):
    assert transform_uses(path.read_text(), FREQS) == []


def test_detects_frequency_uses():
    source = ("import numpy as np\nfrom scipy.fft import rfftfreq\n"
              "m = np.fft.fftfreq(8)\nz = rfftfreq(8)\nk = np.fft.fftn(x)\n")
    assert transform_uses(source, FREQS) == ["numpy.fft.fftfreq (line 3)",
                                             "scipy.fft.rfftfreq (line 4)"]


# ---------------------------------------------------------------------------
# one evaluated field: weights and lorentz read fields.EvaluatedField and
# never transform a field to the nodes themselves

EVALUATIONS = {"to_real", "gradient"}
EVALUATED_READERS = ("weights.py", "lorentz.py")


def evaluation_imports(source: str) -> list:
    """to_real or gradient taken from lagflow.fields in source, imported by
    name or read off the imported module, as 'name (line n)'."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if (node.module or "").split(".")[-1] == "fields":
            found += [f"{a.name} (line {node.lineno})" for a in node.names
                      if a.name in EVALUATIONS]
        else:
            modules |= {a.asname or a.name for a in node.names if a.name == "fields"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr in EVALUATIONS):
            found.append(f"{node.attr} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("name", EVALUATED_READERS)
def test_no_own_evaluation(name):
    assert evaluation_imports((SRC / name).read_text()) == []


def test_detects_evaluation_imports():
    source = ("from .fields import Grid3, gradient\nfrom lagflow.fields import to_real as tr\n"
              "from . import fields\nx = fields.to_real(F)\ny = fields.sample_spectral(F, p)\n")
    assert evaluation_imports(source) == ["gradient (line 1)", "to_real (line 2)",
                                          "to_real (line 4)"]


# ---------------------------------------------------------------------------
# one time grid: a step count round(T / dt) is computed only by
# forcing.time_grid, which the solver and every Lagrangian layer step on

STEP_COUNTERS = {"forcing.py"}


def step_counts(source: str) -> list:
    """Calls of the builtin round on a quotient, as 'line n'."""
    return sorted(f"line {node.lineno}" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "round" and node.args
                  and isinstance(node.args[0], ast.BinOp)
                  and isinstance(node.args[0].op, ast.Div))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in STEP_COUNTERS],
                         ids=lambda p: p.name)
def test_step_counts_only_in_time_grid(path):
    assert step_counts(path.read_text()) == []


def test_detects_step_counts():
    source = ("import numpy as np\nn = max(1, int(round(T / dt)))\nm = round(x)\n"
              "d = x - L * np.round(x / L)\nk = round(a * b)\nj = round(T / (2.0 * dt))\n")
    assert step_counts(source) == ["line 2", "line 6"]


# ---------------------------------------------------------------------------
# no matrix product on the weight path: BLAS splits its sums by thread count
# and block size, and each node's weight must depend on its own ball alone

PRODUCTS = {"dot", "matmul", "inner", "tensordot"}


def matrix_products(source: str) -> list:
    """@ operators and numpy dot, matmul, inner or tensordot references in
    source, as 'name (line n)'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"@ (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.alias) and node.name in PRODUCTS:
            found.append(f"{node.name} (line {node.lineno})")
    return sorted(found)


def test_no_matrix_product_in_weights():
    assert matrix_products((SRC / "weights.py").read_text()) == []


def test_detects_matrix_products():
    source = ("import numpy as np\nfrom numpy import inner\na = w @ v\nb = np.dot(w, v)\n"
              "c = np.matmul(w, v)\nd = np.tensordot(w, v, 1)\ne = v.dot(w)\nv @= w\n"
              "f = np.einsum('sk,k->s', v, w)\n")
    assert matrix_products(source) == ["@ (line 3)", "@ (line 8)", "dot (line 4)",
                                       "dot (line 7)", "inner (line 2)", "matmul (line 5)",
                                       "tensordot (line 6)"]


# ---------------------------------------------------------------------------
# one wrap: fields.sample_trilinear wraps every sampled position, so no
# caller wraps the points it hands to a drift or to the kernel

SAMPLERS = {"velocity", "sample_trilinear"}
WRAPS = {"mod", "remainder", "fmod"}


def caller_wraps(source: str) -> list:
    """np.mod (or remainder, fmod) calls and % expressions inside an argument
    of a .velocity(...) or sample_trilinear(...) call, as 'name (line n)'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name not in SAMPLERS:
            continue
        for arg in node.args + [k.value for k in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod):
                    found.append(f"{name} (line {sub.lineno})")
                elif isinstance(sub, ast.Call):
                    inner = sub.func
                    called = (inner.attr if isinstance(inner, ast.Attribute)
                              else getattr(inner, "id", None))
                    if called in WRAPS:
                        found.append(f"{name} (line {sub.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_caller_wraps_a_sampled_position(path):
    assert caller_wraps(path.read_text()) == []


def test_detects_caller_wraps():
    source = ("import numpy as np\nfrom numpy import mod\n"
              "v = b.velocity(t, np.mod(y, L) + g)\n"
              "s = sample_trilinear(h, grid, x % L)\n"
              "w = fields.sample_trilinear(h, grid, points=mod(x, L))\n"
              "u = b.velocity(t, np.remainder(y, L))\n"
              "ok = b.velocity(t, y + g)\nz = np.mod(y, L)\nq = fn(t, np.mod(y, L))\n")
    assert caller_wraps(source) == ["sample_trilinear (line 4)", "sample_trilinear (line 5)",
                                    "velocity (line 3)", "velocity (line 6)"]


# ---------------------------------------------------------------------------
# one process boundary: only the pipeline forks workers or sets their
# parent-death signal, and nothing uses multiprocessing

BOUNDARY = {"fork", "forkpty", "prctl"}


def process_boundaries(source: str) -> list:
    """fork, forkpty or prctl references and multiprocessing imports in
    source, as 'name (line n)'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BOUNDARY:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.alias) and node.name in BOUNDARY:
            found.append(f"{node.name} (line {node.lineno})")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""])
            found += [f"multiprocessing (line {node.lineno})" for m in modules
                      if m.split(".")[0] == "multiprocessing"]
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "pipeline.py"],
                         ids=lambda p: p.name)
def test_no_process_boundary_outside_pipeline(path):
    assert process_boundaries(path.read_text()) == []


def test_pipeline_holds_the_process_boundary():
    assert process_boundaries((SRC / "pipeline.py").read_text()) != []


def test_detects_process_boundaries():
    source = ("import os, ctypes\nimport multiprocessing as mp\nfrom os import fork\n"
              "from multiprocessing.pool import Pool\npid = os.fork()\n"
              "ctypes.CDLL(None).prctl(1, 9)\nq = mp.Queue()\n")
    assert process_boundaries(source) == ["fork (line 3)", "fork (line 5)",
                                          "multiprocessing (line 2)",
                                          "multiprocessing (line 4)", "prctl (line 6)"]


# ---------------------------------------------------------------------------
# one copy of each large array: the binary writers hand numpy's buffer to the
# file rather than a .tobytes() copy, integrate_flow writes each save into
# its one (S, P, 3) array rather than stacking a list of them, and the
# advect stage holds no such array at all

def named_calls(source: str, names, within=None) -> list:
    """Calls of a function or method named in names (np.stack(...),
    stack(...), a.tobytes(...)) in source, or only in the bodies of the
    functions called `within`, as 'name (line n)'.  A `within` that source
    does not define raises LookupError."""
    found = set()
    for node in nodes_within(source, within):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.add(f"{name} (line {node.lineno})")
    return sorted(found)


def attribute_reads(source: str, names, within=None) -> list:
    """Reads of an attribute named in names (ens.trajectories[-1]) in
    source, or only in the bodies of the functions called `within`, as
    'name (line n)'."""
    return sorted({f"{node.attr} (line {node.lineno})" for node in nodes_within(source, within)
                   if isinstance(node, ast.Attribute) and node.attr in names})


def nodes_within(source: str, within=None):
    """Every AST node of source, or of the functions called `within`; a
    `within` that source does not define raises LookupError."""
    tree = ast.parse(source)
    roots = [tree] if within is None else [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == within]
    if not roots:
        raise LookupError(f"no function {within!r}")
    return [node for root in roots for node in ast.walk(root)]


def test_binary_io_makes_no_bytes_copy():
    assert named_calls((SRC / "io.py").read_text(), {"tobytes"}) == []


def test_integrate_flow_stacks_no_saves():
    assert named_calls((SRC / "flow.py").read_text(), {"stack"}, within="integrate_flow") == []


def test_advect_stage_streams_its_saves():
    """The advect stage reads each save of the pass as it is computed: it
    collects no ensemble and reads no (S, P, 3) trajectory array."""
    source = (SRC / "pipeline.py").read_text()
    assert named_calls(source, {"integrate_flow"}, within="_stage_advect") == []
    assert attribute_reads(source, {"trajectories"}, within="_stage_advect") == []


def test_detects_collected_saves():
    source = ("from . import flow\n"
              "def _stage_advect(cfg):\n    ens = flow.integrate_flow(cfg)\n"
              "    last = ens.trajectories[-1]\n    return ens.times, last\n"
              "def other(cfg):\n    return flow.integrate_flow(cfg).trajectories\n")
    assert named_calls(source, {"integrate_flow"}, within="_stage_advect") == [
        "integrate_flow (line 3)"]
    assert attribute_reads(source, {"trajectories"}, within="_stage_advect") == [
        "trajectories (line 4)"]
    assert attribute_reads(source, {"trajectories"}) == ["trajectories (line 4)",
                                                         "trajectories (line 7)"]
    with pytest.raises(LookupError):
        attribute_reads(source, {"trajectories"}, within="missing")


def test_detects_named_calls():
    source = ("import numpy as np\nfrom numpy import stack\n"
              "def integrate_flow(a):\n    b = np.stack(a)\n    return stack(a).tobytes()\n"
              "def other(a):\n    return np.stack(a).tobytes('F')\n"
              "x = np.vstack(a).data\ny = a.tobytes\n")
    assert named_calls(source, {"tobytes"}) == ["tobytes (line 5)", "tobytes (line 7)"]
    assert named_calls(source, {"stack"}, within="integrate_flow") == ["stack (line 4)",
                                                                       "stack (line 5)"]
    with pytest.raises(LookupError):
        named_calls(source, {"stack"}, within="missing")


# no whole gradient: the solver, the weights and the flow estimates read
# |grad u| (fields.gradient_norm, an EvaluatedField's grad_norm) or the
# derivatives stream, never a (3, 3, n, n, n) array

GRADIENT_READERS = ("solver.py", "weights.py", "flow.py")


def gradient_reads(source: str) -> list:
    """Calls of a function named gradient and reads of a .grad attribute in
    source, as 'name (line n)'."""
    found = named_calls(source, {"gradient"})
    found += [f"grad (line {node.lineno})" for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Attribute) and node.attr == "grad"]
    return sorted(found)


@pytest.mark.parametrize("name", GRADIENT_READERS)
def test_no_whole_gradient(name):
    assert gradient_reads((SRC / name).read_text()) == []


def test_detects_gradient_reads():
    source = ("from . import fields\nfrom .fields import gradient\n"
              "a = gradient(F)\nb = fields.gradient(F)\nc = u.grad[0]\n"
              "d = u.grad_norm\ne = fields.gradient_norm(F)\ndel u.grad\n")
    assert gradient_reads(source) == ["grad (line 5)", "grad (line 8)",
                                      "gradient (line 3)", "gradient (line 4)"]


# ---------------------------------------------------------------------------
# one verdict: an estimate returns the numbers its stage records, and only
# the pipeline (StageRecord.check) decides a check from a value, a rule and
# a threshold

VERDICT_OWNER = "pipeline.py"
LIBRARY_KEYWORDS = {"exist_ok", "missing_ok"}     # os's and pathlib's, not verdicts


def verdicts(source: str) -> list:
    """Verdicts defined or returned in source, as 'name (line n)': an
    annotated field, an attribute assigned, a string (a dict key or
    subscript) or a keyword argument named passed or ending in _ok, other
    than the library keywords exist_ok and missing_ok."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        elif isinstance(node, ast.keyword) and node.arg not in LIBRARY_KEYWORDS:
            name = node.arg or ""
        else:
            continue
        if name == "passed" or name.endswith("_ok"):
            found.append(f"{name} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != VERDICT_OWNER],
                         ids=lambda p: p.name)
def test_verdicts_only_in_pipeline(path):
    assert verdicts(path.read_text()) == []


def test_detects_verdicts():
    source = ("from dataclasses import dataclass\n@dataclass\nclass Report:\n"
              "    ratio: float\n    passed: bool\n"
              "def f(x, path):\n    path.mkdir(exist_ok=True)\n    r = Report(x, passed=x < 1)\n"
              "    r.bound_ok = x <= 1\n    d = {'sup_bound_ok': x <= 2, 'lhs': x}\n"
              "    d['passed'] = True\n    ok = x < 3\n"
              "    return dict(ratio=x, finite_ok=ok), 'passed the test', r.passed\n")
    assert verdicts(source) == ["bound_ok (line 9)", "finite_ok (line 13)",
                                "passed (line 11)", "passed (line 5)", "passed (line 8)",
                                "sup_bound_ok (line 10)"]


# ---------------------------------------------------------------------------
# lean start-up: scipy.integrate imports scipy.optimize, and both cost a run
# about 0.2 s before its first stage; only tests reach minimize_scalar.  The
# scipy.fft package costs about 0.25 s more (scipy.special, scipy's array-API
# layer and with it numpy.f2py): lagflow.fft loads only its pocketfft kernels

HEAVY = ("scipy.fft", "scipy.special", "scipy._lib._array_api", "numpy.f2py")


def run_python(code: str, **env) -> str:
    """Standard output of `code` run by a fresh interpreter with ./src on
    its path (and env added to its environment); a non-zero exit fails."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_run_imports_no_integrate_or_optimize():
    code = ("import sys, lagflow.cli, lagflow.pipeline\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'integrate'], ['scipy', 'optimize'])))")
    assert run_python(code) == "[]"


def test_run_imports_no_scipy_fft_package(tmp_path):
    """Neither importing the CLI and pipeline nor an n = 16 paper-check
    loads the scipy.fft package or what it pulls in."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output_dir = {tmp_path / 'out'}\nsolver.n = 16\n")
    code = (f"import sys, lagflow.cli, lagflow.pipeline\nheavy = {HEAVY!r}\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            f"code = lagflow.cli.main(['paper-check', {str(cfg)!r}, '--quiet'])\n"
            "print(code, sorted(m for m in heavy if m in sys.modules))")
    imported, after_run = run_python(code, LAGFLOW_THREADS="1").splitlines()
    assert imported == "[]"
    assert after_run == "0 []"
