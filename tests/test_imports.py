"""Which scipy modules a process loads, each checked in a fresh interpreter.

scipy is imported only where a run calls it: LAPACK's extension module
``scipy.linalg._flapack`` (never the ``scipy.linalg`` package) when a ``full``
family is built, left out of ``sys.modules`` for ``scipy.linalg`` to load
itself, and ``scipy.special`` when a binary ``Logistic`` loss is built.
"""

import json
import os
import subprocess
import sys

import pytest

import bayesadmm

from test_cli import BLOBS_INI

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bayesadmm.__file__)))

PROBE = """
import json, sys
import bayesadmm.cli as cli
from bayesadmm import families

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"after_import": scipy_modules()}
inner = cli.run_rounds

def run_rounds(*args, **kwargs):
    seen["at_rounds_entry"] = scipy_modules()
    seen["lapack_at_rounds_entry"] = families._lapack.cache_info().currsize
    return inner(*args, **kwargs)

cli.run_rounds = run_rounds
if len(sys.argv) > 1:
    seen["code"] = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]])
    seen["after_run"] = scipy_modules()
    seen["f2py_after_run"] = "numpy.f2py" in sys.modules
print(json.dumps(seen))
"""


def python_c(code: str, *args) -> str:
    """stdout of ``python -c code *args`` in a fresh interpreter that imports this tree."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=300).stdout


def probe(*args) -> dict:
    return json.loads(python_c(PROBE, *args).splitlines()[-1])


def run_probe(tmp_path, text) -> dict:
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    seen = probe(str(cfg), str(tmp_path / "out"))
    assert seen["code"] == 0
    return seen


def test_importing_the_cli_loads_no_scipy():
    assert probe()["after_import"] == []


def test_a_diag_ivon_admm_run_loads_no_scipy(tmp_path):
    seen = run_probe(tmp_path, BLOBS_INI.replace("method = bayes_admm", "method = ivon_admm"))
    assert seen["at_rounds_entry"] == [] and seen["after_run"] == []


def test_a_full_family_run_loads_lapack_in_setup_and_never_scipy_special(tmp_path):
    seen = run_probe(tmp_path, BLOBS_INI.replace("family = diag", "family = full"))
    assert seen["lapack_at_rounds_entry"] == 1 and not seen["f2py_after_run"]
    # The extension module is found through the package's spec, so scipy/__init__.py never
    # runs, and it leaves sys.modules once its routines are taken.
    assert seen["at_rounds_entry"] == seen["after_run"] == []


# argv[1] says whether a full family is built before or after scipy.linalg is imported.
LAPACK_IDENTITY = """
import ctypes, sys
import numpy as np
from bayesadmm.families import Family, _lapack

if sys.argv[1] == "family first":
    Family.full(3)
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
import scipy.linalg
flapack = scipy.linalg._flapack
if sys.argv[1] == "scipy.linalg first":
    Family.full(3)
pointer = ctypes.pythonapi.PyCapsule_GetPointer
pointer.restype, pointer.argtypes = ctypes.c_void_p, [ctypes.py_object, ctypes.c_char_p]
theirs = scipy.linalg.get_lapack_funcs(("trtrs", "potri"), dtype=np.float64)
print([ctypes.cast(f, ctypes.c_void_p).value for f in _lapack()] == [pointer(f._cpointer, None) for f in theirs],
      all(f is g for f, g in zip(theirs, (flapack.dtrtrs, flapack.dpotri))), sum(m.endswith("._flapack") for m in sys.modules))
"""


@pytest.mark.parametrize("order", ["family first", "scipy.linalg first"])
def test_lapack_routines_are_scipy_linalgs_own_whichever_loads_first(order):
    """``scipy.linalg._flapack`` is an attribute after either import order, and ``_lapack`` calls its routines."""
    lines = python_c(LAPACK_IDENTITY, order).splitlines()
    if order == "family first":
        assert lines.pop(0) == "[]"
    assert lines == ["True True 1"]


def test_a_missing_lapack_extension_is_an_import_error_naming_it(tmp_path):
    # A scipy package without a linalg directory, found ahead of the real one.
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    code = ("import sys\n"
            f"sys.path.insert(0, {str(tmp_path)!r})\n"
            "from bayesadmm import families\n"
            "try:\n"
            "    families._lapack()\n"
            "except ImportError as exc:\n"
            "    print(exc.name, 'scipy.linalg' in sys.modules, 'scipy' in sys.modules)\n")
    assert python_c(code).split() == ["scipy.linalg._flapack", "False", "False"]


def test_a_binary_logistic_loss_loads_scipy_special_when_built():
    code = ("import sys, numpy as np\n"
            "from bayesadmm.losses import Logistic\n"
            "before = 'scipy.special' in sys.modules\n"
            "Logistic(np.ones((2, 1)), np.array([0.0, 1.0]))\n"
            "print(before, 'scipy.special' in sys.modules)\n")
    assert python_c(code).split() == ["False", "True"]
