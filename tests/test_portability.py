"""View bytes that do not depend on the BLAS kernel or numpy's SIMD level.

The goldens of ``test_golden.py`` run again in child processes: under two
other OpenBLAS cores (``Haswell``, with FMA, and ``Prescott``, without),
and with numpy's dispatched SIMD features turned off, which leaves its
baseline. Each variable is set for the child only. The checkpoint golden
stays out: training bytes are BLAS products and depend on the core
(README's determinism model).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fieldaug

PACKAGE = Path(fieldaug.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
CONFIG = np.show_config(mode="dicts")
OPENBLAS = CONFIG["Build Dependencies"]["blas"].get("openblas configuration", "")

SETTINGS = [
    ("OPENBLAS_CORETYPE", "Haswell"),
    ("OPENBLAS_CORETYPE", "Prescott"),
    ("NPY_DISABLE_CPU_FEATURES", " ".join(CONFIG["SIMD Extensions"]["found"])),
]


@pytest.mark.parametrize("variable, value", SETTINGS, ids=["haswell", "prescott", "simd-baseline"])
def test_view_goldens_hold(variable, value):
    if variable == "OPENBLAS_CORETYPE" and "DYNAMIC_ARCH" not in OPENBLAS:
        pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS ({OPENBLAS or 'none named'}), "
                    "so OPENBLAS_CORETYPE selects no other core")
    env = dict(os.environ, **{variable: value})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", str(TESTS / "test_golden.py"),
         "-k", "not checkpoint", "-p", "no:cacheprovider"],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, f"{variable}={value}:\n{done.stdout[-4000:]}{done.stderr[-2000:]}"


def test_package_uses_no_lapack():
    # np.linalg's results follow the BLAS core; the affine inverse is Python floats
    pattern = re.compile(r"\b(np|numpy)\.linalg\b|from numpy import .*\blinalg\b")
    uses = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(PACKAGE.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)]
    assert uses == []
