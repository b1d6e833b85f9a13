"""The root ``conftest.py`` adds the checkout's ``src/`` only when no ``repro`` is importable.

So ``PYTHONPATH=<other tree>/src python -m pytest`` run from this checkout
tests the other tree, not this one.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(code: str, cwd: Path, pythonpath: Optional[Path]) -> str:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = str(pythonpath)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def _repro_after_conftest(cwd: Path, pythonpath: Optional[Path]) -> Path:
    """The file of the ``repro`` a process imports after running ``conftest.py``."""
    code = (
        f"import runpy; runpy.run_path({str(ROOT / 'conftest.py')!r}); "
        "import repro; print(repro.__file__)"
    )
    return Path(_run(code, cwd, pythonpath)).resolve()


def test_a_repro_on_pythonpath_is_the_one_imported(tmp_path):
    stub = tmp_path / "other" / "repro"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    imported = _repro_after_conftest(tmp_path, tmp_path / "other")
    assert imported == (stub / "__init__.py").resolve()


def test_the_checkout_src_is_added_when_no_repro_is_importable(tmp_path):
    found = _run("import importlib.util; print(importlib.util.find_spec('repro'))", tmp_path, None)
    if found != "None":
        pytest.skip("an installed repro is importable without the checkout's src/")
    imported = _repro_after_conftest(tmp_path, None)
    assert imported == (ROOT / "src" / "repro" / "__init__.py").resolve()
