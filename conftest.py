"""Pytest bootstrap: make the in-tree sources importable without installation.

The canonical way to work with the repository is an editable install
(``pip install -e .`` or, in offline environments lacking the ``wheel``
package, ``python setup.py develop``).  Adding ``src/`` to ``sys.path`` here
additionally lets ``pytest tests/`` run straight from a fresh checkout.  It
is added only when no ``repro`` is importable yet, so a tree selected with
``PYTHONPATH=<tree>/src`` (or installed) is the one under test.
"""

import importlib.util
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if importlib.util.find_spec("repro") is None and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
