"""Pytest bootstrap: make the in-tree sources importable without installation.

The canonical way to work with the repository is an editable install
(``pip install -e .`` or, in offline environments lacking the ``wheel``
package, ``python setup.py develop``).  Adding ``src/`` to ``sys.path`` here
additionally lets ``pytest tests/`` run straight from a fresh checkout.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
