"""Locates the program under test: the ``bornbox`` package in ``src/`` of the
checkout that holds this directory.  Every benchmark entry point calls
``use_checkout_source`` before importing ``bornbox``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the import path; exit non-zero if
    the package is missing or an installed copy would shadow it."""
    package = SRC / "bornbox"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bornbox
    if Path(bornbox.__file__).resolve().parent != package:
        raise SystemExit(f"benchmark: imported bornbox from {bornbox.__file__}, "
                         f"not from {package}")
