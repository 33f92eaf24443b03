"""Package layout rules checked on the source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "corrkit"


def private_cross_imports(source: str) -> list[str]:
    """Private names (not dunders) imported from another corrkit module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "corrkit"
        ):
            found += [
                f"from {'.' * node.level}{node.module or ''} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.endswith("__")
            ]
    return found


def test_detector_flags_private_relative_imports():
    source = (
        "from .classic import _unit_scaled\n"
        "from corrkit.gcorr import _sweep\n"
        "from . import __version__, gcorr\n"
        "from .core import sample_mean\n"
        "import numpy as _np\n"
    )
    assert private_cross_imports(source) == [
        "from .classic import _unit_scaled",
        "from corrkit.gcorr import _sweep",
    ]


def test_no_module_imports_a_private_name_from_another():
    offences = {
        path.name: private_cross_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in offences.items() if found} == {}
