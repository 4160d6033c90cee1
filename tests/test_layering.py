"""Private names cross module boundaries of the package only where listed.

Every ``src/ergolab/*.py`` is parsed with ``ast``, and each import of a name
that starts with ``_`` from another module of the package, relative or
absolute, is collected.  The collection must equal ``ALLOWED``: a new private
import fails until it is listed here, and a listed name that is no longer
imported fails until it is taken off.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ergolab

PACKAGE = Path(ergolab.__file__).resolve().parent

# (importing module, defining module) -> the private names it imports
ALLOWED = {
    # the gap scan's leaf reads term rows; the Bergelson rows use the shift pairing
    ("mixing", "dual"): {"_shift_traces", "_term_rows"},
}


def private_imports() -> dict:
    found: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:
                if module != "ergolab" and not module.startswith("ergolab."):
                    continue
                module = module[len("ergolab"):].lstrip(".")
            for alias in node.names:
                if alias.name.startswith("_"):  # "." is the package itself
                    found.setdefault((path.stem, module or "."), set()).add(alias.name)
    return found


def test_private_imports_are_the_listed_ones():
    assert private_imports() == ALLOWED
