"""Each module of the package imports on its own, and the README's names.

The package `__init__` imports no module, so no fixed import order hides a
cycle: a module that needs another one half-initialised fails here when it is
imported first.  The checks run in a fresh interpreter, where no other test
has loaded a module already.  Every name the README's "Library use" table
lists imports from the module of its row.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import projfree

_PACKAGE = Path(projfree.__file__).resolve().parent
_MODULES = sorted(p.stem for p in _PACKAGE.glob("*.py") if p.stem != "__init__")

_SNIPPET = """
import importlib
import sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("projfree."))

import projfree
print(loaded())
for name in sys.argv[1:]:
    for m in loaded() + ["projfree"]:
        del sys.modules[m]
    importlib.import_module("projfree." + name)
    print(name)
"""


def _run(*modules):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SNIPPET, *modules], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_importing_the_package_loads_no_module():
    assert _run() == ["[]"]


def test_each_module_imports_on_its_own():
    assert len(_MODULES) == 12
    assert _run(*_MODULES) == ["[]", *_MODULES]


def _library_table():
    """(module, [names]) per row of the README's public-name table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) != 4 or not cells[1].strip().startswith("`projfree."):
            continue
        (module,) = re.findall(r"`([\w.]+)`", cells[1])
        rows.append((module, re.findall(r"`(\w+)`", cells[2])))
    return rows


def test_the_readme_names_import_from_their_modules():
    rows = _library_table()
    assert sorted(module for module, _ in rows) == ["projfree." + m for m in _MODULES]
    for module, names in rows:
        assert names, module
        imported = importlib.import_module(module)
        missing = [name for name in names if not hasattr(imported, name)]
        assert not missing, f"{module} lacks {missing}"
