"""Every import in the package and its tests is used, importing the CLI
loads no process pool, and importing the package loads no numpy.

An import counts as used when its bound name is read anywhere in the
module.  ``__init__.py`` files are exempt (their imports are the package's
re-exports), and so is an import on a line marked ``# noqa: F401``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in [*(ROOT / "src" / "symwalk").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(path):
    """(line, name) of each import in ``path`` whose name is never read."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys  # noqa: F401\n"
                      "from json import dumps, loads\nprint(loads)\n")
    assert unused_imports(module) == [(1, "os"), (3, "dumps")]


def test_no_unused_imports():
    unused = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
              for path in MODULES for line, name in unused_imports(path)]
    assert not unused, "unused imports: " + ", ".join(unused)


def loaded_after(statement, prefixes):
    """The modules starting with one of ``prefixes`` that a fresh
    interpreter holds after running ``statement``."""
    code = ("import sys; %s; print(sorted(m for m in sys.modules "
            "if m.startswith(%r)))" % (statement, prefixes))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_the_cli_imports_no_process_pool():
    # run_batch imports the pool only when it starts one
    assert loaded_after("import symwalk.cli",
                        ("concurrent", "multiprocessing")) == "[]"


def test_the_package_imports_no_numpy():
    # letters are bytes: no module the package imports needs numpy
    assert loaded_after("import symwalk", ("numpy",)) == "[]"
