"""Every import in the package and its tests is used, importing the CLI
loads no process pool, importing the package loads no numpy, and a CLI
process freezes the collector at exit but not before.

An import counts as used when its bound name is read anywhere in the
module.  ``__init__.py`` files are exempt (their imports are the package's
re-exports), and so is an import on a line marked ``# noqa: F401``.
"""

import ast
import gc
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


def fresh(*args):
    """The finished run, output as text, of a fresh interpreter that
    imports the package from ``src``, called with ``args``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def run_fresh(code):
    """The stripped standard output of ``code`` run by ``fresh``, which
    must exit 0."""
    run = fresh("-c", code)
    run.check_returncode()
    return run.stdout.strip()


def loaded_after(statement, prefixes):
    """The modules starting with one of ``prefixes`` that a fresh
    interpreter holds after running ``statement``."""
    return run_fresh("import sys; %s; print(sorted(m for m in sys.modules "
                     "if m.startswith(%r)))" % (statement, prefixes))


def test_the_cli_imports_no_process_pool():
    # run_batch imports the pool only when it starts one
    assert loaded_after("import symwalk.cli",
                        ("concurrent", "multiprocessing")) == "[]"


def test_the_package_imports_no_numpy():
    # letters are bytes: no module the package imports needs numpy
    assert loaded_after("import symwalk", ("numpy",)) == "[]"


def test_a_cli_process_freezes_the_collector_at_exit(tmp_path):
    # atexit runs the last-registered handler first, so this hook, taken
    # before cli registers gc.freeze, reads the count after the freeze
    out = run_fresh(
        "import atexit, gc; atexit.register(lambda: print("
        "'frozen', gc.get_freeze_count())); import symwalk.cli; "
        "symwalk.cli.main(['prescribe', '2,6', '--out', %r])"
        % str(tmp_path))
    frozen = out.splitlines()[-1].split()
    assert frozen[0] == "frozen" and int(frozen[1]) > 0


def test_main_leaves_the_collector_unfrozen(tmp_path, capsys):
    from symwalk.cli import main
    assert main(["prescribe", "2,6", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == 0 and gc.isenabled()
