"""The package exports only names, and its public classes only fields, that its programs,
demos, bench or README use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import chsh_kcbs

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "chsh_kcbs").glob("*.py"))
# Everything outside the package that may use it; test files do not count at all.
USERS = [*sorted((ROOT / "demos").glob("*.py")),
         *(path for path in sorted((ROOT / "bench").glob("*.py"))
           if not path.name.startswith("test_")),
         ROOT / "README.md"]


def _unused(names, text):
    """The names that no word of text uses; a definition line does not count as a use."""
    return [name for name in names
            if not re.search(rf"(?<!def )(?<!class )\b{re.escape(name)}\b", text)]


def _read(paths):
    return "\n".join(path.read_text(encoding="utf-8") for path in paths)


def test_every_public_name_is_used_outside_the_tests():
    sources = [path for path in PACKAGE if path.name != "__init__.py"] + USERS
    assert _unused(chsh_kcbs.__all__, _read(sources)) == []


def test_every_field_of_a_public_class_is_used_outside_its_class_and_the_tests():
    unused = []
    for module in PACKAGE:
        source = module.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            fields = [item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            first = (node.decorator_list[0] if node.decorator_list else node).lineno
            outside = lines[:first - 1] + lines[node.end_lineno:]
            text = "\n".join([*outside, _read(path for path in PACKAGE + USERS
                                              if path != module)])
            unused += [f"{node.name}.{name}" for name in _unused(fields, text)]
    assert unused == []


def test_importing_the_package_loads_no_writer():
    # The writers and json load with the CLI; a landscape pass imports
    # serialize only when its rows are written.
    code = ("import sys, chsh_kcbs; "
            "print(sorted({'json', 'chsh_kcbs.serialize', 'chsh_kcbs.cli'} & set(sys.modules)))")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_only_linalg_raises_the_operator_errors():
    # linalg.check_operators is the one raising operator check: no other module
    # names NotHermitian or NotUnitary, by import or by attribute.
    errors = {"NotHermitian", "NotUnitary"}
    naming = {path.name for path in PACKAGE
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.alias) and node.name in errors
              or isinstance(node, ast.Attribute) and node.attr in errors}
    assert naming <= {"linalg.py", "errors.py", "__init__.py"}
