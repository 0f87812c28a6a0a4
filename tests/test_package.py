"""The package exports only names that its programs, demos, bench or README use."""

import os
import re
import subprocess
import sys
from pathlib import Path

import chsh_kcbs

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_used_outside_the_tests():
    # A definition line does not count as a use; test files do not count at all.
    sources = [path for path in (ROOT / "src" / "chsh_kcbs").glob("*.py")
               if path.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    sources += [path for path in (ROOT / "bench").glob("*.py") if not path.name.startswith("test_")]
    text = "\n".join(path.read_text(encoding="utf-8") for path in sources + [ROOT / "README.md"])
    unused = [name for name in chsh_kcbs.__all__
              if not re.search(rf"(?<!def )(?<!class )\b{re.escape(name)}\b", text)]
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
