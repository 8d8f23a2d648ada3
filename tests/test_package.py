"""The package module, and the library example the README documents."""

from __future__ import annotations

import subprocess
import sys

from conftest import SRC


def test_import_loads_no_submodule():
    code = "import sys, certigraph; print(*sorted(m for m in sys.modules if 'certigraph' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout.split()) == (0, ["certigraph"]), proc.stderr


def test_readme_library_example_runs(capsys):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(example, {})  # the example asserts that the checker accepts
    assert capsys.readouterr().out == "[0, 1, 2]\n"
