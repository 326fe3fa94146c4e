"""The package surface: what ``import qsinglet`` exports and README documents."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import qsinglet

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def library_use_section() -> str:
    return README.split("## Library use", 1)[1].split("\n## ", 1)[0]


def test_every_export_resolves():
    assert len(qsinglet.__all__) == len(set(qsinglet.__all__))
    for name in qsinglet.__all__:
        assert getattr(qsinglet, name) is not None


def test_readme_library_use_runs(capsys):
    """Every line the example prints is the value its ``#`` comment starts
    with."""
    (code,) = re.findall(r"```python\n(.*?)```", library_use_section(), re.S)
    exec(compile(code, "README.md", "exec"), {})
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    printed = capsys.readouterr().out.splitlines()
    assert len(comments) == code.count("print(") == len(printed)
    for line, comment in zip(printed, comments):
        assert comment == line or comment.startswith(line + " ")


def test_readme_lists_every_export():
    section = library_use_section()
    assert [name for name in qsinglet.__all__ if f"`{name}`" not in section] == []


def tolerances_section() -> str:
    return README.split("## Tolerances", 1)[1].split("\n## ", 1)[0]


def readme_number(text: str) -> float:
    """A value as the README writes it: ``1e-10``, or ``2^-30`` for a power."""
    base, _, exponent = text.partition("^")
    return float(base) ** int(exponent) if exponent else float(text)


def test_readme_tolerances_match_the_code():
    """Every row of the README's tolerance table names a constant that exists
    with the value written."""
    section = tolerances_section()
    table = re.findall(r"^\| `(\w+)\.(\w+)` \| ([^|]+?) \|", section, re.M)
    assert table and len(table) == section.count("\n| `")  # every row parses
    for module, name, value in table:
        assert getattr(importlib.import_module(f"qsinglet.{module}"), name) == readme_number(value), name


def test_importing_the_cli_does_not_load_discrimination():
    """No run builds the discrimination POVM, so the run path does not import it."""
    code = "import sys, qsinglet.cli; print('qsinglet.discrimination' in sys.modules)"
    # the fresh interpreter imports the package under test
    src = str(Path(qsinglet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.stdout.strip() == "False", run.stdout + run.stderr
