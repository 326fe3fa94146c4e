"""The package surface: what ``import qsinglet`` exports and README documents."""

import re
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
    (code,) = re.findall(r"```python\n(.*?)```", library_use_section(), re.S)
    exec(compile(code, "README.md", "exec"), {})
    assert "+x" in capsys.readouterr().out


def test_readme_lists_every_export():
    section = library_use_section()
    assert [name for name in qsinglet.__all__ if f"`{name}`" not in section] == []
