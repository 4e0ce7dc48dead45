"""The public surface: the package exports and the README's library example."""

import re
from pathlib import Path

import explainkit

REPO_ROOT = Path(__file__).parent.parent


def test_all_names_resolve_without_duplicates():
    assert len(explainkit.__all__) == len(set(explainkit.__all__))
    missing = [name for name in explainkit.__all__ if not hasattr(explainkit, name)]
    assert missing == []


def test_readme_library_surface_runs(monkeypatch):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(REPO_ROOT)
    exec(compile(block, "README.md", "exec"), {})
