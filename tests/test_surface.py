"""The public surface: the package exports, the README's library example and
the standard-library modules `import explainkit` loads."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import explainkit
from explainkit import cli

from conftest import fixture_command

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


def test_readme_flag_table_matches_the_cli():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(--[a-z-]+)` \| ([a-z, ]+) \| ([^|]*)\|$", section, re.MULTILINE)
    documented = {
        flag: (set(takes.split(", ")), tuple(condition.strip(" `").split()) or None)
        for flag, takes, condition in rows
    }
    assert len(rows) == len(documented)
    assert documented == {
        flag: (set(takes), needs) for flag, (_, takes, needs) in cli.FLAGS.items()
    }


# standard-library modules explainkit never runs on import: xml.sax pulls in
# urllib.request, http.client, email, socket and ssl
UNUSED_AT_IMPORT = (
    "xml.sax", "urllib.request", "http.client", "ssl", "socket", "email", "statistics",
    "subprocess",
)


def _child(code: str) -> dict:
    """Run `code`, which sets the dict `out`, in a fresh interpreter on this
    checkout's `src`; return `out` with `loaded`, the modules loaded after
    `import numpy` (so modules that site hooks load do not count)."""
    script = (
        "import json, sys\nimport numpy\nbefore = set(sys.modules)\n"
        f"{code}\nout['loaded'] = sorted(set(sys.modules) - before)\nprint(json.dumps(out))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_unused_standard_modules():
    out = _child("import explainkit, explainkit.cli\nout = {}")
    assert "explainkit.cli" in out["loaded"]
    assert [m for m in UNUSED_AT_IMPORT if m in out["loaded"]] == []


def test_external_payload_loads_subprocess():
    code = f"""
from explainkit import external_scorer
from explainkit.tabular import FeatureSchema
out = {{"before_payload": "subprocess" in set(sys.modules) - before}}
schema = FeatureSchema(("x1", "x2"), ("numeric", "numeric"), (None, None))
scorer = external_scorer({fixture_command("linear_scorer.py", "1", "2", "3")!r}, schema)
out["score"] = scorer.score_one((4.0, 5.0))
"""
    out = _child(code)
    assert out["before_payload"] is False
    assert "subprocess" in out["loaded"]
    assert out["score"] == 1.0 + 2.0 * 4.0 + 3.0 * 5.0
