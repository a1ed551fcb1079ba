import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # tmp_path as the working directory keeps the CSV files some demos write
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=child_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_quickstart_runs(tmp_path):
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                      re.S)
    result = subprocess.run([sys.executable, "-c", block.group(1)], cwd=tmp_path,
                            env=child_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_core_pieces_are_exported():
    import multiell
    paragraph = re.search(r"Core pieces, importable from `multiell`:(.*?)\n\n",
                          (ROOT / "README.md").read_text(encoding="utf-8"), re.S).group(1)
    names = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert len(names) > 10
    assert [name for name in names if not hasattr(multiell, name)] == []


def _readme_numerics_index():
    section = re.search(r"## Determinism and numerics\n(.*?)\n## ",
                        (ROOT / "README.md").read_text(encoding="utf-8"), re.S).group(1)
    return [line for line in section.splitlines() if re.match(r"\| \d+ \|", line)]


def _defines(path: Path, qualname: str) -> bool:
    # Whether ``path`` defines ``Class::method`` or a top-level ``name``,
    # read with ast so that no test module is imported.
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for name in qualname.split("::"):
        found = [node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


def test_readme_numerics_index_names_existing_code_and_tests():
    rows = _readme_numerics_index()
    assert [int(row.split("|")[1]) for row in rows] == list(range(1, len(rows) + 1))
    for row in rows:
        homes = re.findall(r"`([a-z]\w*)\.(\w+)`", row)
        tests = re.findall(r"`(tests/\w+\.py)::([\w:]+)`", row)
        assert homes and tests, row
        for module, name in homes:
            assert hasattr(importlib.import_module(f"multiell.{module}"), name), (module, name)
        for path, qualname in tests:
            assert (ROOT / path).is_file() and _defines(ROOT / path, qualname), (path, qualname)


@pytest.mark.parametrize("phrase, module, constant", [
    (r"give at most ([\d,]+) angles", "cli", "_MAX_SWEEP_ANGLES"),
    (r"`--trials` is at most ([\d,]+)", "stats", "_MAX_SWEEP_TRIALS"),
    (r"into at most ([\d,]+) bins", "stats", "_MAX_PAS_BINS"),
    (r"`scenario\.paths_per_cluster` is capped at ([\d,]+)", "engine", "_MAX_PATHS_PER_CLUSTER"),
])
def test_readme_caps_equal_their_constants(phrase, module, constant):
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    stated = int(re.search(phrase, text).group(1).replace(",", ""))
    assert stated == getattr(importlib.import_module(f"multiell.{module}"), constant)
