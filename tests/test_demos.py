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
