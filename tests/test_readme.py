"""The README's Python blocks run, in order, against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace = {}  # shared: a later block uses what an earlier one defined
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
