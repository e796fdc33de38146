"""README.md's examples run: its ```python blocks execute in order in one
namespace, so the call sequence they show, and the alpha they pass, stay
true to the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_in_order():
    blocks = PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    # build the root, splice one request, write and read machine text
    assert len(blocks) == 3
    namespace = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
    assert namespace["view"].start is not None
