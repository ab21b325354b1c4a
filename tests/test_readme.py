"""The README's library examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_examples_run_in_order():
    # each block may use the names of the blocks above it
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
