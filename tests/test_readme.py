"""The Python examples in README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}  # shared: a later example uses names an earlier one set
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
