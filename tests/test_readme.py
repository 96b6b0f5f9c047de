"""The README's library example runs as written, so the documented API cannot drift."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(_README), "exec"), {"__name__": "readme_example"})
