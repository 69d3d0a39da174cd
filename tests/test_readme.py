"""The README's Python API example runs, and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

#: an expression line followed by a comment that opens with the value it gives
_COMMENTED_VALUE = re.compile(r"^(?P<expr>\S[^#\n]*?)[ \t]+#[ \t]+(?P<value>-?\d+\.\d+)\b", re.MULTILINE)


def _python_api_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_python_api_example_gives_its_commented_values():
    block = _python_api_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    checked = {}
    for match in _COMMENTED_VALUE.finditer(block):
        value = eval(match["expr"], namespace)
        assert f"{value:.6f}" == f"{float(match['value']):.6f}", match["expr"]
        checked[match["expr"]] = match["value"]
    assert checked == {
        "result.raw": "0.499278",
        "result.normalized": "0.998556",
        "contention_exclusive(remainers).raw": "0.0",
    }
