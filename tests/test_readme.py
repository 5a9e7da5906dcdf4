"""The README's library quick start runs and prints the values its comments give."""

import os
import re

_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_quick_start_matches_its_comments():
    text = open(_README, encoding="utf-8").read()
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    checked = {}
    # an expression followed by a comment with a decimal value, e.g. "t2(s, noise)  # ..., 0.2479"
    for expr, value in re.findall(r"^([^\s=#][^=#]*?)\s+#[^\n]*?(\d+\.\d+)", block, re.M):
        decimals = len(value.split(".")[1])
        checked[expr] = eval(expr, namespace)
        assert round(checked[expr], decimals) == float(value), (expr, checked[expr])
    assert len(checked) == 3, checked
