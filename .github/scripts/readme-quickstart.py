"""Runs the first ```python block under README.md's "Library quickstart"
heading and fails unless the lines it prints equal, in order, the comments
after its print calls (`print(x)  # expected output`).

Run from the repository root: python .github/scripts/readme-quickstart.py
"""

import contextlib
import io
import re
import sys
from pathlib import Path

readme = Path(__file__).resolve().parents[2] / "README.md"
section = readme.read_text().split("## Library quickstart", 1)[1]
code = section.split("```python\n", 1)[1].split("```", 1)[0]
expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    exec(compile(code, f"{readme} (Library quickstart)", "exec"), {})
got = printed.getvalue().splitlines()
if got != expected:
    sys.exit(f"README quickstart printed {got}, its comments say {expected}")
print("README quickstart printed what its comments say:", *got, sep="\n")
