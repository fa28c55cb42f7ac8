"""The README's library example runs against the package as it stands, so
the documented calls cannot drift from the API."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", text, re.S | re.M).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # one field's coefficients are a plain (n+1, 2n+1) array
    assert namespace["u"].shape == (101, 201)
    assert namespace["values"].shape == (101, 201)
    assert namespace["u_final"].shape == (64, 127)
    assert np.all(np.isfinite(namespace["u_final"]))
