"""Every ```python block of the README runs against the package as it
stands, so the documented calls cannot drift from the API."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"

#: For each ```python block of the README, in order: the arrays it leaves
#: behind and their shapes.
EXPECTED = (
    # one field's coefficients are a plain (n+1, 2n+1) array
    {"spec": (101,), "u": (101, 201), "values": (101, 201), "u_final": (64, 127)},
    # the Brusselator at degree 31: two fields, one (n+1,) operator each
    {"spec": (32,), "op_u": (32,), "op_v": (32,), "u_final": (32, 63), "v_final": (32, 63)},
)


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == len(EXPECTED)
    for block, shapes in zip(blocks, EXPECTED):
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
        for name, shape in shapes.items():
            assert namespace[name].shape == shape, name
            assert np.all(np.isfinite(namespace[name])), name
