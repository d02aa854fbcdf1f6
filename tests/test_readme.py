"""The README's quick tour runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import mpmath

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The first python block after the "Quick tour" heading."""
    section = README.read_text(encoding="utf-8").split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_prints_zeta2_and_minus_zeta3():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(quick_tour(), {})
    _, zeta2, phi_001 = out.getvalue().splitlines()
    assert abs(complex(zeta2) - float(mpmath.zeta(2))) < 1e-12
    assert abs(complex(phi_001) + float(mpmath.zeta(3))) < 1e-12
