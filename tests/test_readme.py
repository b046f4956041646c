"""The README's library example runs as written against this package."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under the README's "Library example" heading."""
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(library_example(), f"{README}:Library example", "exec"), namespace)
    # the krasnov3 equation at n = 10, published in table 6 as 1.8e-4
    assert 0.5 * 1.8e-4 <= namespace["report"].error_l2 <= 2 * 1.8e-4
