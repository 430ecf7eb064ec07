"""The package declares numpy>=1.25; its source must not use numpy 2.x names."""

import pathlib
import re

import pytest

import qmudsim

# Module functions added in numpy 2.0 or later, and the ndarray.mT attribute.
# The ndarray.astype method exists in 1.25; only the np.astype function is new.
NUMPY2_ONLY = re.compile(
    r"\b(?:np|numpy)\.(?:matvec|vecmat|vecdot|matrix_transpose|unstack"
    r"|permute_dims|concat|astype|bitwise_count|isdtype)\b"
    r"|\.mT\b")

SOURCES = sorted(pathlib.Path(qmudsim.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("text, flagged", [
    ("np.vecdot(a, b)", True), ("y = x.mT @ x", True),
    ("np.concat((a, b))", True), ("np.astype(x, float)", True),
    ("numpy.isdtype(t, 'real floating')", True),
    ("np.concatenate((a, b))", False), ("x.astype(float)", False),
    ("np.matmul(a, b)", False)])
def test_pattern_flags_only_numpy2_names(text, flagged):
    assert bool(NUMPY2_ONLY.search(text)) == flagged


def test_sources_use_no_numpy2_only_names():
    assert SOURCES
    hits = [f"{path.name}:{lineno}: {line.strip()}"
            for path in SOURCES
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1)
            if NUMPY2_ONLY.search(line)]
    assert not hits, "numpy 2.x-only names in src:\n" + "\n".join(hits)
