"""Every warning raised in a test under this directory fails that test.

A numpy overflow or invalid-value warning is how a NaN or inf row starts,
so the suite treats it as an error instead of letting it pass silently.
"""

import pathlib

import pytest

HERE = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
