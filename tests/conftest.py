import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mirrorperiods import periods  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def _cold_q_series_tables():
    """Clear periods' module-level q-series tables after each test module,
    so no module, and no suite run after this one in the same session
    (perfbench's tracer test), sees tables that another one built."""
    yield
    periods.lambda_q_series.cache_clear()
    periods.varpi0_q_series.cache_clear()
