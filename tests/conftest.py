import pytest

from semireg.cli import _fix_malloc_thresholds


@pytest.fixture(scope="session", autouse=True)
def malloc_thresholds():
    """Give tests that call the library directly the allocator setting of ``main``."""
    _fix_malloc_thresholds()
