import pytest

from hquat import parser


@pytest.fixture
def fresh_parse_memo():
    """An empty parse memo, so that the test's first parse of each text
    builds a new tree that no earlier test has compiled."""
    parser._parsed.cache_clear()
    yield
    parser._parsed.cache_clear()
