"""Test session set-up and the fixtures several test files share.

The suite writes no bytecode next to the sources it imports: a tree that
carries ``.pyc`` files starts its interpreters faster, so a test run would
otherwise change what a later benchmark of the same tree measures.
"""

import sys

import pytest

sys.dont_write_bytecode = True


@pytest.fixture
def ranked(monkeypatch):
    """Every matrix that reaches ``exact.rank`` during the test, in call order."""
    from nodehilb import exact

    calls = []
    real = exact.rank
    monkeypatch.setattr(exact, "rank", lambda mat, ncols: calls.append(mat) or real(mat, ncols))
    return calls


def clear_node_caches() -> None:
    """Empty every ``lru_cache`` of ``nodemodule``, each found by its ``cache_clear``."""
    from nodehilb import nodemodule

    for value in vars(nodemodule).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
