import warnings

import pytest

from heckecells.hecke import Context, build_context

warnings.filterwarnings("ignore", message=".*Coxeter number.*")

_CACHE: dict = {}


@pytest.fixture(scope="session")
def ctx():
    """Shared per-type arithmetic contexts (memo caches persist per session)."""

    def get(type_str: str) -> Context:
        if type_str not in _CACHE:
            _CACHE[type_str] = build_context(type_str)
        return _CACHE[type_str]

    return get
