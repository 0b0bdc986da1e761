"""Shared test set-up: keep the suite's run records out of the user's cache."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _session_cache_root(tmp_path_factory):
    """Point ``REPRO_CACHE_DIR`` at a directory of this test session.

    Sweeps that use the default cache root then write their cache
    entries, ledger lines and traces there instead of under
    ``~/.cache/repro-sim``, and a rerun simulates instead of reading
    results an older checkout left behind. A test that sets or deletes
    the variable through ``monkeypatch`` still sees its own value.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("cache-root")))
        yield
