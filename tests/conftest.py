"""Every test starts without the CLI's kept forward model, so that no
result depends on which tests ran before."""

import pytest

from wg4 import cli


@pytest.fixture(autouse=True)
def no_kept_model(monkeypatch):
    monkeypatch.setattr(cli, "_kept", None)
