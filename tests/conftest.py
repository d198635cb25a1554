import os

import pytest

from moditer import forms


@pytest.fixture(autouse=True)
def _no_moditer_env(monkeypatch):
    """Run every test without the developer's MODITER_* variables, which the
    CLI reads; child processes copy this scrubbed os.environ."""
    for name in [k for k in os.environ if k.startswith("MODITER_")]:
        monkeypatch.delenv(name)


@pytest.fixture(scope="session")
def delta2100():
    return forms.builtin("delta", 2100)


@pytest.fixture(scope="session")
def delta6000():
    return forms.builtin("delta", 6000)


@pytest.fixture(scope="session")
def e4_200():
    return forms.builtin("E4", 200)


@pytest.fixture(scope="session")
def e4_2000():
    return forms.builtin("E4", 2000)
