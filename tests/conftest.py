import os

# One BLAS thread, as the benchmark worker runs: set before anything loads
# numpy, since OpenBLAS reads it once.  Small products such as the power-table
# product in forms.horner_many run slower threaded on a small host.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from moditer import forms  # noqa: E402


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
