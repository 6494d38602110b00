import pytest

from levyescape import dynamics


@pytest.fixture(autouse=True)
def empty_start_memo(monkeypatch):
    """Each test starts with no ``SasStream`` start memo: none depends on the order of tests."""
    monkeypatch.setattr(dynamics, "_start_memo", None)
