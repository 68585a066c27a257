import pytest

from hnzz.config import GuardConfig, load_guard
from hnzz.errors import ParseError


class TestGuardConfig:
    def test_defaults(self):
        g = GuardConfig()
        assert g.max_enum_dim == 6
        assert g.max_enum_p == 3
        assert g.total_cap(2) == 8
        assert g.total_cap(3) == 6
        assert g.total_cap(5) == 0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HNZZ_GUARD_OVERRIDE", "dim=8, p=5, total2=12, total5=4")
        g = load_guard()
        assert g.max_enum_dim == 8
        assert g.max_enum_p == 5
        assert g.total_cap(2) == 12
        assert g.total_cap(3) == 6
        assert g.total_cap(5) == 4

    def test_env_absent(self, monkeypatch):
        monkeypatch.delenv("HNZZ_GUARD_OVERRIDE", raising=False)
        assert load_guard() == GuardConfig()

    def test_bad_key(self, monkeypatch):
        monkeypatch.setenv("HNZZ_GUARD_OVERRIDE", "speed=11")
        with pytest.raises(ValueError):
            load_guard()

    def test_bad_value_is_parse_error(self, monkeypatch):
        monkeypatch.setenv("HNZZ_GUARD_OVERRIDE", "dim=x")
        with pytest.raises(ParseError):
            load_guard()
