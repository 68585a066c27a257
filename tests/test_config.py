from hnzz.config import DEFAULT_GUARD, GuardConfig


class TestGuardConfig:
    def test_defaults(self):
        g = GuardConfig()
        assert g.max_enum_dim == 6
        assert g.max_enum_p == 3
        assert g.total_cap(2) == 8
        assert g.total_cap(3) == 6
        assert g.total_cap(5) == 0
        assert DEFAULT_GUARD == g
