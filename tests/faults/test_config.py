"""FaultConfig validation and CLI spec parsing."""

import pytest

from repro.errors import HarnessError
from repro.faults import FaultConfig


class TestValidation:
    def test_defaults_are_all_off(self):
        cfg = FaultConfig()
        assert cfg.crash_after_calls is None and cfg.crash_at is None

    @pytest.mark.parametrize("field", ["drop", "duplicate", "corrupt",
                                       "delay", "kernel_fault",
                                       "transform_fail_rate", "lost_ack"])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(HarnessError):
            FaultConfig(**{field: 1.5})
        with pytest.raises(HarnessError):
            FaultConfig(**{field: -0.1})

    def test_slot_fault_rate_must_be_nonnegative(self):
        with pytest.raises(HarnessError):
            FaultConfig(slot_fault_rate=-1.0)
        FaultConfig(slot_fault_rate=7.5)  # a rate, not a probability


class TestParse:
    def test_parses_typed_fields(self):
        cfg = FaultConfig.parse("seed=7,drop=0.25,crash_at=3.0,"
                                "crash_after_calls=12")
        assert cfg.seed == 7 and isinstance(cfg.seed, int)
        assert cfg.drop == 0.25
        assert cfg.crash_at == 3.0
        assert cfg.crash_after_calls == 12

    def test_whitespace_tolerated(self):
        cfg = FaultConfig.parse(" seed=1 , lost_ack=0.5 ")
        assert cfg.seed == 1 and cfg.lost_ack == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(HarnessError, match="known keys"):
            FaultConfig.parse("seed=1,gremlins=0.5")

    def test_bad_value_rejected(self):
        with pytest.raises(HarnessError):
            FaultConfig.parse("drop=lots")

    def test_out_of_range_value_rejected(self):
        with pytest.raises(HarnessError):
            FaultConfig.parse("drop=2.0")
