"""Eager configuration validation: impossible runs fail at construction.

Long runs make late failures expensive -- a config that can never
simulate must be rejected when it is built, with a message naming the
offending knob, not hours later inside a worker. These are the
rejection matrices for :class:`repro.sim.system.SimulationConfig` and
the TLB geometry dataclasses.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.osmem.kernel import KernelConfig
from repro.sim.system import SimulationConfig
from repro.tlb.config import (
    FullyAssociativeTLBConfig,
    SetAssociativeTLBConfig,
)


class TestSimulationConfigValidation:
    def test_defaults_are_valid(self):
        SimulationConfig()

    @pytest.mark.parametrize("kwargs, needle", [
        ({"accesses": 0}, "accesses"),
        ({"accesses": -5}, "accesses"),
        ({"memhog_fraction": 1.0}, "memhog_fraction"),
        ({"memhog_fraction": -0.1}, "memhog_fraction"),
        ({"scale": 0.0}, "scale"),
        ({"scale": -1.0}, "scale"),
        ({"tick_every": -1}, "tick_every"),
        ({"churn_every": -1}, "churn_every"),
        ({"churn_pages": -1}, "churn_pages"),
        ({"churn_live_limit": -1}, "churn_live_limit"),
        ({"churn_every": 10, "churn_pages": 0}, "churn_pages"),
        ({"llc_pollution_per_access": -0.5}, "llc_pollution"),
        ({"benchmark": "quake3"}, "quake3"),
    ])
    def test_rejection_matrix(self, kwargs, needle):
        with pytest.raises(ConfigurationError, match=needle):
            SimulationConfig(**kwargs)

    def test_footprint_must_fit_physical_memory(self):
        # mcf maps 26000 pages at scale 1.0; 1024 frames cannot hold it.
        with pytest.raises(ConfigurationError) as exc_info:
            SimulationConfig(
                benchmark="mcf", kernel=KernelConfig(num_frames=1024)
            )
        message = str(exc_info.value)
        assert "mcf" in message
        assert "num_frames" in message  # says what to change

    def test_footprint_scales_down_into_range(self):
        # The same machine is fine once the footprint is scaled down.
        SimulationConfig(
            benchmark="mcf",
            kernel=KernelConfig(num_frames=4096),
            scale=0.1,
        )

    def test_zero_disables_are_still_legal(self):
        SimulationConfig(
            tick_every=0, churn_every=0, churn_pages=0,
            churn_live_limit=0, llc_pollution_per_access=0.0,
        )

    def test_messages_name_the_offending_value(self):
        with pytest.raises(ConfigurationError, match="-3"):
            SimulationConfig(accesses=-3)
        with pytest.raises(ConfigurationError, match="known"):
            SimulationConfig(benchmark="doom")


class TestTLBGeometryValidation:
    def test_default_geometries_are_valid(self):
        SetAssociativeTLBConfig(32, 4)
        FullyAssociativeTLBConfig()

    def test_ways_exceeding_entries_is_named_explicitly(self):
        with pytest.raises(ConfigurationError) as exc_info:
            SetAssociativeTLBConfig(entries=4, ways=8, name="l1_tlb")
        message = str(exc_info.value)
        assert "associativity 8" in message
        assert "l1_tlb" in message

    @pytest.mark.parametrize("entries, ways", [
        (0, 1), (32, 0), (-4, 4),
    ])
    def test_non_positive_geometry(self, entries, ways):
        with pytest.raises(ConfigurationError, match=">= 1"):
            SetAssociativeTLBConfig(entries, ways)

    def test_non_power_of_two_set_count(self):
        # 24 entries / 4 ways = 6 sets: not indexable by bit masking.
        with pytest.raises(ConfigurationError, match="power of two"):
            SetAssociativeTLBConfig(24, 4)

    def test_indivisible_geometry(self):
        with pytest.raises(ConfigurationError, match="divisible"):
            SetAssociativeTLBConfig(30, 4)

    def test_index_shift_bounds(self):
        SetAssociativeTLBConfig(32, 4, index_shift=3)
        with pytest.raises(ConfigurationError, match="index_shift"):
            SetAssociativeTLBConfig(32, 4, index_shift=4)

    def test_fa_tlb_bounds(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            FullyAssociativeTLBConfig(entries=0)
        with pytest.raises(ConfigurationError, match="cache line"):
            FullyAssociativeTLBConfig(max_span=4)
