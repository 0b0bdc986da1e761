"""Unit tests for machine configuration and the environment knobs."""

import dataclasses
import pathlib

import pytest

from repro import telemetry
from repro.cli import main as cli_main
from repro.config import (
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    MachineConfig,
    MultipathConfig,
    RepairMechanism,
    StackOrganization,
    baseline_config,
    table1_rows,
)
from repro.config import env
from repro.config.options import PRIMARY_MECHANISMS
from repro.core.executor import ResultCache
from repro.errors import ConfigError


class TestBaseline:
    def test_table1_shape(self):
        config = baseline_config()
        rows = table1_rows(config)
        names = [name for name, _ in rows]
        assert "return-address stack" in names
        assert "direction predictor" in names
        assert all(isinstance(value, str) for _, value in rows)

    def test_baseline_matches_paper(self):
        config = baseline_config()
        assert config.core.ruu_size == 64
        assert config.core.lsq_size == 32
        assert config.core.fetch_width == 4
        assert config.predictor.gag_entries == 4096
        assert config.predictor.pag_history_entries == 1024
        assert config.predictor.pag_history_bits == 10
        assert config.predictor.ras_entries == 32
        assert config.multipath.max_paths == 1

    def test_configs_frozen(self):
        config = baseline_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.core.ruu_size = 1  # type: ignore[misc]


class TestDerivedConfigs:
    def test_with_repair(self):
        config = baseline_config().with_repair(RepairMechanism.NONE)
        assert config.predictor.ras_repair is RepairMechanism.NONE
        # the original default is untouched
        assert baseline_config().predictor.ras_repair is not RepairMechanism.NONE

    def test_with_ras_entries(self):
        config = baseline_config().with_ras_entries(4)
        assert config.predictor.ras_entries == 4

    def test_without_ras(self):
        config = baseline_config().without_ras()
        assert not config.predictor.ras_enabled
        assert "BTB-only" in dict(table1_rows(config))["return-address stack"]

    def test_with_multipath(self):
        config = baseline_config().with_multipath(4, StackOrganization.PER_PATH)
        assert config.multipath.max_paths == 4
        assert config.multipath.stack_organization is StackOrganization.PER_PATH
        assert any(name == "multipath" for name, _ in table1_rows(config))


class TestValidation:
    def test_gag_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            BranchPredictorConfig(gag_entries=1000)

    def test_ras_entries_positive(self):
        with pytest.raises(ConfigError):
            BranchPredictorConfig(ras_entries=0)

    def test_cache_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", size_bytes=1000, assoc=2, line_bytes=64, hit_latency=1)

    def test_cache_set_count(self):
        cache = CacheConfig("ok", size_bytes=64 * 1024, assoc=2, line_bytes=64,
                            hit_latency=1)
        assert cache.num_sets == 512

    def test_core_widths(self):
        with pytest.raises(ConfigError):
            CoreConfig(fetch_width=0)

    def test_ifq_fits_fetch(self):
        with pytest.raises(ConfigError):
            CoreConfig(fetch_width=8, ifq_size=4)

    def test_multipath_threshold_range(self):
        with pytest.raises(ConfigError):
            MultipathConfig(confidence_threshold=99)

    def test_shadow_slots_nonnegative(self):
        with pytest.raises(ConfigError):
            BranchPredictorConfig(shadow_checkpoint_slots=-1)


class TestMechanismEnum:
    def test_primary_mechanism_order(self):
        assert PRIMARY_MECHANISMS[0] is RepairMechanism.NONE
        assert PRIMARY_MECHANISMS[-1] is RepairMechanism.FULL_STACK

    def test_string_values_stable(self):
        # benchmark scripts key off these strings; they must not change.
        assert str(RepairMechanism.TOS_POINTER_AND_CONTENTS) == "tos-pointer-contents"
        assert str(StackOrganization.PER_PATH) == "per-path"


class TestEnvKnobs:
    """repro.config.env: one reader, one rule for every REPRO_* value."""

    KNOBS = ("REPRO_SCALE", "REPRO_SEED", "REPRO_JOBS", "REPRO_CACHE_DIR",
             "REPRO_CACHE", "REPRO_TELEMETRY", "REPRO_PROFILE")
    SWITCHES = (env.cache_enabled, env.telemetry_enabled,
                env.profiling_enabled)

    @pytest.mark.parametrize("value", [None, ""])
    def test_unset_or_empty_means_default(self, monkeypatch, value):
        for name in self.KNOBS:
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        assert (env.scale(), env.seed(), env.jobs()) == (0.25, 1, 1)
        assert env.cache_root() == (
            pathlib.Path.home() / ".cache" / "repro-sim")
        assert [read() for read in self.SWITCHES] == [True, True, False]

    @pytest.mark.parametrize("raw, expected", [
        ("1", True), ("TRUE", True), ("on", True), ("Yes", True),
        ("0", False), ("false", False), ("OFF", False), ("no", False),
    ])
    def test_every_switch_reads_the_same_spellings(self, monkeypatch, raw,
                                                   expected):
        for name in ("REPRO_CACHE", "REPRO_TELEMETRY", "REPRO_PROFILE"):
            monkeypatch.setenv(name, raw)
        assert [read() for read in self.SWITCHES] == [expected] * 3

    def test_telemetry_false_turns_telemetry_off(self, monkeypatch):
        telemetry.set_enabled(None)  # no override: the env decides
        monkeypatch.setenv("REPRO_TELEMETRY", "false")
        assert not telemetry.enabled()

    def test_malformed_switch_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "maybe")
        with pytest.raises(ConfigError, match="REPRO_CACHE='maybe'"):
            ResultCache.default()

    def test_malformed_number_exits_2_with_one_line(self, monkeypatch,
                                                    capsys):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        assert cli_main(["table1"]) == 2
        err = capsys.readouterr().err
        assert err == "repro-sim: REPRO_JOBS='abc' is not an integer\n"
        monkeypatch.delenv("REPRO_JOBS")
        monkeypatch.setenv("REPRO_SCALE", "abc")
        with pytest.raises(ConfigError, match="REPRO_SCALE"):
            env.scale()
