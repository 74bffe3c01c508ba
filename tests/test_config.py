"""RunConfig validation and environment override."""

import dataclasses
import json

import pytest

from nullsatz import cli
from nullsatz.bergman import DomainSpec
from nullsatz.config import RunConfig


class TestValidation:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.domain == DomainSpec.ball()
        assert cfg.seed == 0

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError, match="pitch"):
            RunConfig(pitch=0.0)
        with pytest.raises(ValueError, match="pitch"):
            RunConfig(pitch=-0.01)

    def test_rejects_bad_r_grid(self):
        with pytest.raises(ValueError, match="r_grid"):
            RunConfig(r_grid=(0.4, 0.6))
        with pytest.raises(ValueError, match="r_grid"):
            RunConfig(r_grid=(1.0,))
        with pytest.raises(ValueError, match="r_grid"):
            RunConfig(r_grid=())

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="samples"):
            RunConfig(samples=0)
        with pytest.raises(ValueError, match="n_max"):
            RunConfig(n_max=-1)

    def test_rejects_non_domain(self):
        with pytest.raises(ValueError, match="domain"):
            RunConfig(domain="ball")


class TestSerialization:
    def test_json_stable(self):
        cfg = RunConfig(domain=DomainSpec(p=1.0, q=3.0), seed=5)
        a = json.dumps(cfg.to_json_dict(), sort_keys=True)
        b = json.dumps(RunConfig(domain=DomainSpec(p=1.0, q=3.0), seed=5).to_json_dict(),
                       sort_keys=True)
        assert a == b
        back = json.loads(a)
        assert back["domain"] == {"p": 1.0, "q": 3.0}
        assert back["seed"] == 5


class TestSurface:
    def test_every_setting_has_a_flag_and_a_report_key(self):
        # a RunConfig field no flag sets would be written into every report
        # while holding the same value in every run
        fields = [f.name for f in dataclasses.fields(RunConfig)]
        settings = set(fields) - {"domain", "seed"}
        flags = {flag.lstrip("-").replace("-", "_") for flag in cli._SETTINGS}
        assert settings == flags
        assert set(RunConfig().to_json_dict()) == set(fields)
