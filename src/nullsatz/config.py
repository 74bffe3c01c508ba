"""Run configuration shared by the command line and embedded in reports."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .bergman import N_MAX, R_GRID_DEFAULT, RATIO_SAMPLES, DomainSpec
from .bergman import check_r_grid
from .hopf import ALPHA_GRID
from .nullsatz import GRID_PITCH

ENV_SEED = "NULLSATZ_SEED"


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of the settings a run reads; serialized into reports.

    Identical configs and inputs must reproduce byte-identical reports, so
    nothing here may be derived from wall clock or process state.  Each
    default is the module constant the library itself uses.
    """

    domain: DomainSpec = field(default_factory=DomainSpec.ball)
    seed: int = 0
    samples: int = RATIO_SAMPLES
    r_grid: tuple[float, ...] = R_GRID_DEFAULT
    n_max: int = N_MAX
    alpha_grid: int = ALPHA_GRID
    pitch: float = GRID_PITCH

    def __post_init__(self):
        if not (isinstance(self.pitch, float) and self.pitch > 0.0):
            raise ValueError(f"pitch must be a positive float, got {self.pitch!r}")
        for name in ("samples", "n_max", "alpha_grid"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v > 0):
                raise ValueError(f"{name} must be a positive int, got {v!r}")
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        check_r_grid(self.r_grid)
        if not isinstance(self.domain, DomainSpec):
            raise ValueError("domain must be a DomainSpec")
        object.__setattr__(self, "r_grid", tuple(float(r) for r in self.r_grid))

    def with_env_seed(self) -> "RunConfig":
        """NULLSATZ_SEED in the environment wins over the configured seed."""
        raw = os.environ.get(ENV_SEED)
        if raw is None:
            return self
        try:
            return replace(self, seed=int(raw))
        except ValueError:
            raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from None

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain.to_json_dict(),
            "seed": self.seed,
            "samples": self.samples,
            "r_grid": list(self.r_grid),
            "n_max": self.n_max,
            "alpha_grid": self.alpha_grid,
            "pitch": self.pitch,
        }
