"""Solver configuration knobs.

The underlying theory only fixes an ordering of constants
(eps' << Delta_0 << 1, 3/4 < theta < 1); the concrete defaults here are
calibrated so the whole acceptance suite passes at desk scale, and every
knob can be overridden from the CLI or a key=value config file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .errors import ParseError


def as_fraction(x) -> Fraction:
    """Exact rational view of a config value (floats go through str so that
    0.05 means 1/20, not its binary approximation)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def ceil_frac(x: Fraction) -> int:
    """Exact ceiling of a rational (or int)."""
    return -(-x.numerator // x.denominator)


def floor_frac(x: Fraction) -> int:
    """Exact floor of a rational (or int)."""
    return x.numerator // x.denominator


@lru_cache(maxsize=8)
def _degree_floor(eps_prime) -> tuple[int, int]:
    """2/3 - eps' as (numerator, denominator), with eps' read as an exact
    rational; cached because parsing the float's text costs microseconds
    and solve and every augmentation step test the floor."""
    eps = as_fraction(eps_prime)
    return 2 * eps.denominator - 3 * eps.numerator, 3 * eps.denominator


@dataclass(frozen=True)
class Config:
    delta0: float = 0.05        # extreme-case pairwise density threshold
    theta: float = 0.8          # degree fraction used by the A'/B'/C' partition
    eps_prime: float = 0.02     # slack below the 2/3 degree fraction
    seed: int = 0
    exact_limit: int = 15       # max N for falling back to the exact oracle

    def __post_init__(self):
        if not 0 < self.delta0 < 1:
            raise ValueError("delta0 must be in (0,1)")
        if not 0.75 < self.theta < 1:
            raise ValueError("theta must be in (3/4,1)")
        if not 0 <= self.eps_prime < Fraction(1, 12):
            raise ValueError("eps_prime must be in [0,1/12)")
        if self.exact_limit < 0:
            raise ValueError("exact_limit must be nonnegative")

    @property
    def delta0_frac(self) -> Fraction:
        return as_fraction(self.delta0)

    def meets_degree_floor(self, dmin: int, n: int) -> bool:
        """dmin >= (2/3 - eps')N, cross-multiplied."""
        num, den = _degree_floor(self.eps_prime)
        return den * dmin >= num * n

    def with_seed(self, seed: int) -> "Config":
        return replace(self, seed=seed)


_FIELD_TYPES = {"delta0": float, "theta": float, "eps_prime": float,
                "seed": int, "exact_limit": int}


def load_config(path, base: Config | None = None) -> Config:
    """Read a key=value file (one pair per line, # comments) into a Config.

    A malformed line, an unknown key, a value of the wrong type or out of
    its range raises ParseError with the line number."""
    cfg = base or Config()
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(lineno, "expected key=value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _FIELD_TYPES:
                raise ParseError(lineno, f"unknown config key {key!r}")
            kind = _FIELD_TYPES[key]
            try:
                cfg = replace(cfg, **{key: kind(val)})
            except ValueError as exc:
                raise ParseError(lineno, f"bad {key} {val!r}: {exc}") from None
    return cfg
