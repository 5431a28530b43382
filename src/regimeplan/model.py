"""Parameter containers, validation, and JSON config files.

A Generator or ModelParams holding a non-finite number or a negative rate
cannot be built; positivity and row sums are reported by validate_params.

The market regime follows a continuous-time Markov chain on {1, ..., m}
with generator Q (off-diagonal q_ij >= 0, rows summing to zero).  Given a
regime i, inventory evolves as

    dX_t = (u_t - theta(i)) dt + sigma(i) dW_t,

where u_t is the production rate and theta(i) the demand rate, and the
discounted cost integrand is

    f(x, i, u) = 1/2 [ N(i) (x - c(i))^2 + R(i) (u - h(i))^2 ],

with factory-optimal inventory level c(i) and production rate h(i).
Regimes are 1-based in every public interface and file format; internal
arrays are 0-based.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "Generator",
    "ModelParams",
    "ValidationReport",
    "validate_params",
    "load_params",
    "params_from_config",
    "params_to_config",
    "CONFIG_KEYS",
]

#: Exact key set of a parameter file (JSON object).  `Q` is the generator in
#: row-major order (m*m entries); the remaining arrays have one entry per regime.
CONFIG_KEYS = ("m", "Q", "r", "theta", "sigma", "c", "h", "N", "R")

_ROW_SUM_TOL = 1e-12
#: Entry types a config list converts without a per-entry check (bool is
#: excluded: its type is bool, not int).
_PLAIN_NUMBERS = {int, float}


class ConfigError(ValueError):
    """Raised when a parameter file is malformed."""


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


class Generator:
    """Transition-rate matrix of the driving chain.

    Off-diagonal rates must be finite and nonnegative (ValueError otherwise).
    The diagonal is recomputed on construction as q_ii = -sum_{j != i} q_ij
    (row sums of a generator are structurally zero).  The absolute row-sum
    discrepancy of the supplied matrix is retained so that validation can
    flag inputs whose diagonal disagreed by more than 1e-12.
    """

    __slots__ = ("q", "row_sum_error")

    def __init__(self, q) -> None:
        q = np.array(q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 1:
            raise ValueError("generator must be a square matrix with m >= 1")
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        if not np.all(np.isfinite(off) & (off >= 0.0)):
            raise ValueError("generator off-diagonal rates must be finite and nonnegative")
        row_sums = q.sum(axis=1)
        np.fill_diagonal(off, -off.sum(axis=1))
        self.q = _frozen(off)
        self.row_sum_error = _frozen(np.abs(row_sums))

    @property
    def m(self) -> int:
        return self.q.shape[0]

    @classmethod
    def two_state_symmetric(cls, rate: float) -> "Generator":
        """Two-regime generator with equal switching rates q_12 = q_21 = rate."""
        return cls([[-rate, rate], [rate, -rate]])

    def __repr__(self) -> str:
        return f"Generator(m={self.m}, q={self.q.tolist()})"


class ModelParams:
    """All model parameters for an m-regime problem.

    Structure is raised, admissibility reported: construction requires every
    vector to have length m and every number to be finite (ValueError naming
    the field otherwise), while positivity is reported by
    :func:`validate_params` rather than raised, so that diagnostic tooling can
    inspect inadmissible parameter sets.
    """

    __slots__ = ("gen", "r", "theta", "sigma", "c", "h", "N", "R")

    def __init__(self, gen: Generator, r: float, theta, sigma, c, h, N, R) -> None:
        if not isinstance(gen, Generator):
            gen = Generator(gen)
        self.gen = gen
        self.r = float(r)
        if not math.isfinite(self.r):
            raise ValueError("r not finite")
        for name, val in (("theta", theta), ("sigma", sigma), ("c", c),
                          ("h", h), ("N", N), ("R", R)):
            arr = _frozen(val)
            if arr.shape != (gen.m,):
                raise ValueError(f"{name} must have length m={gen.m}, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} not finite")
            setattr(self, name, arr)

    @property
    def m(self) -> int:
        return self.gen.m

    def replace(self, **kw) -> "ModelParams":
        """Copy with the named fields replaced (used by parameter sweeps)."""
        fields = {name: getattr(self, name) for name in ("gen", "r", "theta", "sigma", "c", "h", "N", "R")}
        for key, val in kw.items():
            if key not in fields:
                raise ValueError(f"unknown field: {key}")
            fields[key] = val
        return ModelParams(**fields)

    def __repr__(self) -> str:
        return (f"ModelParams(m={self.m}, r={self.r}, theta={self.theta.tolist()}, "
                f"sigma={self.sigma.tolist()}, c={self.c.tolist()}, h={self.h.tolist()}, "
                f"N={self.N.tolist()}, R={self.R.tolist()})")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_params`: the list of violated invariants."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_params(p: ModelParams) -> ValidationReport:
    """Check the admissibility invariants; return the (possibly empty) violation list.

    Row sums within 1e-12 of zero, and r, sigma, c, h, N and R strictly
    positive; finiteness and the rates' signs already hold by construction.
    Pure and idempotent.  Messages use 1-based regime indices.
    """
    bad = [f"generator row {i + 1} sum nonzero"
           for i, err in enumerate(p.gen.row_sum_error) if not err <= _ROW_SUM_TOL]
    if not p.r > 0:
        bad.append("r not positive")
    for name in ("sigma", "c", "h", "N", "R"):
        bad += [f"{name}({i + 1}) not positive"
                for i, v in enumerate(getattr(p, name)) if not v > 0]
    return ValidationReport(tuple(bad))


def _as_number(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key {key!r} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite")
    return value


def _as_numbers(values: list, key) -> np.ndarray:
    """A list of config numbers as one float array, checked as _as_number checks each.

    Lists of plain ints and floats convert at once; any other entry type, an
    overflowing integer or a non-finite value falls back to the per-entry
    scan, which raises the first entry's error.
    """
    if set(map(type, values)) <= _PLAIN_NUMBERS:
        try:
            arr = np.array(values, dtype=float)
        except OverflowError:  # an integer literal beyond the float range
            arr = None
        if arr is not None and np.isfinite(arr).all():
            return arr
    return np.array([_as_number(v, key) for v in values], dtype=float)


def _as_vector(value, key, m):
    if not isinstance(value, list) or len(value) != m:
        raise ConfigError(f"key {key!r} must be a list of {m} numbers")
    return _as_numbers(value, key)


def load_params(path) -> ModelParams:
    """Parse a JSON parameter file.

    The file must be a JSON object with exactly the keys listed in
    :data:`CONFIG_KEYS`; unknown and missing keys are rejected by name.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return params_from_config(raw)


def params_from_config(raw) -> ModelParams:
    """Build :class:`ModelParams` from a decoded config mapping."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in raw:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key: {key}")
    for key in CONFIG_KEYS:
        if key not in raw:
            raise ConfigError(f"missing key: {key}")
    m = raw["m"]
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ConfigError("key 'm' must be a positive integer")
    qflat = raw["Q"]
    if not isinstance(qflat, list) or len(qflat) != m * m:
        raise ConfigError(f"key 'Q' must be a row-major list of {m * m} rates")
    gen = Generator(_as_numbers(qflat, "Q").reshape(m, m))
    return ModelParams(
        gen=gen,
        r=_as_number(raw["r"], "r"),
        theta=_as_vector(raw["theta"], "theta", m),
        sigma=_as_vector(raw["sigma"], "sigma", m),
        c=_as_vector(raw["c"], "c", m),
        h=_as_vector(raw["h"], "h", m),
        N=_as_vector(raw["N"], "N", m),
        R=_as_vector(raw["R"], "R", m),
    )


def params_to_config(p: ModelParams) -> dict:
    """Inverse of :func:`params_from_config` (row-major Q, plain lists)."""
    return {
        "m": p.m,
        "Q": p.gen.q.ravel().tolist(),
        "r": p.r,
        "theta": p.theta.tolist(),
        "sigma": p.sigma.tolist(),
        "c": p.c.tolist(),
        "h": p.h.tolist(),
        "N": p.N.tolist(),
        "R": p.R.tolist(),
    }
