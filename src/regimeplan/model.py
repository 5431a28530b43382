"""Parameter containers, validation, and JSON config files.

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
    "save_params",
    "params_from_config",
    "params_to_config",
    "CONFIG_KEYS",
]

#: Exact key set of a parameter file (JSON object).  `Q` is the generator in
#: row-major order (m*m entries); the remaining arrays have one entry per regime.
CONFIG_KEYS = ("m", "Q", "r", "theta", "sigma", "c", "h", "N", "R")

_ROW_SUM_TOL = 1e-12


class ConfigError(ValueError):
    """Raised when a parameter file is malformed."""


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


class Generator:
    """Transition-rate matrix of the driving chain.

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
        row_sums = q.sum(axis=1)
        off = q.copy()
        np.fill_diagonal(off, 0.0)
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

    Construction enforces shape consistency (every vector must have length m);
    value-domain constraints such as positivity are reported by
    :func:`validate_params` rather than raised, so that diagnostic tooling can
    inspect invalid parameter sets.
    """

    __slots__ = ("gen", "r", "theta", "sigma", "c", "h", "N", "R")

    def __init__(self, gen: Generator, r: float, theta, sigma, c, h, N, R) -> None:
        if not isinstance(gen, Generator):
            gen = Generator(gen)
        self.gen = gen
        self.r = float(r)
        for name, val in (("theta", theta), ("sigma", sigma), ("c", c),
                          ("h", h), ("N", N), ("R", R)):
            arr = _frozen(val)
            if arr.shape != (gen.m,):
                raise ValueError(f"{name} must have length m={gen.m}, got shape {arr.shape}")
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
    """Check every model invariant; return the (possibly empty) violation list.

    Pure and idempotent.  Messages use 1-based regime indices.
    """
    bad = []
    q = p.gen.q
    m = p.m
    for i in range(m):
        if not p.gen.row_sum_error[i] <= _ROW_SUM_TOL:
            bad.append(f"generator row {i + 1} sum nonzero")
        for j in range(m):
            if i == j:
                continue
            if not math.isfinite(q[i, j]):
                bad.append(f"generator entry ({i + 1},{j + 1}) not finite")
            elif q[i, j] < 0:
                bad.append(f"generator entry ({i + 1},{j + 1}) negative")
    if not math.isfinite(p.r):
        bad.append("r not finite")
    elif not p.r > 0:
        bad.append("r not positive")
    for name in ("theta", "sigma", "c", "h", "N", "R"):
        vec = getattr(p, name)
        for i in range(m):
            if not math.isfinite(vec[i]):
                bad.append(f"{name}({i + 1}) not finite")
            elif name != "theta" and not vec[i] > 0:
                bad.append(f"{name}({i + 1}) not positive")
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


def _as_vector(value, key, m):
    if not isinstance(value, list) or len(value) != m:
        raise ConfigError(f"key {key!r} must be a list of {m} numbers")
    return [_as_number(v, key) for v in value]


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
    qflat = [_as_number(v, "Q") for v in qflat]
    gen = Generator(np.array(qflat, dtype=float).reshape(m, m))
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
        "Q": [float(v) for v in p.gen.q.ravel()],
        "r": p.r,
        "theta": p.theta.tolist(),
        "sigma": p.sigma.tolist(),
        "c": p.c.tolist(),
        "h": p.h.tolist(),
        "N": p.N.tolist(),
        "R": p.R.tolist(),
    }


def save_params(p: ModelParams, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_config(p), fh, indent=2)
        fh.write("\n")
