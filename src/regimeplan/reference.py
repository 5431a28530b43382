"""Built-in benchmark economy and the reference values it must reproduce.

The two-regime benchmark and the four one-parameter sensitivity sweeps are
the regression surface of the package.  The embedded JSON table is their
only list: each entry names a swept quantity and its value with the
reference solution values at 3-decimal precision, next to the matching
comparison tolerance.  SWEEPS groups the table's values by quantity, in
table order, with vector values as tuples.
"""

import json
from importlib import resources

import numpy as np

from .model import Generator, ModelParams

__all__ = [
    "SWEEPS",
    "benchmark_params",
    "expected_values",
    "sweep_params",
]


def benchmark_params() -> ModelParams:
    """The two-regime test economy every regression check runs against."""
    return ModelParams(
        gen=Generator([[-1.0, 1.0], [1.0, -1.0]]),
        r=0.05,
        theta=(4.0, 2.5),
        sigma=(0.6, 0.8),
        c=(3.0, 1.5),
        h=(5.0, 4.0),
        N=(0.4, 0.3),
        R=(0.5, 0.4),
    )


def expected_values() -> dict:
    """Embedded reference values plus their comparison tolerance."""
    text = resources.files("regimeplan").joinpath(
        "data/expected_values.json").read_text(encoding="utf-8")
    return json.loads(text)


# The table's values per swept quantity (q is the symmetric switching rate).
# The benchmark setting is the middle entry for r and theta and the first for
# q; the benchmark's sigma = (0.6, 0.8) is in no sweep.
_TABLE = expected_values()["table"]
SWEEPS = {param: tuple(tuple(e["value"]) if isinstance(e["value"], list) else e["value"]
                       for e in _TABLE if e["param"] == param)
          for param in dict.fromkeys(e["param"] for e in _TABLE)}


def sweep_params(p: ModelParams, param: str, value) -> ModelParams:
    """A copy of p with one swept quantity replaced.

    q sweeps require a symmetric two-regime generator (the swept quantity is
    the common switching rate); theta and sigma values must be full vectors.
    """
    if param == "r":
        return p.replace(r=float(value))
    if param == "q":
        if p.m != 2 or abs(p.gen.q[0, 1] - p.gen.q[1, 0]) > 1e-12:
            raise ValueError("q sweeps need a symmetric two-regime generator")
        return p.replace(gen=Generator.two_state_symmetric(float(value)))
    if param in ("theta", "sigma"):
        vec = np.asarray(value, dtype=float).reshape(-1)
        if vec.shape != (p.m,):
            raise ValueError(f"{param} sweep value must have length {p.m}")
        return p.replace(**{param: vec})
    raise ValueError(f"unknown sweep parameter: {param}")
