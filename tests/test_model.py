"""Parameter containers, validation messages, and config file round-trips."""

import json

import numpy as np
import pytest

from regimeplan import (
    ConfigError,
    Generator,
    ModelParams,
    load_params,
    params_from_config,
    params_to_config,
    save_params,
    validate_params,
)


def two_regime(gen=None, **kw):
    fields = dict(
        gen=gen if gen is not None else Generator.two_state_symmetric(1.0),
        r=0.05, theta=[4.0, 2.5], sigma=[0.6, 0.8], c=[3.0, 1.5],
        h=[5.0, 4.0], N=[0.4, 0.3], R=[0.5, 0.4],
    )
    fields.update(kw)
    return ModelParams(**fields)


def test_generator_recomputes_diagonal():
    g = Generator([[9.0, 1.0], [2.0, -7.0]])
    assert np.allclose(g.q.sum(axis=1), 0.0)
    assert g.q[0, 0] == -1.0
    assert g.q[1, 1] == -2.0
    assert np.allclose(g.row_sum_error, [10.0, 5.0])


def test_generator_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        Generator([[0.0, 1.0]])


def test_generator_two_state_symmetric():
    g = Generator.two_state_symmetric(2.0)
    assert np.array_equal(g.q, [[-2.0, 2.0], [2.0, -2.0]])
    assert g.m == 2


def test_generator_matrix_is_read_only(p_bench):
    with pytest.raises(ValueError):
        p_bench.gen.q[0, 0] = 1.0


def test_params_arrays_are_read_only(p_bench):
    with pytest.raises(ValueError):
        p_bench.theta[0] = 0.0


def test_params_shape_mismatch_raises():
    with pytest.raises(ValueError, match="theta"):
        ModelParams(gen=Generator([[0.0]]), r=0.05, theta=[1.0, 2.0],
                    sigma=[0.5], c=[1.0], h=[1.0], N=[1.0], R=[1.0])


def test_params_replace(p_bench):
    p2 = p_bench.replace(r=0.08)
    assert p2.r == 0.08
    assert p_bench.r == 0.05
    assert np.array_equal(p2.theta, p_bench.theta)
    with pytest.raises(ValueError, match="unknown field"):
        p_bench.replace(bogus=1.0)


def test_validate_benchmark_clean(p_bench):
    rep = validate_params(p_bench)
    assert rep.ok
    assert rep.violations == ()


def test_validate_flags_row_sum():
    p = two_regime(gen=Generator([[-0.5, 1.0], [1.0, -1.0]]))
    rep = validate_params(p)
    assert not rep.ok
    assert "generator row 1 sum nonzero" in rep.violations


def test_validate_flags_negative_rate():
    p = two_regime(gen=Generator([[1.0, -1.0], [2.0, -2.0]]))
    rep = validate_params(p)
    assert "generator entry (1,2) negative" in rep.violations


def test_validate_flags_positivity():
    p = two_regime(r=0.0, R=[0.5, -0.4], sigma=[0.6, 0.0])
    rep = validate_params(p)
    assert "r not positive" in rep.violations
    assert "R(2) not positive" in rep.violations
    assert "sigma(2) not positive" in rep.violations
    assert "R(1) not positive" not in rep.violations


def test_validate_flags_non_finite():
    p = two_regime(gen=Generator([[-1.0, np.inf], [1.0, -1.0]]), r=np.inf,
                   theta=[np.nan, 2.5], N=[0.4, -np.inf])
    rep = validate_params(p)
    assert "generator entry (1,2) not finite" in rep.violations
    assert "r not finite" in rep.violations
    assert "theta(1) not finite" in rep.violations
    assert "N(2) not finite" in rep.violations
    assert "theta(2) not finite" not in rep.violations


def test_config_roundtrip(p_bench):
    raw = json.loads(json.dumps(params_to_config(p_bench)))
    p2 = params_from_config(raw)
    assert np.array_equal(p2.gen.q, p_bench.gen.q)
    assert p2.r == p_bench.r
    for name in ("theta", "sigma", "c", "h", "N", "R"):
        assert np.array_equal(getattr(p2, name), getattr(p_bench, name))


def test_config_rejects_unknown_key(p_bench):
    raw = params_to_config(p_bench)
    raw["extra"] = 1
    with pytest.raises(ConfigError, match="unknown key: extra"):
        params_from_config(raw)


def test_config_rejects_missing_key(p_bench):
    raw = params_to_config(p_bench)
    del raw["N"]
    with pytest.raises(ConfigError, match="missing key: N"):
        params_from_config(raw)


def test_config_rejects_bool_value(p_bench):
    raw = params_to_config(p_bench)
    raw["r"] = True
    with pytest.raises(ConfigError, match="must be a number"):
        params_from_config(raw)


@pytest.mark.parametrize("key, value", [("r", float("inf")), ("theta", [float("nan"), 2.5]),
                                        ("Q", [-1.0, float("-inf"), 1.0, -1.0]),
                                        ("N", [0.4, 10 ** 400])])
def test_config_rejects_non_finite(p_bench, key, value):
    raw = params_to_config(p_bench)
    raw[key] = value
    with pytest.raises(ConfigError, match=f"key '{key}' must be finite"):
        params_from_config(raw)


def test_config_rejects_wrong_q_length(p_bench):
    raw = params_to_config(p_bench)
    raw["Q"] = [0.0, 1.0]
    with pytest.raises(ConfigError, match="row-major list of 4"):
        params_from_config(raw)


def test_config_rejects_non_object():
    with pytest.raises(ConfigError, match="JSON object"):
        params_from_config([1, 2, 3])


def test_config_rejects_bad_m(p_bench):
    raw = params_to_config(p_bench)
    raw["m"] = 0
    with pytest.raises(ConfigError, match="positive integer"):
        params_from_config(raw)


def test_save_load_roundtrip(tmp_path, p_bench):
    fn = tmp_path / "params.json"
    save_params(p_bench, fn)
    p2 = load_params(fn)
    assert np.array_equal(p2.gen.q, p_bench.gen.q)
    assert p2.r == p_bench.r
    assert np.array_equal(p2.N, p_bench.N)


def test_load_missing_file():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_params("/no/such/file.json")


def test_load_invalid_json(tmp_path):
    fn = tmp_path / "bad.json"
    fn.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_params(fn)
