"""Wire formats: determinism, round trips, and input validation."""

import json
import math

import numpy as np
import pytest

from ltshadow.errors import DimensionMismatch
from ltshadow.linalg import rng_from_seed
from ltshadow.processes import swap_process
from ltshadow.serialize import (
    MAX_ENTRY,
    dumps,
    matrix_from_json,
    matrix_to_json,
    process_from_json,
    process_to_json,
)


def test_float_round_trip_17_digits():
    rng = rng_from_seed(80)
    values = list(rng.standard_normal(50)) + [0.0, 1.0, -0.25, 1e-300, 1 / 3]
    for v in values:
        text = dumps(float(v))
        assert float(json.loads(text)) == float(v)


def test_dumps_is_valid_json_and_deterministic():
    obj = {"a": [1, 2.5, True, None], "b": {"c": np.float64(0.1)}, "m": np.eye(2)}
    one = dumps(obj)
    two = dumps(obj)
    assert one == two
    parsed = json.loads(one)
    assert parsed["a"] == [1, 2.5, True, None]
    assert parsed["m"] == [[1, 0], [0, 1]]


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps(float("nan"))


def test_dumps_converts_numpy_values_and_tuples():
    obj = {"b": np.bool_(True), "i": np.int64(-3), "f": np.float32(0.1), "z": np.array(2.5),
           "n": [np.arange(6.0).reshape(1, 2, 3), np.array([np.int64(1)])], "t": (1, 2.0)}
    assert dumps(obj) == ('{"b":true,"i":-3,"f":0.10000000149011612,"z":2.5,'
                          '"n":[[[[0.0,1.0,2.0],[3.0,4.0,5.0]]],[1]],"t":[1,2.0]}')


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_dumps_refuses_non_finite_inside_nested_arrays(bad):
    with pytest.raises(ValueError, match="^cannot serialize non-finite float"):
        dumps({"a": [np.array([[1.0, bad]])]})
    with pytest.raises(ValueError, match="^cannot serialize non-finite float"):
        dumps({"a": (np.float64(bad),)})


@pytest.mark.parametrize("obj", [object(), {1, 2}, np.complex128(1j), [np.array([1j])]])
def test_dumps_refuses_unsupported_objects(obj):
    with pytest.raises(TypeError):
        dumps({"a": obj})


def test_dumps_round_trips_extreme_doubles_bit_for_bit():
    """Floats print in their shortest round-trip form, and -0.0 keeps its sign."""
    values = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 1 - 2**-52, 2.0]
    text = dumps(values)
    assert text == "[-0.0,5e-324,1e-300,1.7976931348623157e+308,0.9999999999999998,2.0]"
    back = json.loads(text)
    assert all(isinstance(v, float) for v in back)
    assert np.array(back).tobytes() == np.array(values).tobytes()
    assert math.copysign(1.0, json.loads(dumps(np.array([-0.0])))[0]) == -1.0


def test_matrix_round_trip():
    rng = rng_from_seed(81)
    m = rng.standard_normal((6, 6))
    obj = json.loads(dumps(matrix_to_json(m, dims=(2, 3))))
    back, dims = matrix_from_json(obj)
    np.testing.assert_array_equal(back, m)
    assert dims == (2, 3)


def test_matrix_from_json_accepts_integer_literals():
    back, dims = matrix_from_json({"dim": 2, "rows": [[1, 0], [0, 1]]})
    np.testing.assert_array_equal(back, np.eye(2))
    assert dims is None


def test_matrix_from_json_validation():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2})
    with pytest.raises(DimensionMismatch):
        matrix_from_json({"rows": [[1, 0, 0], [0, 1, 0]]})
    with pytest.raises(DimensionMismatch):
        matrix_from_json({"dim": 3, "rows": [[1, 0], [0, 1]]})
    with pytest.raises(DimensionMismatch):
        matrix_from_json({"dims": [2, 2], "rows": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": [[1, float("inf")], [0, 1]]})


def test_readers_bound_entry_magnitude():
    edge = np.full((2, 2), -MAX_ENTRY)
    np.testing.assert_array_equal(matrix_from_json({"rows": edge.tolist()})[0], edge)
    back = process_from_json({"in_dims": [1], "out_dims": [1], "matrix": [[MAX_ENTRY]]})
    assert back.matrix[0, 0] == MAX_ENTRY
    for big in (1.01 * MAX_ENTRY, -1e308, float("nan")):
        with pytest.raises(ValueError, match="magnitude"):
            matrix_from_json({"rows": [[1.0, big], [big, 1.0]]})
        with pytest.raises(ValueError, match="magnitude"):
            process_from_json({"in_dims": [1], "out_dims": [1], "matrix": [[big]]})


def test_process_round_trip():
    proc = swap_process((2, 2))
    obj = json.loads(dumps(process_to_json(proc)))
    back = process_from_json(obj)
    assert back.in_dims == (2, 2) and back.out_dims == (2, 2)
    np.testing.assert_array_equal(back.matrix, proc.matrix)


@pytest.mark.parametrize("key, value", [("dim", 2.5), ("dim", float("inf")), ("dims", [2.5, 1]),
                                        ("dims", [True, 2]), ("dims", ["2", 1])])
def test_matrix_from_json_refuses_non_integer_dims(key, value):
    """Declared dims are compared, not truncated: 2.5 is not 2."""
    with pytest.raises(DimensionMismatch):
        matrix_from_json({key: value, "rows": [[1, 0], [0, 1]]})


@pytest.mark.parametrize("entry", ["1", " 1e0 ", True, False])
def test_readers_refuse_entries_that_are_not_numbers(entry):
    """A string or a boolean entry is malformed input (exit 2), not a mismatch."""
    for read, obj in ((matrix_from_json, {"rows": [[entry]]}),
                      (process_from_json, {"in_dims": [1], "out_dims": [1], "matrix": [[entry]]})):
        with pytest.raises(ValueError, match="entries must be JSON numbers") as exc:
            read(obj)
        assert not isinstance(exc.value, DimensionMismatch)


def test_matrix_from_json_refuses_a_boolean_dim():
    """true == 1 in Python; a declared "dim" of true is refused as dims [true] are."""
    with pytest.raises(DimensionMismatch):
        matrix_from_json({"dim": True, "rows": [[1]]})


def test_matrix_from_json_accepts_integral_floats():
    assert matrix_from_json({"dim": 2.0, "dims": [2, 1.0], "rows": [[1, 0], [0, 1]]})[1] == (2, 1)
