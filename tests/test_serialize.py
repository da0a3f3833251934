import json

import numpy as np

from gptpurity.serialize import (complex_to_pairs, dump_json, pairs_to_complex,
                                 round_floats)


def test_complex_pairs_roundtrip():
    rng = np.random.default_rng(2)
    arr = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    again = pairs_to_complex(complex_to_pairs(arr))
    np.testing.assert_allclose(again, arr, atol=0)


def test_floats_printed_with_12_significant_digits():
    text = dump_json({"x": 1.0 / 3.0})
    assert text == '{\n  "x": 0.333333333333\n}'
    assert round_floats(123456789.123456789) == 123456789.123


def test_dump_json_sorted_and_stable():
    payload = {"b": [1.5, 2.25], "a": {"z": 0.1, "y": np.float64(0.2)}}
    one = dump_json(payload)
    two = dump_json(json.loads(one))
    assert one == two
    assert one.index('"a"') < one.index('"b"')
