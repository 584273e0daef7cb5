"""Wire-protocol unit tests: parsing, validation, error payloads."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve.protocol import (
    ERROR_CODES,
    OPS,
    RequestError,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)


class TestParseRequest:
    def test_merge_roundtrip(self):
        req = parse_request(b'{"id": 7, "op": "merge", "a": [1, 3], "b": [2]}')
        assert req.op == "merge"
        assert req.req_id == 7
        np.testing.assert_array_equal(req.a, [1, 3])
        np.testing.assert_array_equal(req.b, [2])
        assert req.n_elems == 3

    def test_sort_roundtrip(self):
        req = parse_request('{"op": "sort", "data": [3, 1, 2]}')
        assert req.op == "sort"
        np.testing.assert_array_equal(req.data, [3, 1, 2])

    def test_topk_roundtrip(self):
        req = parse_request(
            '{"op": "topk", "a": [1, 2], "b": [0], "k": 2}'
        )
        assert req.k == 2

    def test_empty_array_is_int64(self):
        # An empty JSON array must not poison the dtype to float64:
        # merging [] with ints has to stay bit-identical to the oracle.
        req = parse_request('{"op": "merge", "a": [], "b": [1, 2]}')
        assert req.a.dtype == np.int64

    def test_invalid_json_rejected(self):
        with pytest.raises(RequestError) as err:
            parse_request(b"{nope")
        assert err.value.kind == "bad-request"
        assert err.value.code == 400

    def test_non_object_rejected(self):
        with pytest.raises(RequestError):
            parse_request(b"[1, 2, 3]")

    def test_unknown_op_rejected(self):
        with pytest.raises(RequestError) as err:
            parse_request('{"id": 3, "op": "shuffle"}')
        assert err.value.kind == "bad-request"
        assert err.value.req_id == 3  # id still echoed on errors

    def test_missing_array_rejected(self):
        with pytest.raises(RequestError):
            parse_request('{"op": "merge", "a": [1]}')

    def test_unsorted_input_rejected(self):
        with pytest.raises(RequestError) as err:
            parse_request('{"op": "merge", "a": [3, 1], "b": []}')
        assert "sorted" in err.value.message

    @pytest.mark.parametrize("op, extra", [("merge", ""), ("topk", ', "k": 2')])
    @pytest.mark.parametrize("a, b", [
        ("[1.0, NaN, 0.5]", "[0.25]"),
        ("[0.25]", "[NaN, 1.0]"),
    ])
    def test_nan_before_a_number_rejected(self, op, extra, a, b):
        """NumPy's order puts NaN last: a NaN followed by a number is a
        descent, although ``<`` with NaN is always false."""
        with pytest.raises(RequestError) as err:
            parse_request(f'{{"op": "{op}", "a": {a}, "b": {b}{extra}}}')
        assert err.value.kind == "bad-request"
        assert "sorted" in err.value.message

    def test_nan_last_accepted(self):
        req = parse_request(
            '{"op": "topk", "a": [0.5, NaN, NaN], "b": [-Infinity, 1.0], "k": 2}')
        assert req.k == 2

    def test_nested_array_rejected(self):
        with pytest.raises(RequestError):
            parse_request('{"op": "sort", "data": [[1], [2]]}')

    def test_non_numeric_array_rejected(self):
        with pytest.raises(RequestError):
            parse_request('{"op": "sort", "data": ["a", "b"]}')

    def test_bool_array_rejected(self):
        with pytest.raises(RequestError):
            parse_request('{"op": "sort", "data": [true, false]}')

    @pytest.mark.parametrize("k", [-1, 4, "2", None, True])
    def test_topk_bad_k_rejected(self, k):
        payload = json.dumps(
            {"op": "topk", "a": [1, 2], "b": [3], "k": k}
        )
        with pytest.raises(RequestError):
            parse_request(payload)

    def test_topk_k_bounds_inclusive(self):
        for k in (0, 3):
            req = parse_request(json.dumps(
                {"op": "topk", "a": [1, 2], "b": [3], "k": k}
            ))
            assert req.k == k

    def test_too_large_rejected_with_413(self):
        with pytest.raises(RequestError) as err:
            parse_request(
                '{"op": "merge", "a": [1, 2, 3], "b": [4]}', max_elems=3
            )
        assert err.value.kind == "too-large"
        assert err.value.code == 413

    @pytest.mark.parametrize("deadline", [0, -5, "soon"])
    def test_bad_deadline_rejected(self, deadline):
        with pytest.raises(RequestError):
            parse_request(json.dumps(
                {"op": "ping", "deadline_ms": deadline}
            ))

    def test_default_deadline_applied(self):
        req = parse_request('{"op": "ping"}', default_deadline_ms=25.0)
        assert req.deadline_ms == 25.0
        assert req.remaining_s(req.received_at) == pytest.approx(0.025)

    def test_explicit_deadline_beats_default(self):
        req = parse_request(
            '{"op": "ping", "deadline_ms": 10}', default_deadline_ms=99.0
        )
        assert req.deadline_ms == 10.0

    def test_no_deadline_means_none_remaining(self):
        req = parse_request('{"op": "ping"}')
        assert req.remaining_s() is None


class TestResponses:
    def test_ok_response_serializes_ndarray(self):
        line = ok_response(5, np.array([1, 2, 3]), n=3)
        doc = json.loads(line)
        assert doc == {"id": 5, "ok": True, "result": [1, 2, 3], "n": 3}
        assert line.endswith(b"\n")

    def test_error_response_shape(self):
        doc = json.loads(error_response(RequestError("shed", "busy", 9)))
        assert doc["id"] == 9
        assert doc["ok"] is False
        assert doc["error"] == {"code": 429, "kind": "shed",
                                "message": "busy"}

    def test_every_kind_has_a_code(self):
        for kind, code in ERROR_CODES.items():
            assert RequestError(kind, "x").code == code

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            RequestError("teapot", "x")

    def test_encode_line_compact(self):
        assert encode_line({"a": 1}) == b'{"a":1}\n'

    def test_ops_frozen(self):
        assert OPS == ("merge", "sort", "topk", "ping", "metrics")
