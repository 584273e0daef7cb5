"""Wire-protocol unit tests: parsing, validation, error payloads."""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import protocol
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

    @pytest.mark.parametrize("line", [
        b"[" * 100_000,
        b'{"op":"sort","data":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ], ids=["bare", "in-a-field"])
    def test_nesting_past_the_recursion_limit_rejected(self, line):
        """A 400, not the ``RecursionError`` json raises."""
        with pytest.raises(RequestError) as err:
            parse_request(line)
        assert err.value.kind == "bad-request"

    @pytest.mark.parametrize("line", [
        b'{"op":"sort","data":[' + b"7" * 5000 + b"]}",
        b'{"id":' + b"7" * 5000 + b',"op":"ping"}',
        b'{"id":"\xc3\xa9","op":"sort","data":[' + b"7" * 5000 + b"]}",
    ], ids=["in-data", "in-id", "non-ascii-line"])
    def test_integer_past_the_digit_limit_rejected(self, line):
        """A 400, not the plain ``ValueError`` json raises for an integer
        longer than ``sys.get_int_max_str_digits()`` (4300)."""
        with pytest.raises(RequestError) as err:
            parse_request(line)
        assert err.value.kind == "bad-request"

    def test_deadline_past_the_float_range_rejected(self):
        """``float()`` of a 401-digit deadline raises ``OverflowError``."""
        with pytest.raises(RequestError) as err:
            parse_request(b'{"id":4,"op":"ping","deadline_ms":1' + b"0" * 400
                          + b"}")
        assert err.value.kind == "bad-request"
        assert err.value.req_id == 4

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

    @pytest.mark.parametrize("data", [
        "[true, false]", '["a", "b"]', '[1, "2"]',
        "[[1], [2]]", "[[1], [2, 3]]", "[1, null]", "[null]", "[1, {}]",
        "[18446744073709551616]", "[1.5, 18446744073709551616]",
    ])
    @pytest.mark.parametrize("op", ["sort", "merge"])
    def test_non_number_arrays_rejected(self, op, data):
        """Bool, string, nested and object arrays are no arrays of
        numbers, whichever field carries them."""
        fields = (f'"data": {data}' if op == "sort"
                  else f'"a": {data}, "b": [1]')
        with pytest.raises(RequestError) as err:
            parse_request(f'{{"op": "{op}", {fields}}}')
        assert err.value.kind == "bad-request"

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


def _parsed(line: str, min_bytes: int):
    """``parse_request(line)`` with ``NUMPY_PARSE_MIN_BYTES`` set to
    ``min_bytes``, as comparable data: the request's fields with each
    array as ``(dtype, bytes)``, or the error's ``(kind, message)``."""
    saved = protocol.NUMPY_PARSE_MIN_BYTES
    protocol.NUMPY_PARSE_MIN_BYTES = min_bytes
    try:
        req = parse_request(line.encode())
    except RequestError as exc:
        return ("error", exc.kind, exc.message, exc.req_id)
    finally:
        protocol.NUMPY_PARSE_MIN_BYTES = saved
    arrays = tuple(
        None if arr is None else (arr.dtype.str, arr.tobytes())
        for arr in (req.a, req.b, req.data))
    return ("ok", req.op, req.req_id, req.k, req.deadline_ms, arrays)


def assert_paths_agree(line: str) -> None:
    """The NumPy array parse (every line) gives what ``json.loads``
    (no line) gives: the same dtypes and values, or the same error."""
    assert _parsed(line, 0) == _parsed(line, 1 << 62), line


#: Values whose text is at the edges of the NumPy parse: 18 and 19
#: digits, the int64 extremes, and past them.
_EDGES = [0, 1, -1, 10**17, 10**18 - 1, -(10**18 - 1), 10**18, -10**18,
          2**63 - 1, -2**63, 2**63, 2**64 + 1, -(2**63) - 1]
_ints = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(_EDGES),
                  st.integers(-1000, 1000))
#: Text spliced into an array's JSON: each is either invalid JSON or
#: valid JSON that is not a plain integer run.
_MUTATIONS = ["0", "00", "-", "--", "-0", ",", ",,", " ", "\t", "\n", "1.0",
              ".5", "1e2", "1E+2", "NaN", "-Infinity", "[1]", "[]", '"7"',
              "true", "null", "+1", "0x1", "]", "[", "\u00e9"]
_TEMPLATES = [
    '{{"id":1,"op":"sort","data":[{0}]}}',
    '{{"op":"merge","a":[{0}],"b":[{1}]}}',
    '{{"op":"topk","a":[{0}],"b":[{1}],"k":1}}',
    '{{"op":"sort","note":"\\"data\\":[1,2]","data":[{0}]}}',
    '{{"op":"sort","data":[{0}],"data":[{1}]}}',
    '{{"op":"sort","data":[{0}],"op":"merge","a":[{1}],"b":[]}}',
    '{{"op":"sort","data":[[{0}],[{1}]]}}',
    ' {{ "op" : "sort" , "data" : [{0}] }} ',
    '{{"op":"sort","data":[{0}]}} x',
    '{{"op":"sort","data":[{0}],}}',
]


@st.composite
def _array_text(draw):
    values = draw(st.lists(_ints, max_size=24))
    if draw(st.booleans()):
        values.sort()
    text = ",".join(map(str, values))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_MUTATIONS)) + text[at:]
    return text


class TestNumPyArrayParse:
    """Lines above ``NUMPY_PARSE_MIN_BYTES`` read flat integer runs with
    ``np.fromstring``; anything else must come out as ``json.loads``
    reads it."""

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    @given(template=st.sampled_from(_TEMPLATES), first=_array_text(),
           second=_array_text())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_json_path(self, template, first, second):
        assert_paths_agree(template.format(first, second))

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    @pytest.mark.parametrize("data", [
        "1,2,3", "-0", "0,-0,10", "01", "-01", "00", "1,,2", "1,", ",1",
        "--1", "1-2", "-", "1 ,2", " 1", "1.0", "1e2", "NaN", "[1],[2]",
        "999999999999999999", "-999999999999999999", "1000000000000000000",
        "9223372036854775807", "-9223372036854775808", "9223372036854775808",
        "18446744073709551616", "", '"1"',
    ])
    def test_edge_runs(self, data):
        assert_paths_agree(f'{{"id":"e","op":"sort","data":[{data}]}}')

    @pytest.mark.parametrize("line", [
        '{"op":"sort","s":"\\"data\\":[3,1]","data":[2,1]}',
        '{"op":"sort","data":[3,1],"data":[9,8,7]}',
        '{"op":"sort","data":[3,1],"data":[1.5]}',
        '{"op":"sort","data":"[1,2]"}',
        '{"op":"merge","a":[1,2],"b":[2,1]}',
        '{"op":"sort","data":[1,2]',
        '{"op":"sort","data":[1,2]}}',
        '{"op":"sort","data":[1,2],"k":1}',
        '{}',
        '[1,2]',
        '\ufeff{"op":"sort","data":[1]}',
        '{"op":"sort","data":[' + ",".join(map(str, range(-500, 500))) + "]}",
    ])
    def test_object_edges(self, line):
        assert_paths_agree(line)

    @pytest.mark.parametrize("run", [
        "01", "-01", "1,01", "1,-01", "00", "1,,2", "1,", ",1", "--1", "1-2",
        "1,-", "-,1", "1--2", " 1", "1 ", "1.0", "1e2", "+1", "NaN",
        "1234567890123456789", "-1234567890123456789", "1," * 9 + "10" * 10,
        # Defects across the first 64 KiB block boundary.
        "1," * 32767 + "1234567890123456789",
        "1," * 32766 + "11,1234567890123456789", "1," * 32768 + "01",
        "1," * 32767 + "11-2", "1," * 32767 + "11,,2",
    ], ids=lambda run: run if len(run) < 40 else f"{run[-12:]}@{len(run)}")
    def test_int_run_rejects(self, run):
        """Each run is something ``json.loads`` rejects or reads as more
        than an exact int64: no NumPy parse."""
        buf = b"[" + run.encode() + b"]"
        assert protocol._int_run(buf, 1, len(buf) - 1) is None

    @pytest.mark.parametrize("run", [
        "0", "-0", "7", "0,0", "10,-10,0", "123456789012345678",
        "-123456789012345678", "1," * 70_000 + "-42",
    ])
    def test_int_run_accepts(self, run):
        buf = b"[" + run.encode() + b"]"
        got = protocol._int_run(buf, 1, len(buf) - 1)
        assert got.dtype == np.int64
        assert got.tolist() == json.loads(buf)

    def test_a_plain_run_is_read_by_numpy(self):
        line = '{"op":"merge","a":[-5,0,17],"b":[3],"a":[1,2]}'
        obj = protocol._scan_object(line, line.encode())
        assert obj is not None
        assert obj["a"].dtype == np.int64 and obj["a"].tolist() == [1, 2]
        assert obj["b"].tolist() == [3]

    @pytest.mark.parametrize("data", ["1, 2", "1.0", "01", "[1]", ""])
    def test_anything_else_is_read_by_json(self, data):
        line = f'{{"op":"sort","data":[{data}]}}'
        obj = protocol._scan_object(line, line.encode())
        if obj is not None:
            assert isinstance(obj["data"], list)


def _line_of(req_id, result, **extra) -> bytes:
    """The response line as ``json`` writes it, the reference for
    every path ``ok_response`` takes."""
    return encode_line({"id": req_id, "ok": True, "result": result.tolist(),
                        **extra})


#: Values at the writer's class edges: every digit count's first and
#: last value on both signs, and the int64 extremes.
_DIGIT_EDGES = sorted({v for k in range(19) for v in
                       (10**k, 10**k - 1, -10**k, 1 - 10**k)}
                      | {-2**63, 2**63 - 1, -2**63 + 1, 2**63 - 2})
_int64s = st.one_of(st.integers(-2**63, 2**63 - 1),
                    st.sampled_from(_DIGIT_EDGES), st.integers(-200, 200))
_uint64s = st.one_of(st.integers(0, 2**64 - 1),
                     st.sampled_from([0, 9, 10, 10**18, 10**19 - 1, 10**19,
                                      2**63, 2**64 - 1]))
#: A value of every JSON type, for ids and non-array results: strings
#: with quotes, escapes and non-ASCII, integers of any size, floats,
#: null, nested values.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text() | st.sampled_from(['"', '\\"', "é€", "\n\t", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_extras = st.sampled_from([{}, {"n": 3, "elapsed_ms": 0.25},
                           {"n": 0, "elapsed_ms": 1e-05}])


class TestIntWriter:
    """``ok_response`` writes sorted integer arrays of at least
    ``NUMPY_WRITE_MIN_ELEMS`` values with ``_int_text``; every line it
    writes is byte for byte the ``json`` line of the array's
    ``tolist()``.  The tests set the threshold to 1 to drive the
    writer on small arrays."""

    @pytest.fixture(autouse=True)
    def every_array(self, monkeypatch):
        monkeypatch.setattr(protocol, "NUMPY_WRITE_MIN_ELEMS", 1)

    @pytest.fixture()
    def writes(self, monkeypatch):
        """The arrays ``_int_text`` is called with."""
        seen = []
        write = protocol._int_text

        def spy(x):
            seen.append(x)
            return write(x)

        monkeypatch.setattr(protocol, "_int_text", spy)
        return seen

    @given(values=st.lists(_int64s, max_size=60), req_id=_json_values,
           extra=_extras)
    @settings(max_examples=400, deadline=None)
    def test_int64_matches_json(self, values, req_id, extra):
        x = np.array(sorted(values), dtype=np.int64)
        assert ok_response(req_id, x, **extra) == _line_of(req_id, x, **extra)

    @given(values=st.lists(_uint64s, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_uint64_matches_json(self, values):
        x = np.array(sorted(values), dtype=np.uint64)
        assert ok_response(1, x, n=len(x)) == _line_of(1, x, n=len(x))

    @given(values=st.lists(st.integers(-2**31, 2**31 - 1), min_size=1,
                           max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_int32_matches_json(self, values):
        x = np.array(sorted(values), dtype=np.int32)
        assert ok_response("i", x) == _line_of("i", x)

    @pytest.mark.parametrize("dtype", ["int8", "int16", "int32", "int64",
                                       "uint8", "uint16", "uint32", "uint64",
                                       ">i8", ">u4"])
    def test_whole_range_of_each_dtype(self, dtype, writes):
        native = np.dtype(dtype).newbyteorder("=")
        info = np.iinfo(native)
        rng = np.random.default_rng(7)
        x = np.sort(np.concatenate([
            rng.integers(info.min, info.max, 3000, dtype=native),
            np.array([info.min, info.max], dtype=native),
        ])).astype(dtype)
        assert ok_response(9, x, n=len(x)) == _line_of(9, x, n=len(x))
        assert len(writes) == 1

    @pytest.mark.parametrize("values", [
        [0], [-1], [7], [-2**63], [2**63 - 1], [5] * 50, [-3] * 7,
        [0] * 9, [-1, 0], [-1, 0, 1], [-10, -9, -1, 0, 9, 10],
        list(range(-1000, 1001)), [-2**63, 0, 2**63 - 1],
        [-2**63] * 3 + [2**63 - 1] * 3,
    ])
    def test_edges(self, values, writes):
        x = np.array(values, dtype=np.int64)
        assert ok_response(None, x, n=len(x)) == _line_of(None, x, n=len(x))
        assert len(writes) == 1

    def test_empty_array_is_json(self, writes):
        x = np.array([], dtype=np.int64)
        assert ok_response(0, x, n=0) == b'{"id":0,"ok":true,"result":[],"n":0}\n'
        assert not writes

    @pytest.mark.parametrize("x", [
        np.array([3, 1, 2]), np.array([0, -1]), np.array([2**63 - 1, -2**63]),
        np.array([1.0, 2.5, 3.0]), np.array([-0.0, 0.0, 1e300]),
        np.array([1.0, np.nan]), np.array([False, True]),
        np.array([[1, 2], [3, 4]]), np.array(5),
    ], ids=repr)
    def test_unsorted_and_non_integer_arrays_take_json(self, x, writes):
        assert ok_response("u", x, n=3) == _line_of("u", x, n=3)
        assert not writes

    @given(result=_json_values, req_id=_json_values, extra=_extras)
    @settings(max_examples=100, deadline=None)
    def test_other_results_are_json(self, result, req_id, extra):
        assert ok_response(req_id, result, **extra) == encode_line(
            {"id": req_id, "ok": True, "result": result, **extra})

    def test_threshold_keeps_small_arrays_on_json(self, monkeypatch, writes):
        monkeypatch.setattr(protocol, "NUMPY_WRITE_MIN_ELEMS", 1 << 10)
        small = np.arange(-511, 512)
        large = np.arange(-512, 512)
        assert ok_response(1, small) == _line_of(1, small)
        assert not writes
        assert ok_response(1, large) == _line_of(1, large)
        assert len(writes) == 1

    def test_large_sort_from_a_live_server(self, server):
        """A 2^16 sort answered by a running server (the parallel path)
        is the ``json`` line of the sorted values, byte for byte."""
        rng = np.random.default_rng(11)
        data = rng.integers(-10**7, 10**7, 1 << 16)
        with socket.create_connection((server.host, server.port),
                                      timeout=120) as sock:
            sock.sendall(encode_line({"id": "bigé", "op": "sort",
                                      "data": data.tolist()}))
            with sock.makefile("rb") as f:
                line = f.readline()
        elapsed_ms = json.loads(line)["elapsed_ms"]
        assert line == _line_of("bigé", np.sort(data), n=len(data),
                                elapsed_ms=elapsed_ms)
