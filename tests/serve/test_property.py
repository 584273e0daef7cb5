"""Hypothesis property: any interleaving of requests, oracle answers.

The server answers pipelined requests in completion order, so which
request finishes first under a random interleaving is arbitrary — and
irrelevant: every response must still be bit-identical to the serial
oracle.  One
module-scoped server keeps the property rounds cheap; request ids are
unique per example so cross-example responses cannot be confused.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import ServeClient

_COUNTER = itertools.count()

sorted_ints = st.lists(
    st.integers(min_value=-(1 << 40), max_value=1 << 40), max_size=40
).map(sorted)


@st.composite
def requests_strategy(draw):
    """A batch of 1–12 mixed requests with unique ids."""
    n = draw(st.integers(min_value=1, max_value=12))
    requests = []
    for _ in range(n):
        req_id = f"prop-{next(_COUNTER)}"
        kind = draw(st.sampled_from(["merge", "sort", "topk"]))
        if kind == "merge":
            requests.append({
                "id": req_id, "op": "merge",
                "a": draw(sorted_ints), "b": draw(sorted_ints),
            })
        elif kind == "sort":
            data = draw(st.lists(
                st.integers(min_value=-(1 << 40), max_value=1 << 40),
                max_size=60,
            ))
            requests.append({"id": req_id, "op": "sort", "data": data})
        else:
            a, b = draw(sorted_ints), draw(sorted_ints)
            k = draw(st.integers(min_value=0, max_value=len(a) + len(b)))
            requests.append({
                "id": req_id, "op": "topk", "a": a, "b": b, "k": k,
            })
    return requests


def oracle(req: dict) -> list[int]:
    if req["op"] == "sort":
        values = list(req["data"])
    else:
        values = list(req["a"]) + list(req["b"])
    out = sorted(values)
    if req["op"] == "topk":
        out = out[: req["k"]]
    return out


@given(batch=requests_strategy())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_interleaved_requests_match_oracle(server, batch):
    # Pipeline the whole batch on one connection: all requests are in
    # flight together, so the server interleaves them freely.
    with ServeClient(server.host, server.port) as client:
        for req in batch:
            client.send(req)
        responses = {}
        for _ in batch:
            resp = client.recv()
            responses[resp["id"]] = resp
    for req in batch:
        resp = responses[req["id"]]
        assert resp["ok"], resp
        assert resp["result"] == oracle(req), req


@given(
    a=sorted_ints,
    b=sorted_ints,
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_merge_is_stable_sorted_and_complete(server, a, b):
    with ServeClient(server.host, server.port) as client:
        resp = client.request({
            "id": f"prop-{next(_COUNTER)}", "op": "merge", "a": a, "b": b,
        })
    assert resp["ok"]
    result = resp["result"]
    assert result == sorted(a + b)
    assert len(result) == len(a) + len(b)


@given(
    junk=st.text(max_size=40).filter(
        lambda s: "\n" not in s and s.strip()
    ),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_garbage_lines_never_crash_the_connection(server, junk):
    # Whatever arrives, the server answers with JSON (ok or an error
    # payload) and the connection stays usable afterwards.
    with ServeClient(server.host, server.port) as client:
        client._sock.sendall(junk.encode("utf-8", "replace") + b"\n")
        first = client.recv()
        assert isinstance(first, dict)
        if first.get("ok"):
            # The text happened to be a valid request (e.g. digits -> a
            # JSON number is rejected as non-object... but be safe).
            assert "result" in first
        else:
            assert "error" in first
        follow_up = client.request({
            "id": f"prop-{next(_COUNTER)}", "op": "ping",
        })
        assert follow_up["result"] == "pong"
