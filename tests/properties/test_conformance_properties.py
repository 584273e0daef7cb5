"""Property-based conformance invariants (hypothesis).

Two universally-quantified claims backing the conformance battery:

* **Theorem 14 partition equality** — for any sorted pair and any
  ``p``, the merge-path partition yields exactly ``p`` segments whose
  sizes differ by at most one and whose independent merges concatenate
  to the oracle merge.
* **Cross-backend stability** — serial, threads, and processes
  execution of the same merge preserve the A-before-equal-B tie rule.
  The keyed layer is checked at index resolution (gather permutation
  against the stable argsort); the process backend, which runs only the
  external sort, is probed through that sort's block merges with
  signed zeros (in-memory merges refuse it).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.core.keyed import merge_by_key
from repro.core.merge_path import partition_merge_path
from repro.core.parallel_merge import parallel_merge
from repro.core.sequential import merge_vectorized
from repro.errors import InputError
from repro.external import external_sort

pytestmark = pytest.mark.conformance

sorted_ints = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=0, max_size=100
).map(lambda xs: np.array(sorted(xs), dtype=np.int64))

# Heavy duplicates on purpose: a tiny key alphabet makes almost every
# merge decision a tie, which is where stability bugs live.
dup_keys = st.lists(
    st.integers(min_value=0, max_value=4), min_size=0, max_size=60
).map(lambda xs: np.array(sorted(xs), dtype=np.int64))

small_p = st.integers(min_value=1, max_value=16)


class TestTheorem14PartitionEquality:
    @given(a=sorted_ints, b=sorted_ints, p=small_p)
    def test_segment_sizes_differ_by_at_most_one(self, a, b, p):
        part = partition_merge_path(a, b, p, check=False)
        assert len(part.segments) == p
        lengths = part.segment_lengths
        assert max(lengths) - min(lengths) <= 1
        n = len(a) + len(b)
        assert all(n // p <= s <= -(-n // p) for s in lengths)

    @given(a=sorted_ints, b=sorted_ints, p=small_p)
    def test_segment_merges_concatenate_to_oracle(self, a, b, p):
        part = partition_merge_path(a, b, p, check=False)
        pieces = [
            merge_vectorized(
                a[s.a_start : s.a_end], b[s.b_start : s.b_end], check=False
            )
            for s in part.segments
        ]
        got = np.concatenate(pieces) if pieces else np.array([])
        ref = np.sort(np.concatenate([a, b]), kind="stable")
        np.testing.assert_array_equal(got, ref)


def _stable_tags(a_keys, b_keys):
    """Expected value permutation: A tags then B tags, stable order."""
    concat = np.concatenate([a_keys, b_keys])
    return np.argsort(concat, kind="stable")


@pytest.fixture(scope="module")
def threads_backend():
    be = get_backend("threads", max_workers=4)
    yield be
    be.close()


@pytest.fixture(scope="module")
def processes_backend():
    be = get_backend("processes", max_workers=2)
    yield be
    be.close()


class TestCrossBackendStability:
    @given(a_keys=dup_keys, b_keys=dup_keys, p=small_p)
    def test_serial_keyed_merge_is_stable(self, a_keys, b_keys, p):
        tags_a = np.arange(len(a_keys), dtype=np.int64)
        tags_b = np.arange(len(a_keys), len(a_keys) + len(b_keys), dtype=np.int64)
        _keys, vals = merge_by_key(a_keys, b_keys, tags_a, tags_b, p=p)
        np.testing.assert_array_equal(vals, _stable_tags(a_keys, b_keys))

    @settings(max_examples=25, deadline=None)
    @given(a_keys=dup_keys, b_keys=dup_keys, p=small_p)
    def test_threads_keyed_merge_is_stable(
        self, threads_backend, a_keys, b_keys, p
    ):
        tags_a = np.arange(len(a_keys), dtype=np.int64)
        tags_b = np.arange(len(a_keys), len(a_keys) + len(b_keys), dtype=np.int64)
        _keys, vals = merge_by_key(
            a_keys, b_keys, tags_a, tags_b, p=p, backend=threads_backend
        )
        np.testing.assert_array_equal(vals, _stable_tags(a_keys, b_keys))

    @settings(max_examples=10, deadline=None)
    @given(
        ties=st.integers(min_value=1, max_value=12),
        flank=st.integers(min_value=0, max_value=8),
        p=st.integers(min_value=1, max_value=6),
    )
    def test_processes_merge_is_stable(self, processes_backend, ties, flank, p):
        # Signed-zero probe: -0.0 == 0.0 for every comparison the merge
        # makes, but signbit tells us which side each tie came from.
        a = np.concatenate([np.arange(-flank, 0, dtype=np.float64), [-0.0] * ties])
        b = np.concatenate([[0.0] * ties, np.arange(1, flank + 1, dtype=np.float64)])
        x = np.concatenate([a, b])
        # Runs of at most len(a) elements: A's zeros sit in earlier runs
        # than B's, and the block merges must keep them first.
        out = external_sort(x, max(1, len(a)), backend=processes_backend,
                            workers=p)
        ref = np.sort(x, kind="stable")
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))
        with pytest.raises(InputError, match="run in-process"):
            parallel_merge(a, b, p, backend=processes_backend)
