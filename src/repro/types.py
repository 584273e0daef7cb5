"""Shared datatypes used across the merge-path reproduction package.

The central objects are:

* :class:`PathPoint` — a point on the merge path expressed as *consumed
  counts* ``(i, j)``: ``i`` elements of ``A`` and ``j`` elements of ``B``
  have been emitted when the path passes through the point.  The point
  lies on cross diagonal ``d = i + j`` (Lemma 8 of the paper).
* :class:`Segment` — one contiguous chunk of the merge path assigned to
  one processor: sub-array ranges into ``A``, ``B`` and the output.
* :class:`Partition` — the full list of segments produced by the
  diagonal binary search (Theorem 14), plus bookkeeping about the search
  cost used by the T14 experiment.

Conventions
-----------
All indices are 0-based.  A :class:`Segment` covers the half-open output
range ``[out_start, out_end)``; its ``A`` range is ``[a_start, a_end)``
and its ``B`` range ``[b_start, b_end)`` with
``(a_end - a_start) + (b_end - b_start) == out_end - out_start``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True, slots=True)
class PathPoint:
    """A point on the merge path, as consumed-element counts.

    Attributes
    ----------
    i:
        Number of elements of ``A`` consumed (0..|A|).
    j:
        Number of elements of ``B`` consumed (0..|B|).
    """

    i: int
    j: int

    @property
    def diagonal(self) -> int:
        """Index of the cross diagonal this point lies on (Lemma 8)."""
        return self.i + self.j

    def __add__(self, other: "PathPoint") -> "PathPoint":
        return PathPoint(self.i + other.i, self.j + other.j)


@dataclass(frozen=True, slots=True)
class Segment:
    """One processor's share of a partitioned merge.

    The segment merges ``A[a_start:a_end]`` with ``B[b_start:b_end]``
    into output positions ``[out_start, out_end)``.
    """

    index: int
    a_start: int
    a_end: int
    b_start: int
    b_end: int
    out_start: int
    out_end: int

    @property
    def a_len(self) -> int:
        """Number of ``A`` elements in this segment."""
        return self.a_end - self.a_start

    @property
    def b_len(self) -> int:
        """Number of ``B`` elements in this segment."""
        return self.b_end - self.b_start

    @property
    def length(self) -> int:
        """Total number of output elements produced by this segment."""
        return self.out_end - self.out_start

    @property
    def start_point(self) -> PathPoint:
        """Merge-path point at which this segment begins."""
        return PathPoint(self.a_start, self.b_start)

    @property
    def end_point(self) -> PathPoint:
        """Merge-path point at which this segment ends."""
        return PathPoint(self.a_end, self.b_end)

    def validate(self) -> None:
        """Raise ``AssertionError`` if the segment is internally inconsistent."""
        assert 0 <= self.a_start <= self.a_end, self
        assert 0 <= self.b_start <= self.b_end, self
        assert 0 <= self.out_start <= self.out_end, self
        assert self.a_len + self.b_len == self.length, self


@dataclass(frozen=True, slots=True)
class Partition:
    """Result of partitioning a merge path into per-processor segments.

    Produced by :func:`repro.core.merge_path.partition_merge_path` and
    consumed by every parallel merge implementation.  ``search_steps``
    records, per interior cut point, the number of binary-search probes
    used to locate the merge-path/diagonal intersection; Theorem 14
    bounds each entry by ``ceil(log2(min(|A|,|B|) + 1))``.
    """

    a_len: int
    b_len: int
    segments: tuple[Segment, ...]
    search_steps: tuple[int, ...] = ()

    @property
    def p(self) -> int:
        """Number of segments (processors)."""
        return len(self.segments)

    @property
    def total_length(self) -> int:
        """Total merged length, ``|A| + |B|``."""
        return self.a_len + self.b_len

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def __getitem__(self, k: int) -> Segment:
        return self.segments[k]

    @property
    def segment_lengths(self) -> tuple[int, ...]:
        """Output length of every segment, in order."""
        return tuple(s.length for s in self.segments)

    @property
    def max_imbalance(self) -> int:
        """Difference between the largest and smallest segment length.

        Corollary 7 promises perfect balance: for Merge Path this is at
        most 1 (only because ``|A|+|B|`` may not divide evenly by p).
        """
        lengths = self.segment_lengths
        return max(lengths) - min(lengths)

    def validate(self) -> None:
        """Check the segments tile the merge path exactly once, in order."""
        assert self.segments, "partition must contain at least one segment"
        prev = PathPoint(0, 0)
        out = 0
        for seg in self.segments:
            seg.validate()
            assert seg.start_point == prev, (seg, prev)
            assert seg.out_start == out, seg
            prev = seg.end_point
            out = seg.out_end
        assert prev == PathPoint(self.a_len, self.b_len), prev
        assert out == self.total_length


@dataclass(slots=True)
class MergeStats:
    """Operation counts gathered by instrumented merge kernels.

    These are *algorithmic* counters (element comparisons, element moves,
    binary-search probes), independent of the host machine, and are the
    quantities the PRAM model converts into time.
    """

    comparisons: int = 0
    moves: int = 0
    search_probes: int = 0


@dataclass(frozen=True, slots=True)
class TableRow:
    """A single row of an experiment output table."""

    values: dict[str, object]

    def __getitem__(self, key: str) -> object:
        return self.values[key]

    def get(self, key: str, default: object = None) -> object:
        return self.values.get(key, default)


@dataclass(slots=True)
class ExperimentResult:
    """Structured result of one experiment run.

    Attributes
    ----------
    exp_id:
        Identifier from DESIGN.md (e.g. ``"FIG5"``).
    title:
        Human-readable description of the regenerated artifact.
    columns:
        Ordered column names of the table.
    rows:
        Table rows; each row maps column name to value.
    notes:
        Free-form remarks (calibration constants, paper reference values).
    """

    exp_id: str
    title: str
    columns: list[str]
    rows: list[TableRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        """Append a row; values are keyed by column name."""
        self.rows.append(TableRow(values))

    def column(self, name: str) -> list[object]:
        """Extract one column as a list, in row order."""
        return [row[name] for row in self.rows]
