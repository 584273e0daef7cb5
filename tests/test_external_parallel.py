"""Tests for the SPM-planned parallel external sort pipeline."""

import functools
import os

import numpy as np
import pytest

from repro.core.selection import kth_of_union_many
from repro.errors import InputError
from repro.external import (
    IOCounter,
    external_sort,
    external_sort_file,
    plan_blocks,
)
from repro.external.parallel import _form_run_task, _merge_block_task
from repro.obs import MetricsRegistry

from .conftest import spill_runs


class TestKthOfRuns:
    def test_matches_pooled_oracle(self, tmp_path):
        g = np.random.default_rng(0)
        x = g.integers(0, 40, 500)  # duplicate-heavy on purpose
        runs = spill_runs(tmp_path, x, 64)
        readers = [r.open_memmap() for r in runs]
        union = np.sort(x, kind="stable")
        for k in (1, 7, 250, 499, 500):
            value, splits = kth_of_union_many(readers, k)
            assert sum(splits) == k
            assert value == union[k - 1]
            # the k smallest of the union are exactly the split prefixes
            prefix = np.sort(np.concatenate(
                [rd[:s] for rd, s in zip(readers, splits)]
            ))
            np.testing.assert_array_equal(prefix, union[:k])

    def test_ties_admitted_earlier_run_first(self, tmp_path):
        r1 = spill_runs(tmp_path, [5, 5, 5], 10)[0]
        r2 = spill_runs(tmp_path, [5, 5], 10)[0]
        readers = [r1.open_memmap(), r2.open_memmap()]
        _, splits = kth_of_union_many(readers, 2)
        assert splits == [2, 0]  # run 0's equal elements come first
        _, splits = kth_of_union_many(readers, 4)
        assert splits == [3, 1]

    def test_k_out_of_range(self, tmp_path):
        [run] = spill_runs(tmp_path, [1, 2, 3], 10)
        with pytest.raises(InputError):
            kth_of_union_many([run.open_memmap()], 0)
        with pytest.raises(InputError):
            kth_of_union_many([run.open_memmap()], 4)


class TestPlanBlocks:
    def test_partition_is_valid_and_budgeted(self, tmp_path):
        g = np.random.default_rng(1)
        x = g.integers(0, 10, 1000)  # heavy duplicates stress tie cuts
        runs = spill_runs(tmp_path, x, 128)
        plan = plan_blocks(runs, 100)
        plan.validate([r.length for r in runs])
        assert plan.total == 1000
        # equispaced exact ranks: block sizes differ by at most one
        # from total/blocks, and never exceed the requested budget
        assert plan.max_block_elements <= 100
        sizes = [hi - lo for lo, hi in zip(plan.offsets, plan.offsets[1:])]
        assert max(sizes) - min(sizes) <= 1

    def test_single_block_when_budget_large(self, tmp_path):
        runs = spill_runs(tmp_path, np.arange(50), 10)
        plan = plan_blocks(runs, 1_000_000)
        assert plan.blocks == 1
        assert plan.offsets == (0, 50)

    def test_probe_io_charged(self, tmp_path):
        runs = spill_runs(tmp_path, np.random.default_rng(2).integers(0, 999, 600), 64)
        io = IOCounter(block_elements=16)
        plan = plan_blocks(runs, 50, io=io)
        assert plan.probe_elements > 0
        assert io.read_blocks > 0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            plan_blocks([], 10)


class TestBlockMergeIdempotence:
    def test_rerun_is_byte_identical(self, tmp_path):
        """Theorem 14 one level up: a block merge touches only its own
        disjoint output slice, so running it twice changes nothing —
        the property that makes retry/speculation safe."""
        g = np.random.default_rng(3)
        x = g.integers(0, 99, 400)
        runs = spill_runs(tmp_path, x, 64)
        plan = plan_blocks(runs, 100)
        out_path = os.path.join(str(tmp_path), "out.npy")
        out = np.lib.format.open_memmap(
            out_path, mode="w+", dtype=np.int64, shape=(plan.total,)
        )
        del out
        tasks = [
            functools.partial(_merge_block_task, (
                tuple(runs), plan.cuts[j], plan.cuts[j + 1],
                out_path, plan.offsets[j], plan.offsets[j + 1], 16,
            ))
            for j in range(plan.blocks)
        ]
        for t in tasks:
            t()
        first = np.load(out_path).copy()
        np.testing.assert_array_equal(first, np.sort(x))
        for t in tasks:  # replay every block (a retry storm)
            t()
        np.testing.assert_array_equal(np.load(out_path), first)


    def test_run_formation_rewrites_in_place(self, tmp_path):
        """A duplicate run-formation task (retry or speculation) rewrites
        the same bytes into the pre-sized run file: same inode, never
        truncated under a reader's memory map, and never recreated once
        the driver has reclaimed the run."""
        x = np.random.default_rng(4).integers(0, 99, 300)
        in_path = os.path.join(str(tmp_path), "in.npy")
        np.save(in_path, x)
        run_path = os.path.join(str(tmp_path), "run.npy")
        run = np.lib.format.open_memmap(run_path, mode="w+",
                                        dtype=x.dtype, shape=(100,))
        del run
        task = functools.partial(_form_run_task,
                                 (in_path, 100, 200, run_path, 16))
        task()
        inode = os.stat(run_path).st_ino
        reader = np.load(run_path, mmap_mode="r")
        task()
        assert os.stat(run_path).st_ino == inode
        np.testing.assert_array_equal(reader, np.sort(x[100:200]))
        del reader
        os.unlink(run_path)
        with pytest.raises(FileNotFoundError):
            task()
        assert not os.path.exists(run_path)


class TestParallelRoundTrip:
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
    def test_matches_numpy_sort(self, backend, dtype):
        """Bit for bit the stable sort, for random, duplicate-heavy and
        (floats) NaN / signed-zero / infinite keys."""
        g = np.random.default_rng(4)
        inputs = [
            g.integers(-500, 500, 3000).astype(dtype),
            g.integers(0, 3, 3000).astype(dtype),
        ]
        if np.dtype(dtype).kind == "f":
            inputs.append(g.choice(
                np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.5, -2.0]),
                3000,
            ).astype(dtype))
        for x in inputs:
            out = external_sort(x, 256, backend=backend, workers=4)
            assert out.dtype == x.dtype
            assert out.tobytes() == np.sort(x, kind="stable").tobytes()

    def test_processes_backend(self):
        g = np.random.default_rng(5)
        x = g.integers(0, 10**6, 20_000)
        out = external_sort(x, 2048, backend="processes", workers=4)
        np.testing.assert_array_equal(out, np.sort(x, kind="stable"))

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65])
    def test_edges(self, n):
        x = np.random.default_rng(n).integers(0, 9, n)
        out = external_sort(x, 64, backend="serial")
        np.testing.assert_array_equal(out, np.sort(x))

    def test_duplicate_heavy_blocks_stay_budgeted(self, tmp_path):
        """All-equal input is the worst case for value-based splits;
        exact-rank tie distribution must still respect the budget."""
        x = np.full(2000, 7, dtype=np.int64)
        out = external_sort(x, 128, backend="serial", directory=str(tmp_path))
        np.testing.assert_array_equal(out, x)

    def test_presorted_and_reversed(self):
        x = np.arange(5000)
        np.testing.assert_array_equal(
            external_sort(x, 256, backend="serial"), x)
        np.testing.assert_array_equal(
            external_sort(x[::-1].copy(), 256, backend="serial"), x)

    def test_io_accounting_deterministic(self):
        g = np.random.default_rng(6)
        x = g.integers(0, 999, 10_000)
        totals = set()
        for _ in range(3):
            io = IOCounter(block_elements=128)
            external_sort(x, 1024, backend="threads", workers=4, io=io)
            totals.add((io.read_blocks, io.write_blocks))
        assert len(totals) == 1  # per-shard fold: schedule-independent


class TestExternalSortFile:
    def test_report_and_sublinear_dispatches(self, tmp_path):
        g = np.random.default_rng(7)
        n, mem = 1 << 16, 1 << 12  # 16 runs
        x = g.integers(0, 10**6, n)
        in_path = os.path.join(str(tmp_path), "in.npy")
        np.save(in_path, x)
        reg = MetricsRegistry()
        final, rep = external_sort_file(
            in_path, memory_elements=mem, directory=str(tmp_path),
            backend="threads", workers=4, metrics=reg,
        )
        np.testing.assert_array_equal(final.read_all(), np.sort(x))
        assert rep.runs == 16
        assert rep.passes == 1  # full-width planned fan-in
        assert rep.blocks >= 16
        # one dispatch for run formation + one per pass: sub-linear in
        # block count (the acceptance criterion)
        assert rep.dispatches == 1 + rep.passes < rep.blocks
        assert reg.value("exec.dispatches_per_call") == rep.dispatches
        assert rep.transfer_ratio is not None and rep.transfer_ratio < 8
        snap = reg.snapshot()
        assert snap["extsort.runs"] == 16
        assert snap["extsort.blocks"] == rep.blocks

    def test_multi_pass_with_small_fan_in(self, tmp_path):
        g = np.random.default_rng(8)
        x = g.integers(0, 999, 8 * 64)
        in_path = os.path.join(str(tmp_path), "in.npy")
        np.save(in_path, x)
        final, rep = external_sort_file(
            in_path, memory_elements=64, directory=str(tmp_path),
            fan_in=2, backend="serial",
        )
        np.testing.assert_array_equal(final.read_all(), np.sort(x))
        assert rep.passes == 3  # 8 runs at fan-in 2: 8 -> 4 -> 2 -> 1

    def test_failure_leaves_directory_clean(self, tmp_path):
        x = np.random.default_rng(9).integers(0, 99, 400)
        in_path = os.path.join(str(tmp_path), "in.npy")
        np.save(in_path, x)
        with pytest.raises(InputError):
            external_sort_file(in_path, memory_elements=64,
                               directory=str(tmp_path), fan_in=1,
                               backend="serial")
        assert os.listdir(tmp_path) == ["in.npy"]

    def test_fan_in_checked_before_any_io(self, tmp_path, monkeypatch):
        """A bad ``fan_in`` is rejected with the other arguments: no run
        formation batch is dispatched and no spill file is created."""
        from repro.obs import Tracer

        x = np.random.default_rng(9).integers(0, 99, 400)
        in_path = os.path.join(str(tmp_path), "in.npy")
        np.save(in_path, x)
        spills = []
        real_open = np.lib.format.open_memmap

        def open_spy(path, mode="r+", *args, **kwargs):
            if mode == "w+":
                spills.append(path)
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(np, "save", lambda path, *a, **k: spills.append(path))
        monkeypatch.setattr(np.lib.format, "open_memmap", open_spy)
        tracer = Tracer()
        with pytest.raises(InputError, match="fan_in"):
            external_sort_file(in_path, memory_elements=64,
                               directory=str(tmp_path), fan_in=1,
                               backend="serial", trace=tracer)
        assert spills == []
        assert not [s for s in tracer.spans() if s.name == "exec.batch"]

    def test_out_path_honored(self, tmp_path):
        x = np.random.default_rng(10).integers(0, 99, 300)
        in_path = os.path.join(str(tmp_path), "in.npy")
        out_path = os.path.join(str(tmp_path), "sorted.npy")
        np.save(in_path, x)
        final, _ = external_sort_file(
            in_path, memory_elements=64, directory=str(tmp_path),
            out_path=out_path, backend="serial",
        )
        assert final.path == out_path
        np.testing.assert_array_equal(np.load(out_path), np.sort(x))

    def test_tracer_spans(self, tmp_path):
        from repro.obs import Tracer

        x = np.random.default_rng(11).integers(0, 99, 600)
        in_path = os.path.join(str(tmp_path), "in.npy")
        np.save(in_path, x)
        tracer = Tracer()
        external_sort_file(in_path, memory_elements=64,
                           directory=str(tmp_path), backend="serial",
                           trace=tracer)
        names = {s.name for s in tracer.spans()}
        assert "extsort.plan" in names
        assert "exec.batch" in names


class TestChaosIdempotence:
    def test_injected_faults_recovered_bit_identical(self):
        """Seeded chaos: every first dispatch of a task faults, the
        resilience layer retries, and the sorted output is still
        bit-identical — block-merge idempotence is what makes the retry
        safe (Theorem 14 disjointness on disk)."""
        from repro.backends import get_backend
        from repro.resilience import (
            FaultInjector,
            FaultyBackend,
            ResilientBackend,
            RetryPolicy,
        )

        g = np.random.default_rng(12)
        x = g.integers(0, 10**6, 5000)
        injector = FaultInjector(seed=21, error_rate=0.4, faulty_attempts=1)
        inner = FaultyBackend(get_backend("serial"), injector)
        be = ResilientBackend(
            inner, RetryPolicy(max_retries=3, timeout_s=None),
            owns_inner=True,
        )
        try:
            out = external_sort(x, 256, backend=be)
        finally:
            be.close()
        np.testing.assert_array_equal(out, np.sort(x, kind="stable"))
        assert injector.injected > 0  # chaos actually happened

    def test_simulated_worker_death_recovered(self):
        """A scripted worker death on the very first block dispatch is
        retried and the result still matches the oracle."""
        from repro.backends import get_backend
        from repro.resilience import (
            FaultInjector,
            FaultyBackend,
            ResilientBackend,
            RetryPolicy,
        )

        g = np.random.default_rng(13)
        x = g.integers(0, 999, 2000)
        injector = FaultInjector(seed=5, always_first="death")
        inner = FaultyBackend(get_backend("threads", max_workers=4), injector)
        be = ResilientBackend(
            inner, RetryPolicy(max_retries=2, timeout_s=None),
            owns_inner=True,
        )
        try:
            out = external_sort(x, 128, backend=be, workers=4)
        finally:
            be.close()
        np.testing.assert_array_equal(out, np.sort(x, kind="stable"))
        assert injector.counts()["death"] >= 1


class TestExtsortCLI:
    def test_cli_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main

        report = os.path.join(str(tmp_path), "report.json")
        rc = main([
            "extsort", "--n", "4096", "--memory", "256",
            "--backend", "serial", "--report", report,
            "--max-transfer-ratio", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"verified": true' in out
        import json

        with open(report, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["schema"] == "repro-extsort/1"
        assert doc["n"] == 4096 and doc["verified"] is True

    def test_cli_transfer_gate_fails(self, tmp_path, capsys):
        from repro.__main__ import main

        rc = main([
            "extsort", "--n", "4096", "--memory", "256",
            "--backend", "serial", "--max-transfer-ratio", "0.01",
        ])
        assert rc == 1
        assert "transfer ratio" in capsys.readouterr().err
