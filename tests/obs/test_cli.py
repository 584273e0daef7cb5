"""CLI: the trace verb, strict flags, legacy invocation forms."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import _VERBS, _normalize, main
from repro.experiments.registry import EXPERIMENTS
from repro.obs.export import validate_chrome_trace


class TestTraceVerb:
    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["trace", "fig5", "--quick", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "partition.search" in names
        assert "segment.merge" in names
        tids = {e["tid"] for e in doc["traceEvents"]
                if e.get("name") == "segment.merge"}
        assert len(tids) >= 2
        text = capsys.readouterr().out
        assert "segment.merge" in text       # flame summary
        assert "load balance over" in text   # balance report
        assert "merge.comparisons" in text   # metrics snapshot

    def test_trace_unknown_workload_errors(self, tmp_path, capsys):
        rc = main(["trace", "nope", "--out", str(tmp_path / "t.json")])
        assert rc == 2
        assert "unknown traceable workload" in capsys.readouterr().err

    def test_trace_case_insensitive(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["trace", "SPM", "--quick", "--out", str(out)]) == 0
        assert out.exists()


class TestStrictFlags:
    def test_unknown_flag_exits_loudly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--definitely-not-a-flag", "T14"])
        assert exc.value.code == 2

    def test_unknown_subcommand_flag_exits_loudly(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "fig5", "--bogus"])


class TestLegacyForms:
    def test_normalize_moves_leading_flags(self):
        assert _normalize(["--quick", "report"]) == ["report", "--quick"]
        assert _normalize(["--quick", "T14"]) == ["run", "T14", "--quick"]
        assert _normalize(["FIG5", "--chart"]) == ["run", "FIG5", "--chart"]
        assert _normalize(["conformance", "--chaos"]) == \
            ["conformance", "--chaos"]
        assert _normalize([]) == []
        assert _normalize(["--quick"]) == []

    def test_listing_returns_zero(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "trace" in out

    def test_unknown_experiment_returns_2(self, capsys):
        """A first word that is neither a subcommand nor an experiment
        id (a deleted verb, say): exit 2, and the message lists both."""
        assert main(["BOGUS", "--quick"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment id(s): BOGUS" in err
        assert "known ids: " + ", ".join(EXPERIMENTS) in err
        assert "subcommands: " + ", ".join(_VERBS) in err

    def test_listing_names_every_subcommand(self, capsys):
        """The listing and the legacy rewrite read the subcommands off
        the parser, so a verb added or deleted there shows in both."""
        assert main([]) == 0
        out = capsys.readouterr().out
        for name, verb in _VERBS.items():
            assert f"  {name:<12} {verb.description}\n" in out
            assert _normalize([name.upper(), "--quick"]) == [name, "--quick"]

    def test_bench_is_no_longer_a_verb(self, capsys):
        # The layered benchmark under bench/ is the one benchmark.
        assert main(["bench"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bare_experiment_id_still_runs(self, capsys):
        assert main(["--quick", "T14"]) == 0
        assert capsys.readouterr().out
