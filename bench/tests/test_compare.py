"""``compare.py`` verdicts on synthetic result sets."""

import json
import random

import compare

SPEC = json.loads(compare.SPEC_PATH.read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def _noisy(median: float, spread: float, n: int = 10, seed: int = 0) -> list[float]:
    rng = random.Random(seed)
    return [median * (1 + rng.uniform(-spread, spread)) for _ in range(n)]


def test_planted_regression_is_caught():
    base = _noisy(100.0, 0.01)
    new = [v * 1.2 for v in _noisy(100.0, 0.01, seed=1)]
    for name in ("peak_rss_mb", "speedup_vs_numpy"):
        assert compare.judge(base, new, "lower", BOUND[name]).verdict == "regressed"
        assert compare.judge(new, base, "higher", BOUND[name]).verdict == "regressed"


def test_noise_wider_than_the_bound_is_unresolved():
    base = _noisy(100.0, 0.4)
    new = _noisy(100.0, 0.4, seed=1)
    assert compare.judge(base, new, "lower", 0.1).verdict == "unresolved"


def test_same_distribution_is_unchanged():
    base = _noisy(100.0, 0.01)
    new = _noisy(100.0, 0.01, seed=1)
    assert compare.judge(base, new, "lower", 0.1).verdict == "unchanged"


def test_consistent_gain_is_improved_and_needs_ten_pairs():
    base = _noisy(100.0, 0.01)
    new = [v * 0.8 for v in _noisy(100.0, 0.01, seed=1)]
    assert compare.judge(base, new, "lower", 0.1).verdict == "improved"
    assert compare.judge(base[:5], new[:5], "lower", 0.1).verdict == "unchanged"


def _results_file(tmp_path, name, scale=1.0, failed=0):
    workloads = {}
    for w in SPEC["workloads"]:
        metrics = {m["name"]: {"value": 10.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        metrics["speedup_vs_numpy"]["value"] *= scale
        workloads[w["name"]] = {"metrics": metrics, "attempted": 100, "failed": failed}
    path = tmp_path / name
    path.write_text(json.dumps({"workloads": workloads}))
    return path


def test_cli_exits_one_on_a_regression(tmp_path, capsys):
    def files(tag, **kw):
        return [str(_results_file(tmp_path, f"{tag}{i}.json", **kw)) for i in range(3)]

    base = files("a")
    assert compare.main(["--base", *base, "--new", *files("b")]) == 0
    assert "regressed" not in capsys.readouterr().out
    for tag, kw in (("c", {"scale": 0.8}), ("d", {"failed": 1})):
        assert compare.main(["--base", *base, "--new", *files(tag, **kw)]) == 1, kw
        assert "regressed" in capsys.readouterr().out
