"""Self-tests of the benchmark: its checks, its tracer and its output contract.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def identifiable_point(rng, I=6, J=5, Q=2):
    # orthonormal bases of centred columns are centred and orthonormal
    raw_g, raw_d = rng.standard_normal((I, Q)), rng.standard_normal((J, Q))
    gamma = np.linalg.qr(raw_g - raw_g.mean(axis=0))[0]
    delta = np.linalg.qr(raw_d - raw_d.mean(axis=0))[0]
    g, e = rng.standard_normal(I), rng.standard_normal(J)
    return dict(mu=1.0, g=g - g.mean(), e=e - e.mean(), lam=np.array([5.0, 2.0]),
                gamma=gamma, delta=delta)


def test_elbo_check_accepts_monotone_and_rejects_decrease():
    checks.check_elbo([-100.0, -50.0, -50.0, -49.0])
    with pytest.raises(checks.CheckError, match="decreased at sweep 2"):
        checks.check_elbo([-100.0, -50.0, -51.0])
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_elbo([-100.0, np.nan])


def test_identifiability_check_rejects_each_broken_constraint():
    point = identifiable_point(np.random.default_rng(0))
    checks.check_identifiable(**point)
    for key, bad in (("g", point["g"] + 0.1), ("lam", point["lam"][::-1]),
                     ("lam", -point["lam"]), ("gamma", point["gamma"] * 1.01),
                     ("delta", point["delta"] + 0.05)):
        with pytest.raises(checks.CheckError):
            checks.check_identifiable(**{**point, key: bad})


def test_quantile_check_rejects_disorder_and_wrong_shape():
    q50 = np.zeros((3, 4))
    checks.check_quantiles(q50 - 1, q50, q50 + 1, (3, 4))
    with pytest.raises(checks.CheckError, match="ordered"):
        checks.check_quantiles(q50 + 2, q50, q50 + 1, (3, 4))
    with pytest.raises(checks.CheckError, match="shape"):
        checks.check_quantiles(q50 - 1, q50, q50 + 1, (4, 3))


def test_heatmap_check_rejects_wrong_grid_shape(tmp_path):
    rows, cols = ("g1", "g2"), ("e1", "e2", "e3")
    good = tmp_path / "good.csv"
    good.write_text("genotype,e1,e2,e3\ng1,1,2,3\ng2,4,5,6\n")
    assert checks.check_heatmap_csv(good, rows, cols).shape == (2, 3)
    for name, text in (("short_row", "genotype,e1,e2,e3\ng1,1,2\ng2,4,5,6\n"),
                       ("missing_row", "genotype,e1,e2,e3\ng1,1,2,3\n"),
                       ("extra_col", "genotype,e1,e2,e3,e4\ng1,1,2,3,4\ng2,4,5,6,7\n")):
        bad = tmp_path / f"{name}.csv"
        bad.write_text(text)
        with pytest.raises(checks.CheckError):
            checks.check_heatmap_csv(bad, rows, cols)


def test_rhat_and_rmse_checks_reject_values_over_their_bounds():
    assert checks.check_rhat({"mu": 1.01, "g": np.array([1.0, 1.05])}) == 1.05
    with pytest.raises(checks.CheckError, match="R-hat"):
        checks.check_rhat({"mu": 1.01, "lam": np.array([1.2])})
    checks.check_rmse(0.3, 0.4, "VI")
    with pytest.raises(checks.CheckError):
        checks.check_rmse(0.5, 0.4, "VI")


def test_tracer_reports_missing_targets_as_absent_and_restores_attributes():
    def work(x):
        return helper(x) + 1

    def helper(x):
        return 2 * x

    fake_vi = types.SimpleNamespace(fit=work)
    fake_model = types.ModuleType("fake_model")
    fake_model.load_csv = helper
    tracer = spans.Tracer({"vi": fake_vi, "model": fake_model})
    tracer.op_id = 0
    with tracer, tracer.span("op"):
        assert fake_vi.fit(3) == 7
        assert fake_model.load_csv(3) == 6
    assert fake_vi.fit is work and fake_model.load_csv is helper
    per_op = tracer.per_op()[0]
    assert per_op["vi.fit"][0] == 1 and per_op["model.load_csv"][0] == 1
    assert per_op["op"][1] >= per_op["vi.fit"][1]
    assert "vi.update_mu" in tracer.absent and "gibbs.gibbs_fit" in tracer.absent
    assert spans.median_per_op(tracer.per_op(), [0], "vi.update_mu", 0) == 0


def test_benchmark_json_matches_the_harness():
    import workloads

    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w, _ in workloads.WORKLOADS.values()]
    assert BENCHMARK["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _ in metrics.END_TO_END]
    assert BENCHMARK["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in metrics.PER_LAYER]


def run_benchmark(trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "compare-small",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_every_metric_with_its_unit(trace, section):
    lines = run_benchmark(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    text = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line + " "
                   for line in lines[:-1]), f"{name} [{unit}] not printed"
    assert "record {" in text
    if trace == 0:
        for name, unit, _ in metrics.PER_OPERATION:
            assert any(line.split()[:1] == [name] and f" {unit} " in line
                       for line in lines[:-1]), f"{name} [{unit}] not printed"
