"""CLI argument validation, exit codes, and the bench regression gate."""

import json
import pathlib

import pytest

from repro.cli import check_regression, main as cli_main
from repro.experiments.__main__ import main as experiments_main


# -- campaign subcommand: exit codes ------------------------------------------------


def test_campaign_bad_workload_exits_2(capsys):
    assert cli_main(["campaign", "NOPE", "--injections", "5"]) == 2
    assert "campaign:" in capsys.readouterr().err


def test_campaign_conflicting_resume_and_no_cache(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        cli_main([
            "campaign", "FMXM", "--store", str(tmp_path / "s.sqlite"),
            "--resume", "--no-cache",
        ])
    assert excinfo.value.code == 2


def test_campaign_resume_requires_store():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["campaign", "FMXM", "--resume"])
    assert excinfo.value.code == 2


def test_campaign_negative_retries_rejected():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["campaign", "FMXM", "--retries", "-1"])
    assert excinfo.value.code == 2


def test_campaign_missing_store_directory_exits_2(tmp_path, capsys):
    code = cli_main([
        "campaign", "FMXM", "--injections", "5",
        "--store", str(tmp_path / "missing" / "dir" / "s.sqlite"),
    ])
    assert code == 2
    assert "directory does not exist" in capsys.readouterr().err


def test_campaign_runs_and_caches(tmp_path, capsys):
    store = str(tmp_path / "cli.sqlite")
    out = tmp_path / "summary.json"
    args = [
        "campaign", "FMXM", "--injections", "8", "--seed", "3",
        "--store", store, "--out", str(out),
    ]
    assert cli_main(args) == 0
    first = json.loads(out.read_text())
    assert first["injections"] == 8
    assert first["store"]["commits"] >= 1 and first["store"]["hits"] == 0

    assert cli_main(args) == 0
    warm = json.loads(out.read_text())
    assert warm["outcomes"] == first["outcomes"]
    assert warm["store"]["misses"] == 0 and warm["store"]["commits"] == 0
    assert warm["store"]["tasks_replayed"] == 8
    capsys.readouterr()


# -- experiments CLI flag validation -------------------------------------------------


def test_experiments_cli_conflicting_flags(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        experiments_main([
            "fig1", "--store", str(tmp_path / "s.sqlite"), "--resume", "--no-cache",
        ])
    assert excinfo.value.code == 2


def test_experiments_cli_resume_requires_store():
    with pytest.raises(SystemExit) as excinfo:
        experiments_main(["fig1", "--resume"])
    assert excinfo.value.code == 2


# -- bench --check -------------------------------------------------------------------


def _report(sim_fast=100.0, campaign_fast=50.0):
    return {
        "layers": {
            "sim": {"runs_per_sec": {"fast": sim_fast, "reference": 10.0}},
            "campaign": {"injections_per_sec": {"fast": campaign_fast, "reference": 5.0}},
        }
    }


def test_check_regression_passes_within_tolerance():
    assert check_regression(_report(90.0), _report(100.0), tolerance=0.25) == []


def test_check_regression_flags_beyond_tolerance():
    regressions = check_regression(_report(60.0, 50.0), _report(100.0, 50.0), 0.25)
    assert len(regressions) == 1
    assert "sim.runs_per_sec" in regressions[0]


def test_check_regression_skips_unknown_layers_and_zero_baselines():
    fresh = {"layers": {"new_layer": {"x_per_sec": {"fast": 1.0}}, **_report()["layers"]}}
    base = _report()
    base["layers"]["sim"]["runs_per_sec"]["fast"] = 0.0
    assert check_regression(fresh, base, 0.25) == []


def test_bench_check_without_baseline_exits_2(tmp_path, capsys):
    code = cli_main(["bench", "--check", "--out", str(tmp_path / "none.json")])
    assert code == 2
    assert "no baseline" in capsys.readouterr().err


def test_bench_check_against_synthetic_baselines(tmp_path, capsys):
    bench_args = [
        "bench", "--warmup", "1", "--sim-runs", "2", "--sass-runs", "2",
        "--injections", "5",
    ]
    # a floor-zero baseline can never regress → exit 0
    low = tmp_path / "low.json"
    low.write_text(json.dumps({
        "layers": {"sim": {"runs_per_sec": {"fast": 0.001}},
                   "sass": {"runs_per_sec": {"fast": 0.001}},
                   "campaign": {"injections_per_sec": {"fast": 0.001}}}
    }))
    assert cli_main(bench_args + ["--check", "--out", str(low)]) == 0

    # an absurdly fast baseline always regresses → exit 1
    high = tmp_path / "high.json"
    high.write_text(json.dumps({
        "layers": {"sim": {"runs_per_sec": {"fast": 1e12}}}
    }))
    assert cli_main(bench_args + ["--check", "--out", str(high)]) == 1
    assert "bench regression" in capsys.readouterr().err


def test_check_regression_enforces_baseline_declared_absolute_gates():
    """The committed baseline declares two absolute gates: the batch
    layer's target_injections_per_sec floor and the service layer's
    max_overhead ceiling against its own serial arm."""
    base = {
        "layers": {
            "batch": {"injections_per_sec": {"fast": 15000.0},
                      "target_injections_per_sec": 13910.0},
            "service": {"injections_per_sec": {"fast": 100.0, "reference": 100.0},
                        "max_overhead": 0.1},
        }
    }
    good = {
        "layers": {
            "batch": {"injections_per_sec": {"fast": 14000.0}},
            "service": {"injections_per_sec": {"fast": 95.0, "reference": 100.0}},
        }
    }
    assert check_regression(good, base, 0.25) == []

    slow_batch = json.loads(json.dumps(good))
    slow_batch["layers"]["batch"]["injections_per_sec"]["fast"] = 9000.0
    regressions = check_regression(slow_batch, base, 0.25)
    assert any("absolute target" in r for r in regressions)

    slow_service = json.loads(json.dumps(good))
    slow_service["layers"]["service"]["injections_per_sec"]["reference"] = 120.0
    regressions = check_regression(slow_service, base, 0.25)
    assert any("service arm" in r and "ceiling" in r for r in regressions)

    # a baseline NOT declaring the gates (synthetic/smoke) never trips them
    bare = {"layers": {"batch": {"injections_per_sec": {"fast": 0.001}},
                       "service": {"injections_per_sec": {"fast": 0.001}}}}
    assert check_regression(slow_batch, bare, 0.25) == []
    assert check_regression(slow_service, bare, 0.25) == []


def test_committed_bench_baseline_has_all_layers_and_gates():
    """Smoke over the committed BENCH_simulator.json: every layer records
    a "fast" throughput for the tolerance gate; the single-arm layers
    (sim, sass, campaign) record nothing else; the two-arm knob layers
    record a speedup; the batch layer is present with its absolute floor
    met, and the service layer stays under its declared
    coordination-overhead ceiling."""
    baseline_path = pathlib.Path(__file__).resolve().parents[1] / "BENCH_simulator.json"
    baseline = json.loads(baseline_path.read_text())
    layers = baseline["layers"]
    assert set(layers) >= {"sim", "sass", "campaign", "replay", "batch", "service"}
    for name, metrics in layers.items():
        throughputs = [v for v in metrics.values() if isinstance(v, dict)]
        assert throughputs and all(float(v["fast"]) > 0.0 for v in throughputs), name
        if name in ("sim", "sass", "campaign"):
            assert "speedup" not in metrics, name
            assert all(set(v) == {"fast"} for v in throughputs), name
        elif "max_overhead" in metrics:
            # overhead-style layer (the service): a cost with a ceiling,
            # not a speedup — the committed baseline must respect it
            assert float(metrics["overhead"]) <= float(metrics["max_overhead"])
        else:
            assert "speedup" in metrics, f"bench layer {name!r} records no speedup"
            assert float(metrics["speedup"]) > 0.0
    batch = layers["batch"]
    assert float(batch["injections_per_sec"]["fast"]) >= float(
        batch["target_injections_per_sec"]
    )


@pytest.mark.bench
def test_bench_writes_baseline_atomically(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    code = cli_main([
        "bench", "--out", str(out), "--warmup", "1",
        "--sim-runs", "2", "--sass-runs", "2", "--injections", "5",
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "repro-bench-simulator/1"
    assert not list(tmp_path.glob("*.tmp"))
    capsys.readouterr()
