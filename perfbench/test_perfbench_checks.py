"""Tests of the benchmark's reference and checks: right results pass, wrong ones fail.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from relaybuf import chain, mdp  # noqa: E402
from relaybuf.model import SystemConfig  # noqa: E402

CFG = SystemConfig(rs=2, rr=3, nr=40, ps=0.6, pr=0.45)
SYM = SystemConfig(rs=2, rr=2, nr=40, ps=0.5, pr=0.5)


@pytest.fixture(scope="module")
def solved():
    vf = mdp.rvia_solve(CFG)
    return vf, mdp.extract_threshold(vf, CFG), reference.odoni_bounds(CFG, vf.v)


def _power_stationary(p):
    x = np.full(len(p), 1.0 / len(p))
    for _ in range(200_000):
        x_next = x @ p
        if np.abs(x_next - x).max() < 1e-15:
            break
        x = x_next
    return x_next


@pytest.mark.parametrize("cfg", [CFG, SystemConfig(5, 1, 17, 0.3, 0.8),
                                 SystemConfig(1, 4, 23, 0.9, 0.2), SYM])
def test_banded_reduction_matches_dense_and_power_iteration(cfg):
    rule = np.random.default_rng(5).random(cfg.nr + 1)
    prob, nxt, _, _ = reference.outcomes(cfg, rule)
    p = reference.transition_matrix(prob, nxt)
    assert np.allclose(p.sum(axis=1), 1.0)
    banded = reference.stationary(p, below=cfg.rr, above=cfg.rs)
    dense = reference.stationary(p, below=len(p), above=len(p))
    np.testing.assert_allclose(banded, dense, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(banded, _power_stationary(p), atol=1e-10)


def test_reference_matches_symmetric_closed_form():
    from relaybuf.symmetric import symmetric_config_of, symmetric_throughput
    sc = symmetric_config_of(SYM)
    for m in range(sc.n + 1):
        ev = reference.evaluate(SYM, reference.threshold_rule(SYM, m * sc.rate))
        assert ev.throughput == pytest.approx(symmetric_throughput(sc, m), abs=1e-13)
        assert ev.arrival_rate == pytest.approx(ev.throughput, abs=1e-13)


def test_variance_matches_the_spread_of_simulated_runs():
    from relaybuf.model import ThresholdPolicy
    from relaybuf.sim import SimSettings, simulate
    ev = reference.evaluate(CFG, reference.threshold_rule(CFG, 10))
    settings = SimSettings(horizon=5_000, seed=2, replications=200, warmup=1_000)
    tps = [tp for _, tp in simulate(CFG, ThresholdPolicy(10), settings).per_replication]
    assert np.var(tps, ddof=1) * 4_000 == pytest.approx(ev.variance, rel=0.3)


def test_correct_results_pass(solved):
    vf, q, (lo, hi) = solved
    sweep = chain.optimal_threshold_search(CFG)
    assert checks.odoni_span(lo, hi) is None
    for value in (vf.theta, sweep.throughput,
                  reference.evaluate(CFG, reference.threshold_rule(CFG, q)).throughput):
        assert checks.within_bounds("x", value, lo, hi) is None


def test_theta_off_by_1e_6_fails(solved):
    vf, _, (lo, hi) = solved
    assert checks.within_bounds("theta", vf.theta + 1e-6, lo, hi) is not None
    assert checks.within_bounds("theta", vf.theta - 1e-6, lo, hi) is not None


def test_threshold_off_the_plateau_fails(solved):
    _, _, (lo, hi) = solved
    trace = chain.optimal_threshold_search(CFG).trace
    off = [q for q, v in trace if v < lo - 1e-6]
    assert off
    wrong = reference.evaluate(CFG, reference.threshold_rule(CFG, off[-1])).throughput
    assert checks.within_bounds("q", wrong, lo, hi) is not None


def test_wrong_value_vector_widens_the_bracket(solved):
    vf, _, _ = solved
    v = vf.v.copy()
    v[len(v) // 2] += 1e-6
    lo, hi = reference.odoni_bounds(CFG, v)
    assert checks.odoni_span(lo, hi) is not None


def test_baseline_above_the_optimum_fails(solved):
    _, _, (lo, hi) = solved
    dopn = reference.evaluate(CFG, reference.threshold_rule(CFG, 0)).throughput
    assert checks.not_above("dopn", dopn, hi) is None
    assert checks.not_above("dopn", hi + 1e-6, hi) is not None


def test_wrong_trace_entry_fails():
    q, value = chain.optimal_threshold_search(CFG).trace[3]
    exact = reference.evaluate(CFG, reference.threshold_rule(CFG, q)).throughput
    assert checks.matches("trace", value, exact) is None
    assert checks.matches("trace", value + 1e-6, exact) is not None


def test_shifted_arrivals_fail_conservation():
    window = 19_800
    assert checks.conservation("p", 0.5, 0.5 + CFG.nr / window / 2, CFG.nr, window) is None
    assert checks.conservation("p", 0.5, 0.5 + 2 * CFG.nr / window, CFG.nr, window) is not None


def test_statistical_bound_rejects_a_biased_simulation():
    from relaybuf.model import ThresholdPolicy
    from relaybuf.sim import SimSettings, simulate
    ev = reference.evaluate(CFG, reference.threshold_rule(CFG, 10))
    settings = SimSettings(horizon=20_000, seed=11, replications=2)
    res = simulate(CFG, ThresholdPolicy(10), settings)
    window = settings.horizon - settings.resolved_warmup()
    bound = checks.statistical_bound(ev.variance, ev.bias_span, 2, window)
    assert checks.simulated("p", res.mean_throughput, ev.throughput, bound) is None
    assert checks.simulated("p", res.mean_throughput + 2 * bound, ev.throughput, bound) is not None
    assert bound < 0.05 * ev.throughput


def test_pipeline_passes_its_checks_on_a_small_workload():
    lib = run.import_library()
    wl = workloads.Workload(configs=(CFG, SYM), horizon=5_000, replications=2,
                            sim_seeds=(1, 2), trace_samples=4, seed=3)
    pipe = run.Pipeline(lib, wl)
    runs, _ = pipe.run_round()
    assert pipe.attempted == 9 and not any(r.errors for r in runs)
    for i, r in enumerate(runs):
        assert checks.check_config(lib, wl, i, r)["failures"] == []
    r = runs[0]
    r.sweep = dataclasses.replace(r.sweep, throughput=r.sweep.throughput + 1e-6)
    assert checks.check_config(lib, wl, 0, r)["failures"]


def test_checks_hold_without_an_rvia_threshold(solved):
    vf, _, _ = solved
    lib = run.import_library()
    wl = workloads.Workload(configs=(CFG,), horizon=5_000, replications=2,
                            sim_seeds=(1,), trace_samples=4, seed=3)
    r = run.ConfigRun(CFG, sweep=chain.optimal_threshold_search(CFG), rvia=vf,
                      pia=mdp.policy_iteration_solve(CFG))
    out = checks.check_config(lib, wl, 0, r)
    assert out["failures"] == [] and "rvia.q_th" not in out["optimal"]


def _raise(*args, **kwargs):
    raise mdp.NoConvergence("raised on purpose")


@pytest.mark.parametrize("path", ["rvia_solve", "extract_threshold"])
def test_a_raising_rvia_is_counted_and_pia_brackets_the_rest(monkeypatch, path):
    lib = run.import_library()
    monkeypatch.setattr(mdp, path, _raise)
    wl = workloads.Workload(configs=(CFG,), horizon=5_000, replications=2,
                            sim_seeds=(1,), trace_samples=4, seed=3)
    pipe = run.Pipeline(lib, wl)
    (r,), _ = pipe.run_round()
    assert pipe.attempted == 3 and list(r.errors) == ["rvia"]
    assert r.rvia is None and r.q_rvia is None and r.rows is None
    out = checks.check_config(lib, wl, 0, r)
    assert out["bracket_from"] == "pia.g" and out["failures"] == []
    assert {"sweep.theta", "sweep.q_opt", "pia.theta", "pia.policy"} <= set(out["optimal"])
    r.sweep = dataclasses.replace(r.sweep, throughput=r.sweep.throughput + 1e-6)
    assert checks.check_config(lib, wl, 0, r)["failures"]


def test_relative_values_of_a_policy_off_the_optimum_widen_the_bracket():
    g = reference.evaluate(CFG, reference.threshold_rule(CFG, 0)).g
    lo, hi = reference.odoni_bounds(CFG, g)
    assert checks.odoni_span(lo, hi) is not None


def test_workloads_are_seeded():
    a, b = workloads.build("suite", 4), workloads.build("suite", 4)
    assert a == b and a.configs != workloads.build("suite", 5).configs
    fixed = workloads.SYMMETRIC + (workloads.RVIA_FAILS,)
    assert a.configs[-len(fixed):] == fixed
    for cfg in a.configs[:-len(fixed)]:
        assert 1 <= cfg.rs <= 6 and 1 <= cfg.rr <= 6 and max(cfg.rs, cfg.rr) < cfg.nr <= 120
        assert 0.05 <= cfg.ps <= 0.95 and 0.05 <= cfg.pr <= 0.95
        assert cfg != workloads.RVIA_FAILS
    assert workloads.pool()[1879] == workloads.RVIA_FAILS
