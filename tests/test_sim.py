import numpy as np
import pytest

from relaybuf import (
    CsiOnlyPolicy,
    SimSettings,
    SystemConfig,
    TabularPolicy,
    ThresholdPolicy,
    baseline_policy,
    build_transition_matrix,
    compare,
    dominance_check,
    sample_channel,
    simulate,
    steady_state_direct,
)
from relaybuf import sim
from relaybuf.sim import histogram_csv, policy_label, result_csv

from conftest import sample_config

CFG3 = SystemConfig(rs=1, rr=1, nr=2, ps=0.5, pr=0.5)


def test_sample_channel_degenerate():
    cfg_on = SystemConfig(1, 1, 3, 1.0, 1.0)
    gen = np.random.default_rng(1)
    assert all(sample_channel(gen, cfg_on) == type(sample_channel(gen, cfg_on))(1, 1)
               for _ in range(50))
    cfg_off = SystemConfig(1, 1, 3, 0.0, 0.7)
    assert all(sample_channel(gen, cfg_off).gs == 0 for _ in range(50))


def test_sample_channel_joint_frequency():
    cfg = SystemConfig(1, 1, 3, 0.6, 0.3)
    gen = np.random.default_rng(7)
    n = 100_000
    hits = sum(1 for _ in range(n)
               if (lambda c: c.gs == 1 and c.gr == 1)(sample_channel(gen, cfg)))
    p = cfg.ps * cfg.pr
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * sigma + 1e-12


def test_simulate_nothing_arrives():
    res = simulate(SystemConfig(1, 1, 2, 0.0, 0.7), ThresholdPolicy(1),
                   SimSettings(horizon=5000, seed=3))
    assert res.mean_throughput == 0.0
    assert res.mean_arrival_rate == 0.0


def test_simulate_forced_alternation():
    res = simulate(SystemConfig(1, 1, 4, 1.0, 1.0), ThresholdPolicy(2),
                   SimSettings(horizon=200_000, seed=5))
    assert res.mean_throughput == pytest.approx(0.5, abs=1e-3)


def test_simulate_three_state_oracle():
    res = simulate(CFG3, ThresholdPolicy(1),
                   SimSettings(horizon=1_000_000, seed=11, replications=5))
    assert abs(res.mean_throughput - 0.3) <= 3 * res.std_error


def test_simulate_deterministic():
    settings = SimSettings(horizon=20_000, seed=42, replications=3)
    cfg = SystemConfig(2, 3, 9, 0.6, 0.4)
    a = simulate(cfg, ThresholdPolicy(4), settings)
    b = simulate(cfg, ThresholdPolicy(4), settings)
    assert a.per_replication == b.per_replication
    assert a.mean_throughput == b.mean_throughput
    assert np.array_equal(a.occupancy_histogram, b.occupancy_histogram)


def test_histogram_accounting():
    settings = SimSettings(horizon=10_000, seed=9, replications=4)
    cfg = SystemConfig(2, 2, 6, 0.5, 0.5)
    res = simulate(cfg, ThresholdPolicy(3), settings)
    window = settings.horizon - settings.resolved_warmup()
    assert res.occupancy_histogram.sum() == settings.replications * window
    assert res.occupancy_histogram.shape == (cfg.nr + 1,)


def test_flow_balance_with_zero_warmup(rng):
    for _ in range(5):
        cfg = sample_config(rng, nr_max=30, p_lo=0.2, p_hi=0.9)
        settings = SimSettings(horizon=50_000, seed=17, warmup=0)
        res = simulate(cfg, ThresholdPolicy(cfg.nr // 2), settings)
        assert abs(res.mean_arrival_rate - res.mean_throughput) <= cfg.nr / settings.horizon


def test_throughput_bounded_by_link_capacity(rng):
    for _ in range(5):
        cfg = sample_config(rng, nr_max=20)
        res = simulate(cfg, ThresholdPolicy(cfg.nr // 2),
                       SimSettings(horizon=20_000, seed=23, replications=2))
        cap = min(cfg.rs * cfg.ps, cfg.rr * cfg.pr)
        assert 0.0 <= res.mean_throughput <= cap + 3 * res.std_error + 1e-9


def test_csi_only_extremes_match_threshold_policies():
    cfg = SystemConfig(2, 2, 7, 0.7, 0.6)
    settings = SimSettings(horizon=30_000, seed=31)
    never = simulate(cfg, CsiOnlyPolicy(sigma=0.0), settings)
    always_source = simulate(cfg, ThresholdPolicy(cfg.nr), settings)
    assert never.mean_throughput == always_source.mean_throughput


def test_simulate_analytic_agreement():
    cfg = SystemConfig(1, 2, 7, 0.55, 0.45)
    q_th = 3
    model = build_transition_matrix(cfg, q_th)
    analytic = steady_state_direct(model).throughput(model)
    res = simulate(cfg, ThresholdPolicy(q_th),
                   SimSettings(horizon=1_000_000, seed=13, replications=5))
    assert abs(res.mean_throughput - analytic) <= 3 * res.std_error


def test_baseline_policies():
    cfg = SystemConfig(3, 2, 5, 0.5, 0.5)
    assert baseline_policy("dopn", cfg) == ThresholdPolicy(0)
    assert baseline_policy("adop", cfg) == ThresholdPolicy(2)
    assert baseline_policy("top", cfg) == ThresholdPolicy(2)
    assert baseline_policy("csi_only", cfg, sigma=0.25) == CsiOnlyPolicy(0.25)
    with pytest.raises(ValueError):
        baseline_policy("nope", cfg)


def test_compare_common_random_numbers():
    cfg = SystemConfig(3, 2, 50, 0.5, 0.5)
    settings = SimSettings(horizon=100_000, seed=19, replications=2)
    rows = compare(cfg, [ThresholdPolicy(24), baseline_policy("dopn", cfg),
                         ThresholdPolicy(24)], settings)
    labels = [label for label, _ in rows]
    assert labels[0] == labels[2] == "threshold:24"
    assert rows[0][1].mean_throughput == rows[2][1].mean_throughput
    # a mid-buffer threshold beats draining at every opportunity
    assert rows[0][1].mean_throughput >= rows[1][1].mean_throughput


def test_compare_single_policy_matches_simulate():
    cfg = SystemConfig(2, 1, 6, 0.5, 0.5)
    settings = SimSettings(horizon=20_000, seed=29)
    rows = compare(cfg, [ThresholdPolicy(3)], settings)
    assert rows[0][1].mean_throughput == simulate(cfg, ThresholdPolicy(3),
                                                  settings).mean_throughput


def test_compare_rejects_empty():
    with pytest.raises(ValueError):
        compare(CFG3, [], SimSettings(horizon=100))


def test_dominance_check_small():
    cfg = SystemConfig(1, 2, 4, 0.5, 0.5)
    settings = SimSettings(horizon=10_000, seed=37)
    assert dominance_check(cfg, ThresholdPolicy(2), settings, perturbations=20)
    # idle-only comparator (no rate perturbations)
    assert dominance_check(cfg, ThresholdPolicy(2), settings, perturbations=0)


def test_dominance_check_various_policies(rng):
    for _ in range(3):
        cfg = sample_config(rng, nr_max=15)
        settings = SimSettings(horizon=5_000, seed=int(rng.integers(1 << 30)))
        policy = ThresholdPolicy(int(rng.integers(0, cfg.nr + 1)))
        assert dominance_check(cfg, policy, settings, perturbations=10)


def test_settings_validation():
    with pytest.raises(ValueError):
        SimSettings(horizon=0)
    with pytest.raises(ValueError):
        SimSettings(horizon=100, replications=0)
    with pytest.raises(ValueError):
        SimSettings(horizon=100, warmup=100).resolved_warmup()


def test_window_that_could_overflow_the_accumulator_is_refused(monkeypatch):
    def no_symbols(*args):
        raise AssertionError("symbols drawn for a refused window")
    monkeypatch.setattr(sim, "_symbols", no_symbols)
    cfg = SystemConfig(1, 50, 100, 0.5, 0.9)
    settings = SimSettings(horizon=10**8, seed=1)
    with pytest.raises(ValueError, match="accumulator"):
        simulate(cfg, ThresholdPolicy(50), settings)
    with pytest.raises(ValueError, match="accumulator"):
        dominance_check(cfg, ThresholdPolicy(50), settings)
    # the bound: a window may deliver at most 2**32 - 1 packets
    limit = ((1 << sim._REW_BITS) - 1) // cfg.rr
    sim._check_accumulator(cfg, limit)
    with pytest.raises(ValueError):
        sim._check_accumulator(cfg, limit + 1)


def test_tabular_policy_must_cover_every_state():
    cfg = SystemConfig(1, 1, 4, 0.5, 0.5)
    with pytest.raises(ValueError, match="nr \\+ 1"):
        simulate(cfg, TabularPolicy((0, 0, 1, 1)), SimSettings(horizon=100))
    with pytest.raises(ValueError):
        simulate(cfg, TabularPolicy((0, 0, 1, 1, 1, 1)), SimSettings(horizon=100))
    simulate(cfg, TabularPolicy((0, 0, 1, 1, 1)), SimSettings(horizon=100))


def test_csv_exports():
    res = simulate(CFG3, ThresholdPolicy(1), SimSettings(horizon=2000, seed=1, replications=2))
    lines = result_csv(res).strip().splitlines()
    assert lines[0] == "replication,seed,throughput"
    assert len(lines) == 3
    hist_lines = histogram_csv(res).strip().splitlines()
    assert hist_lines[0] == "q,count"
    assert len(hist_lines) == CFG3.nr + 2
    assert policy_label(ThresholdPolicy(3)) == "threshold:3"
    assert policy_label(CsiOnlyPolicy(0.5)) == "csi:0.5"
