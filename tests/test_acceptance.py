"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The random-config criteria share one module-scoped solve of 100 seeded
configurations; the seed is fixed so every tolerance comparison below is
deterministic.
"""

import time

import numpy as np
import pytest

from relaybuf import (
    SimSettings,
    SymmetricConfig,
    SystemConfig,
    ThresholdPolicy,
    dominance_check,
    extract_threshold,
    map_threshold_set,
    optimal_threshold_search,
    policy_iteration_solve,
    recurrent_class,
    relay_activation_state,
    rvia_solve,
    simulate,
    steady_state_direct,
    build_transition_matrix,
    sweep_flop_counts,
    threshold_throughput,
)
from relaybuf.chain import brute_force_search, partition_system, rank_one_search, sweep_steps
from relaybuf.cli import _median_time
from relaybuf.errors import SingularSystem
from relaybuf.mdp import check_value_properties, delta_j, sign_changes
from relaybuf.sim import baseline_policy

from conftest import sample_config

SUITE_SEED = 20260808
SIM_SEED = 777001


def report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


@pytest.fixture(scope="module")
def solver_suite():
    """RVIA + PIA + threshold sweep over the 100 shared random configs."""
    rng = np.random.default_rng(SUITE_SEED)
    configs = [sample_config(rng) for _ in range(100)]
    t0 = time.perf_counter()
    records = []
    for cfg in configs:
        vf = rvia_solve(cfg)
        theta_pia, _ = policy_iteration_solve(cfg)
        sweep = optimal_threshold_search(cfg)
        records.append((cfg, vf, theta_pia, sweep))
    return {"records": records, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def chain_audit(solver_suite):
    """Per-threshold comparison of the update path against fresh solves.

    Collects, over every threshold of every suite config: the max-abs gap
    between the maintained inverse and a direct inversion, the gap between
    the two stationary vectors, and validity statistics of every emitted
    stationary vector from both paths.
    """
    worst_inv = worst_pi = worst_resid = worst_sum = 0.0
    min_entry = 1.0
    total = compared = degraded = rebuilt = skipped = 0
    for cfg, *_ in solver_suite["records"]:
        for step in sweep_steps(cfg):
            total += 1
            degraded += step.degraded
            rebuilt += step.rebuilt
            pi = step.pi.pi
            worst_resid = max(worst_resid, float(np.abs(pi @ step.model.P - pi).max()))
            worst_sum = max(worst_sum, abs(float(pi.sum()) - 1.0))
            min_entry = min(min_entry, float(pi.min()))
            if step.degraded or step.part is None:
                continue
            try:
                direct = partition_system(step.model)
                pi_direct = steady_state_direct(step.model).pi
            except SingularSystem:
                skipped += 1
                continue
            compared += 1
            worst_inv = max(worst_inv, float(np.abs(step.part.ahat_inv - direct.ahat_inv).max()))
            worst_pi = max(worst_pi, float(np.abs(pi - pi_direct).max()))
            worst_resid = max(worst_resid, float(np.abs(pi_direct @ step.model.P - pi_direct).max()))
            worst_sum = max(worst_sum, abs(float(pi_direct.sum()) - 1.0))
            min_entry = min(min_entry, float(pi_direct.min()))
    return {
        "worst_inv": worst_inv, "worst_pi": worst_pi, "worst_resid": worst_resid,
        "worst_sum": worst_sum, "min_entry": min_entry, "total": total,
        "compared": compared, "degraded": degraded, "rebuilt": rebuilt,
        "skipped": skipped,
    }


def test_criterion_1_threshold_reproduction():
    t0 = time.perf_counter()
    activation_states = set()
    for rs, rr in ((1, 2), (2, 1), (1, 1)):
        cfg = SystemConfig(rs, rr, 14, 0.5, 0.5)
        vf = rvia_solve(cfg)
        activation_states.add(relay_activation_state(vf, cfg))
        threshold = extract_threshold(vf, cfg)
        if (rs, rr) == (1, 1):
            symmetric_threshold = threshold
        sweep = optimal_threshold_search(cfg)
        mapped = map_threshold_set(sweep.q_opt, sweep.structure)
        assert threshold in mapped, (rs, rr, threshold, mapped)
    elapsed = time.perf_counter() - t0
    ok = activation_states == {3, 7, 12} and symmetric_threshold == 7 and elapsed < 1.0
    report(1, "threshold reproduction", ok,
           f"activation states {sorted(activation_states)}, symmetric {symmetric_threshold}, "
           f"{elapsed:.2f}s")


def test_criterion_2_cross_solver_agreement(solver_suite):
    worst_sweep = max(abs(vf.theta - sweep.throughput)
                      for _, vf, _, sweep in solver_suite["records"])
    worst_pia = max(abs(vf.theta - theta_pia)
                    for _, vf, theta_pia, _ in solver_suite["records"])
    elapsed = solver_suite["elapsed"]
    ok = worst_sweep <= 1e-7 and worst_pia <= 1e-7 and elapsed < 30.0
    report(2, "cross-solver agreement", ok,
           f"|rvia-sweep| {worst_sweep:.2e}, |rvia-pia| {worst_pia:.2e}, {elapsed:.1f}s")


def test_criterion_3_rank_one_updates(chain_audit):
    ok = chain_audit["worst_inv"] <= 1e-8 and chain_audit["worst_pi"] <= 1e-8
    report(3, "rank-one update correctness", ok,
           f"inv gap {chain_audit['worst_inv']:.2e}, pi gap {chain_audit['worst_pi']:.2e}, "
           f"{chain_audit['compared']}/{chain_audit['total']} thresholds compared, "
           f"{chain_audit['degraded']} degraded, {chain_audit['skipped']} skipped")


def test_criterion_4_steady_state_validity(chain_audit):
    model = build_transition_matrix(SystemConfig(1, 1, 2, 0.5, 0.5), 1)
    worked = steady_state_direct(model).pi
    worked_ok = np.abs(worked - np.array([0.2, 0.4, 0.4])).max() <= 1e-12
    ok = (chain_audit["worst_resid"] <= 1e-10
          and chain_audit["min_entry"] >= 0.0
          and chain_audit["worst_sum"] <= 1e-12
          and worked_ok)
    report(4, "steady-state validity", ok,
           f"stationarity {chain_audit['worst_resid']:.2e}, sum gap {chain_audit['worst_sum']:.2e}, "
           f"min entry {chain_audit['min_entry']:.2e}, worked case {'ok' if worked_ok else 'bad'}")


def test_criterion_5_symmetric_closed_form():
    from relaybuf.symmetric import symmetric_objective, symmetric_optimal_threshold, \
        symmetric_throughput
    worst = 0.0
    for rate in range(1, 5):
        for n in range(2, 31):
            for tenths in range(1, 10):
                sc = SymmetricConfig(rate=rate, n=n, p=tenths / 10.0)
                objective = [symmetric_objective(sc, m) for m in range(n + 1)]
                best = min(objective)
                for q in symmetric_optimal_threshold(sc):
                    assert objective[q // rate] <= best + 1e-12 * (1 + abs(best)), (sc, q)
                sweep = optimal_threshold_search(sc.to_config())
                assert [q for q, _ in sweep.trace] == [m * rate for m in range(n + 1)]
                for m, (_, chain_tp) in enumerate(sweep.trace):
                    worst = max(worst, abs(symmetric_throughput(sc, m) - chain_tp))
    ok = worst <= 1e-10
    report(5, "symmetric closed form", ok, f"worst closed-form vs chain {worst:.2e}")


def test_criterion_6_structure_certificates(solver_suite):
    bad = 0
    crossings = 0
    for cfg, vf, _, _ in solver_suite["records"]:
        rep = check_value_properties(vf, cfg, slack=1e-9)
        bad += not rep.all_hold
        crossings = max(crossings, sign_changes(delta_j(vf, cfg)))
    ok = bad == 0 and crossings <= 1
    report(6, "structure certificates", ok,
           f"{bad} failing configs, max advantage sign changes {crossings}")


def test_criterion_7_simulation_consistency():
    rng = np.random.default_rng(SIM_SEED)
    worst_sigma = 0.0
    worst_flow = 0.0
    for i in range(20):
        cfg = sample_config(rng, nr_max=60, p_lo=0.15, p_hi=0.9)
        sweep = optimal_threshold_search(cfg)
        settings = SimSettings(horizon=1_000_000, seed=900 + i, warmup=0, replications=5)
        res = simulate(cfg, ThresholdPolicy(sweep.q_opt), settings)
        gap = abs(res.mean_throughput - sweep.throughput)
        assert res.std_error > 0
        worst_sigma = max(worst_sigma, gap / res.std_error)
        flow = abs(res.mean_arrival_rate - res.mean_throughput) * settings.horizon / cfg.nr
        worst_flow = max(worst_flow, flow)
    ok = worst_sigma <= 3.0 and worst_flow <= 1.0
    report(7, "simulation consistency", ok,
           f"worst gap {worst_sigma:.2f} std errors, flow-balance usage {worst_flow:.2f}")


def test_criterion_8_baseline_ordering():
    rng = np.random.default_rng(SUITE_SEED + 1)
    worst = 0.0
    for _ in range(20):
        cfg = sample_config(rng, nr_max=60)
        st = recurrent_class(cfg)
        optimal = optimal_threshold_search(cfg).throughput
        for q_th in (0, cfg.rr, cfg.nr // 2):
            baseline = threshold_throughput(cfg, q_th, st)
            worst = max(worst, baseline - optimal)
    ok = worst <= 1e-12
    report(8, "baseline dominance", ok, f"max baseline excess {worst:.2e}")


def test_criterion_9_complexity_trend():
    sizes = []
    order_ok = True
    fit_ok = True
    details = []
    for nr in (40, 60, 80, 100):
        cfg = SystemConfig(4, 2, nr, 0.5, 0.5)
        c = recurrent_class(cfg).size
        sizes.append(c)
        t_pia = _median_time(lambda: policy_iteration_solve(cfg))
        t_rvia = _median_time(lambda: rvia_solve(cfg))
        t_brute = _median_time(lambda: brute_force_search(cfg))
        t_alg3 = _median_time(lambda: rank_one_search(cfg))
        order_ok &= t_alg3 <= t_brute <= t_rvia
        flops_direct, flops_updated = sweep_flop_counts(cfg)
        n = c - 1
        upd_ratio = flops_updated / (44.0 / 3.0 * n**3 + 3.0 * n**2)
        dir_ratio = flops_direct / (c * 2.0 * n**3 / 3.0)
        fit_ok &= 0.7 <= upd_ratio <= 1.3 and 0.7 <= dir_ratio <= 1.3
        details.append(f"|C|={c}: {t_alg3 * 1e3:.0f}/{t_brute * 1e3:.0f}/"
                       f"{t_rvia * 1e3:.0f}/{t_pia * 1e3:.0f}ms "
                       f"fit {upd_ratio:.2f}/{dir_ratio:.2f}")

    _, fu_small = sweep_flop_counts(SystemConfig(4, 2, 50, 0.5, 0.5))
    _, fu_big = sweep_flop_counts(SystemConfig(4, 2, 100, 0.5, 0.5))
    doubling = fu_big / fu_small
    doubling_ok = 8.0 * 0.7 <= doubling <= 8.0 * 1.3

    ok = sizes == [21, 31, 41, 51] and order_ok and fit_ok and doubling_ok
    report(9, "complexity trend", ok,
           f"sizes {sizes}, ordering {'ok' if order_ok else 'BROKEN'}, "
           f"doubling x{doubling:.2f}; " + "; ".join(details))


def test_criterion_10_dominance():
    rng = np.random.default_rng(606)
    all_ok = True
    for i in range(10):
        cfg = sample_config(rng, nr_max=30, p_lo=0.1, p_hi=0.9)
        q_th = int(rng.integers(0, cfg.nr + 1))
        settings = SimSettings(horizon=100_000, seed=7000 + i)
        all_ok &= dominance_check(cfg, ThresholdPolicy(q_th), settings, perturbations=100)
    report(10, "sample-path dominance", all_ok, "10 configs x 100 perturbations + idling")


def test_criterion_11_recurrent_class():
    # The closed-form state list holds on nr >= rs + rr; below that the
    # lattice walk cannot avoid clipping and reachability (authoritative)
    # finds a strictly smaller class, which the tool must flag, not fail on.
    checked = size_flagged = set_flagged = 0
    for rs in range(1, 7):
        for rr in range(1, 7):
            base = max(rs, rr)
            step = recurrent_class(SystemConfig(rs, rr, base + 1, 0.5, 0.5)).R
            for nr in range(base + 1, base + 2 * step + 4):
                st = recurrent_class(SystemConfig(rs, rr, nr, 0.5, 0.5))
                assert st.n * st.R + st.l == nr
                if nr < rs + rr and not st.set_matches_formula:
                    set_flagged += 1
                    assert set(st.states) < set(st.formula_states), (rs, rr, nr)
                    checked += 1
                    continue
                assert st.states == st.formula_states, (rs, rr, nr)
                if st.l <= 1:
                    assert st.size == (st.l + 1) * (st.n + 1), (rs, rr, nr)
                    assert st.size_matches_formula
                else:
                    size_flagged += 1
                    assert not st.size_matches_formula
                    assert st.size == 2 * (st.n + 1)
                checked += 1
    # reference lattice cases
    assert recurrent_class(SystemConfig(2, 1, 3, 0.5, 0.5)).states == (0, 1, 2, 3)
    fig_b = recurrent_class(SystemConfig(2, 2, 3, 0.5, 0.5))
    assert fig_b.states == (0, 1, 2, 3) and fig_b.size == 4
    assert recurrent_class(SystemConfig(1, 2, 4, 0.5, 0.5)).states == (0, 1, 2, 3, 4)
    report(11, "recurrent class", True,
           f"{checked} configs checked, {size_flagged} size-formula and "
           f"{set_flagged} tight-buffer set divergences flagged")
