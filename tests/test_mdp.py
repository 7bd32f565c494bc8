import numpy as np
import pytest

from relaybuf import (
    SolverSettings,
    SystemConfig,
    ValueFunction,
    check_value_properties,
    extract_threshold,
    optimal_threshold_search,
    policy_iteration_solve,
    relay_activation_state,
    rvia_solve,
    state_action_reward,
)
from relaybuf import mdp
from relaybuf.errors import DegenerateP, NoConvergence, NotThreshold, QueueOutOfRange
from relaybuf.mdp import bellman_residual, delta_j, evaluate_policy_direct, sign_changes

from conftest import sample_config

# Exact optimum of the 3-state worked system (rs=rr=1, nr=2, p=0.5): the
# optimal threshold chain has stationary vector (0.2, 0.4, 0.4) against
# departure rates (0, 0.25, 0.5), giving long-run throughput 0.3.
CFG3 = SystemConfig(rs=1, rr=1, nr=2, ps=0.5, pr=0.5)
THETA3 = 0.3


def zero_vf(cfg):
    return ValueFunction(v=np.zeros(cfg.nr + 1), theta=0.0)


def test_state_action_reward_zero_value_cases():
    cfg = SystemConfig(2, 2, 6, 0.4, 0.7)
    vf = zero_vf(cfg)
    assert state_action_reward(vf, 0, 1, cfg) == 0.0
    for q in range(cfg.rr, cfg.nr + 1):
        assert state_action_reward(vf, q, 1, cfg) == pytest.approx(cfg.pr * cfg.rr, abs=1e-15)
        assert state_action_reward(vf, q, 0, cfg) == pytest.approx(
            cfg.ps_bar * cfg.pr * cfg.rr, abs=1e-15)
    with pytest.raises(QueueOutOfRange):
        state_action_reward(vf, cfg.nr + 1, 0, cfg)


def test_rvia_three_state_oracle():
    vf = rvia_solve(CFG3)
    assert vf.theta == pytest.approx(THETA3, abs=1e-9)
    assert vf.v[vf.reference_state] == 0.0


def test_rvia_rejects_boundary_probability():
    with pytest.raises(DegenerateP):
        rvia_solve(SystemConfig(1, 1, 2, 0.0, 0.5))


def test_rvia_alternation_limit():
    # both links nearly always on forces source/relay alternation; the span
    # damping rate is the tiny both-off probability, so p much closer to 1
    # would need >1e7 sweeps
    vf = rvia_solve(SystemConfig(1, 1, 4, 0.99, 0.99))
    assert vf.theta == pytest.approx(0.5, abs=1e-3)


def test_rvia_no_convergence_cap():
    # an unreachable tolerance also defeats the certification exit
    with pytest.raises(NoConvergence):
        rvia_solve(CFG3, SolverSettings(tol=1e-16, max_iter=3))


# Draws from the acceptance suite's law on which a near-tie state (relay
# advantage positive but below TIE_TOL) made the certification walk cycle
# between the exact solution and its greedy rule until the sweep cap.
NEAR_TIE_CYCLES = (
    SystemConfig(2, 2, 107, 0.4853693219686297, 0.5469778121170199),
    SystemConfig(3, 3, 71, 0.7714301468897912, 0.9273896830411251),
)


@pytest.mark.parametrize("cfg", NEAR_TIE_CYCLES)
def test_rvia_certifies_through_a_near_tie_cycle(cfg):
    vf = rvia_solve(cfg)
    assert bellman_residual(vf, cfg) <= 1e-10 * (1 + abs(vf.theta))
    assert vf.theta == pytest.approx(optimal_threshold_search(cfg).throughput, abs=1e-9)


def test_rvia_bellman_residual_and_reference_choice():
    for q0 in (0, 2):
        vf = rvia_solve(CFG3, SolverSettings(q0=q0))
        assert vf.theta == pytest.approx(THETA3, abs=1e-9)
        assert vf.v[q0] == 0.0
        assert bellman_residual(vf, CFG3) <= 1e-10 * (1 + abs(vf.theta))


def test_pia_three_state_oracle():
    theta, policy = policy_iteration_solve(CFG3)
    assert theta == pytest.approx(THETA3, abs=1e-9)
    assert len(policy.relay_choice) == CFG3.nr + 1


def test_pia_matches_rvia(rng):
    for _ in range(6):
        cfg = sample_config(rng, nr_max=40)
        vf = rvia_solve(cfg)
        theta_pia, _ = policy_iteration_solve(cfg)
        assert theta_pia == pytest.approx(vf.theta, abs=2e-10)


def test_pia_symmetric_threshold_seven():
    theta, policy = policy_iteration_solve(SystemConfig(1, 1, 14, 0.5, 0.5))
    choices = np.asarray(policy.relay_choice)
    assert np.all(np.diff(choices) >= 0), "stable policy should be a step function"
    assert int(np.flatnonzero(choices == 0)[-1]) == 7


# Symmetric members with a flat trace, and a config whose improvement ends
# on a same-gain plateau rather than at a fixed point.
PIA_PLATEAU = SystemConfig(1, 1, 300, 0.25, 0.3)
PIA_FIXED = (SystemConfig(1, 1, 200, 0.4, 0.4), SystemConfig(2, 2, 300, 0.5, 0.5),
             SystemConfig(3, 3, 150, 0.7, 0.7), PIA_PLATEAU)


def test_pia_exact_rounds_match_sweep(monkeypatch):
    thetas = []

    def recorded(*args, **kwargs):
        theta, v = evaluate_policy_direct(*args, **kwargs)
        thetas.append(theta)
        return theta, v

    monkeypatch.setattr(mdp, "evaluate_policy_direct", recorded)
    rng = np.random.default_rng(4242)
    for cfg in [sample_config(rng) for _ in range(20)] + list(PIA_FIXED):
        thetas.clear()
        theta, policy = policy_iteration_solve(cfg)
        assert len(thetas) <= 50, cfg
        assert theta == pytest.approx(optimal_threshold_search(cfg).throughput, abs=5e-10)
        exact, _ = evaluate_policy_direct(np.asarray(policy.relay_choice), cfg)
        assert abs(theta - exact) <= 1e-12
        if cfg == PIA_PLATEAU:
            # the plateau exit keeps the best evaluated rule, not the last
            assert thetas[-1] < theta == max(thetas)


def test_pia_raises_at_once_on_a_cycle_of_two_gains(monkeypatch):
    # improvement alternates between two rules of different gain; a walk
    # back to the first rule cannot end on a plateau, so PIA stops there
    cfg = SystemConfig(1, 1, 14, 0.5, 0.5)
    rules = (np.zeros(cfg.nr + 1, dtype=np.int8), (np.arange(cfg.nr + 1) > 7).astype(np.int8))
    improvements = []
    evaluations = []

    def alternating(values, cfg):
        improvements.append(None)
        return rules[len(improvements) % 2]

    def counted(*args, **kwargs):
        evaluations.append(None)
        return evaluate_policy_direct(*args, **kwargs)

    monkeypatch.setattr(mdp, "greedy_policy", alternating)
    monkeypatch.setattr(mdp, "evaluate_policy_direct", counted)
    with pytest.raises(NoConvergence):
        policy_iteration_solve(cfg)
    assert len(evaluations) == 2


def test_extract_threshold_zero_value_function():
    cfg = SystemConfig(1, 2, 5, 0.5, 0.5)
    assert extract_threshold(zero_vf(cfg), cfg) == 0


def test_extract_threshold_small_tie_case():
    vf = rvia_solve(CFG3)
    assert extract_threshold(vf, CFG3) in (0, 1)


def test_threshold_conventions_at_reference_buffer():
    # strict thresholds and the first relay-scheduled state, three rate pairs
    expected = {(1, 2): (11, 12), (2, 1): (2, 3), (1, 1): (7, 7)}
    for (rs, rr), (thr, act) in expected.items():
        cfg = SystemConfig(rs, rr, 14, 0.5, 0.5)
        vf = rvia_solve(cfg)
        assert extract_threshold(vf, cfg) == thr
        assert relay_activation_state(vf, cfg) == act


def test_extract_threshold_rejects_non_step():
    cfg = SystemConfig(1, 1, 3, 0.5, 0.5)
    bumpy = ValueFunction(v=np.array([0.0, 0.0, 0.5, 2.0]), theta=0.0)
    with pytest.raises(NotThreshold):
        extract_threshold(bumpy, cfg)


def test_extract_threshold_rejects_all_relay():
    cfg = SystemConfig(1, 1, 3, 0.5, 0.5)
    decreasing = ValueFunction(v=np.array([0.0, -5.0, -10.0, -15.0]), theta=0.0)
    with pytest.raises(NotThreshold):
        extract_threshold(decreasing, cfg)


def test_properties_hold_for_solved_reference_config():
    cfg = SystemConfig(1, 2, 14, 0.5, 0.5)
    vf = rvia_solve(cfg)
    report = check_value_properties(vf, cfg)
    assert report.all_hold and report.first_violation is None
    dj = delta_j(vf, cfg)
    assert sign_changes(dj) == 1


def test_properties_linear_value_function():
    cfg = SystemConfig(1, 1, 6, 0.5, 0.5)
    linear = ValueFunction(v=np.arange(7) / 2.0, theta=0.0)
    report = check_value_properties(linear, cfg)
    assert report.monotone and report.increments_le_one and report.k_concave


def test_properties_flag_quadratic_increments():
    cfg = SystemConfig(1, 1, 5, 0.5, 0.5)
    quad = ValueFunction(v=np.arange(6, dtype=float) ** 2, theta=0.0)
    report = check_value_properties(quad, cfg)
    assert report.monotone
    assert not report.increments_le_one
    assert report.first_violation == ("increments_le_one", 1)


def test_supermodularity_zero_and_synthetic_violation():
    cfg = SystemConfig(1, 2, 6, 0.5, 0.5)
    assert check_value_properties(zero_vf(cfg), cfg).supermodular
    concave_down = ValueFunction(v=-np.arange(7, dtype=float) ** 2, theta=0.0)
    report = check_value_properties(concave_down, cfg)
    if not report.supermodular:
        assert report.first_violation[0] in ("monotone", "supermodular")


def test_delta_j_crosses_zero_once_random(rng):
    for _ in range(5):
        cfg = sample_config(rng, nr_max=30)
        vf = rvia_solve(cfg)
        assert sign_changes(delta_j(vf, cfg)) <= 1
