import numpy as np
import pytest

from relaybuf import (
    SystemConfig,
    build_transition_matrix,
    departure_rates,
    map_threshold_set,
    optimal_threshold_search,
    rank_one_inverse_update,
    recurrent_class,
    rvia_solve,
    steady_state_direct,
    sweep_flop_counts,
    threshold_throughput,
)
from relaybuf import chain
from relaybuf.chain import (
    ChainModel,
    FlopCounter,
    RecurrentStructure,
    banded_throughputs,
    brute_force_search,
    invert_elimination,
    partition_system,
    rank_one_search,
    solve_elimination,
    steady_state_folding,
    sweep_steps,
    tie_maximizers,
    trace_csv,
)
from relaybuf.errors import DenominatorNearZero, SingularSystem, ThresholdNotRecurrent

from conftest import sample_config

CFG3 = SystemConfig(rs=1, rr=1, nr=2, ps=0.5, pr=0.5)

# Worked 3-state chain at threshold 1, from enumerating the four channel
# outcomes per state: row-stochastic matrix and its balance solution.
P3_TH1 = np.array([[0.5, 0.5, 0.0],
                   [0.25, 0.25, 0.5],
                   [0.0, 0.5, 0.5]])
PI3_TH1 = np.array([0.2, 0.4, 0.4])


# --- elimination kernel ---

def test_solve_elimination_matches_numpy(rng):
    for n in (1, 2, 5, 12):
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve_elimination(a, b)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)
        inv = invert_elimination(a)
        assert np.abs(inv - np.linalg.inv(a)).max() < 1e-8


def test_solve_elimination_needs_pivoting():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(solve_elimination(a, np.array([2.0, 3.0])), [3.0, 2.0])


def test_solve_elimination_flags_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystem):
        solve_elimination(a, np.array([1.0, 1.0]))


def test_elimination_flop_counts_scale():
    counter = FlopCounter()
    n = 30
    solve_elimination(np.eye(n) + 0.1, np.ones(n), counter)
    # 2n^3/3 leading term with an O(n^2) tail
    assert 0.9 < counter.total / (2 * n**3 / 3) < 1.3


# --- recurrent class ---

def test_recurrent_class_lattice_cases():
    st = recurrent_class(SystemConfig(2, 1, 3, 0.5, 0.5))
    assert (st.R, st.n, st.l) == (1, 3, 0)
    assert st.states == (0, 1, 2, 3)

    st = recurrent_class(SystemConfig(2, 2, 3, 0.5, 0.5))
    assert (st.R, st.n, st.l) == (2, 1, 1)
    assert st.states == (0, 1, 2, 3)
    assert st.size == st.formula_size == 4

    st = recurrent_class(SystemConfig(1, 2, 4, 0.5, 0.5))
    assert st.states == (0, 1, 2, 3, 4)


def test_recurrent_class_sparse_lattice():
    st = recurrent_class(SystemConfig(2, 2, 4, 0.5, 0.5))
    assert st.states == (0, 2, 4)
    assert st.size == (st.l + 1) * (st.n + 1) == 3


def test_recurrent_class_flags_formula_size_mismatch():
    # l = 2: the listed set has 2(n+1) members, the size formula says 6
    st = recurrent_class(SystemConfig(3, 3, 5, 0.5, 0.5))
    assert st.l == 2
    assert st.states == (0, 2, 3, 5) == st.formula_states
    assert st.formula_size == 6
    assert not st.size_matches_formula


def test_chain_strongly_connected_for_every_threshold(rng):
    # the induced chain restricted to C must be one closed communicating class
    for _ in range(5):
        cfg = sample_config(rng, nr_max=30)
        st = recurrent_class(cfg)
        for q_th in st.states:
            p = build_transition_matrix(cfg, q_th, st).P
            reach = np.linalg.matrix_power((p > 0).astype(int), st.size)
            assert (reach > 0).all()


# --- transition matrix and rates ---

def test_worked_transition_matrix():
    model = build_transition_matrix(CFG3, 1)
    assert np.abs(model.P - P3_TH1).max() < 1e-15
    assert np.allclose(model.r, [0.0, 0.25, 0.5])


def test_rows_sum_to_one(rng):
    for _ in range(5):
        cfg = sample_config(rng, nr_max=40)
        st = recurrent_class(cfg)
        for q_th in st.states:
            p = build_transition_matrix(cfg, q_th, st).P
            assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
            assert p.min() >= 0.0


def test_adjacent_thresholds_differ_in_one_row(rng):
    for _ in range(5):
        cfg = sample_config(rng, nr_max=30)
        st = recurrent_class(cfg)
        for k in range(st.size - 1):
            pa = build_transition_matrix(cfg, st.states[k], st).P
            pb = build_transition_matrix(cfg, st.states[k + 1], st).P
            changed = np.flatnonzero(np.abs(pa - pb).max(axis=1) > 0)
            assert changed.tolist() == [k + 1]


def test_threshold_must_be_recurrent():
    with pytest.raises(ThresholdNotRecurrent):
        build_transition_matrix(SystemConfig(2, 2, 4, 0.5, 0.5), 1)


def test_departure_rates_examples():
    cfg = SystemConfig(3, 2, 7, 0.6, 0.4)
    st = recurrent_class(cfg)
    for q_th in st.states:
        r = departure_rates(cfg, q_th, st)
        assert r[0] == 0.0
        if q_th < cfg.nr:
            assert r[-1] == pytest.approx(cfg.pr * cfg.rr)
    assert np.allclose(departure_rates(CFG3, 1), [0.0, 0.25, 0.5])


# --- steady state ---

def test_worked_steady_state():
    pi = steady_state_direct(build_transition_matrix(CFG3, 1)).pi
    assert np.abs(pi - PI3_TH1).max() < 1e-12
    pi0 = steady_state_direct(build_transition_matrix(CFG3, 0)).pi
    assert np.abs(pi0 - np.array([0.4, 0.4, 0.2])).max() < 1e-12


def test_two_state_symmetric_kernel():
    # kernel-level check on a hand-built two-state chain
    st = RecurrentStructure(a=1, b=1, R=1, n=1, l=0, states=(0, 1),
                            formula_states=(0, 1), formula_size=2)
    cfg = SystemConfig(1, 1, 2, 0.5, 0.5)
    model = ChainModel(cfg=cfg, structure=st, q_th=0,
                       P=np.array([[0.5, 0.5], [0.5, 0.5]]), r=np.zeros(2))
    assert np.allclose(steady_state_direct(model).pi, [0.5, 0.5], atol=1e-14)


def test_steady_state_is_stationary(rng):
    for _ in range(5):
        cfg = sample_config(rng, nr_max=50)
        st = recurrent_class(cfg)
        for q_th in st.states:
            model = build_transition_matrix(cfg, q_th, st)
            pi = steady_state_direct(model).pi
            assert pi.min() >= 0.0
            assert abs(pi.sum() - 1.0) < 1e-12
            assert np.abs(pi @ model.P - pi).max() < 1e-10


# --- rank-one update path ---

def test_update_path_matches_direct_inverse_reference_case():
    cfg = SystemConfig(1, 2, 4, 0.5, 0.5)
    st = recurrent_class(cfg)
    for step in sweep_steps(cfg):
        assert not step.rebuilt and not step.degraded, \
            "reference case must exercise genuine updates"
        direct = np.linalg.inv(step.part.ahat)
        assert np.abs(step.part.ahat_inv - direct).max() < 1e-8
        pi_dir = steady_state_direct(step.model).pi
        assert np.abs(step.pi.pi - pi_dir).max() < 1e-8
    assert st.states == (0, 1, 2, 3, 4)


def test_update_top_of_sweep_no_change():
    # last two thresholds share the reduced matrix: the update is the u=0 case
    cfg = SystemConfig(1, 2, 4, 0.5, 0.5)
    parts = [step.part for step in sweep_steps(cfg)]
    assert np.abs(parts[-1].ahat - parts[-2].ahat).max() < 1e-15
    assert np.abs(parts[-1].ahat_inv - parts[-2].ahat_inv).max() < 1e-15


def test_update_requires_successor():
    cfg = SystemConfig(1, 2, 4, 0.5, 0.5)
    last = [step.part for step in sweep_steps(cfg)][-1]
    with pytest.raises(ThresholdNotRecurrent):
        rank_one_inverse_update(last)


def test_update_path_random_configs(rng):
    for _ in range(4):
        cfg = sample_config(rng, nr_max=35)
        for step in sweep_steps(cfg):
            if step.part is None:
                continue
            direct = partition_system(step.part.model)
            assert np.abs(step.part.ahat_inv - direct.ahat_inv).max() < 1e-8
            if step.rebuilt:
                # safety rebuilds rerun the same elimination as the direct path
                assert np.array_equal(step.part.ahat_inv, direct.ahat_inv)


@pytest.mark.parametrize("cfg", [
    SystemConfig(6, 4, 115, 0.10060707698765914, 0.4781383256090595),
    SystemConfig(4, 2, 117, 0.15697612151192808, 0.8438847903346093),
])
def test_first_threshold_failing_its_gate_is_not_refactored(cfg):
    # threshold 0's inverse is always fresh, so when its stationary vector
    # fails the gate, a retry would repeat the identical elimination
    first = next(sweep_steps(cfg))
    assert first.degraded and not first.rebuilt
    res = rank_one_search(cfg)
    assert res.fallbacks <= res.structure.size - 1


def test_folding_solver_matches_elimination():
    pi = steady_state_folding(build_transition_matrix(CFG3, 1))
    assert np.abs(pi.pi - PI3_TH1).max() < 1e-14
    cfg = SystemConfig(3, 2, 17, 0.35, 0.65)
    st = recurrent_class(cfg)
    for q_th in st.states:
        model = build_transition_matrix(cfg, q_th, st)
        a = steady_state_folding(model).pi
        b = steady_state_direct(model).pi
        assert np.abs(a - b).max() < 1e-12


# --- threshold sweep ---

def test_sweep_three_state_tie_resolution():
    res = optimal_threshold_search(CFG3)
    assert res.q_opt == 1  # ties keep the later threshold
    assert res.throughput == pytest.approx(0.3, abs=1e-12)
    assert [q for q, _ in res.trace] == [0, 1, 2]
    assert res.trace[0][1] == pytest.approx(res.trace[1][1], abs=1e-12)


def test_sweep_agrees_with_brute_and_rvia(rng):
    for _ in range(5):
        cfg = sample_config(rng, nr_max=40)
        fast = optimal_threshold_search(cfg)
        brute = brute_force_search(cfg)
        paper = rank_one_search(cfg)
        assert fast.q_opt == brute.q_opt
        for (qa, va), (qb, vb), (qc, vc) in zip(fast.trace, brute.trace, paper.trace):
            assert qa == qb == qc and va == pytest.approx(vb, abs=1e-9)
            assert vc == pytest.approx(vb, abs=1e-9)
        vf = rvia_solve(cfg)
        assert fast.throughput == pytest.approx(vf.theta, abs=1e-8)


# --- banded GTH kernel where the rank-one sweep degrades ---

# |C| of 151-402: strongly drifted links (p within 0.08 of 0 or 1) and
# gcd > 1 lattices with l = 2 and 4, where the rank-one sweep rebuilds most
# thresholds and folds many.  Chains up to FULL_CHECK_SIZE are checked on
# every threshold; larger ones on a seeded sample, since one dense folding
# solve costs O(|C|^3).
CORNERS = [(4, 2, 300), (3, 3, 227), (2, 1, 150), (6, 6, 904), (5, 3, 401)]
FULL_CHECK_SIZE = 160


@pytest.mark.parametrize("rs,rr,nr", CORNERS)
def test_kernel_matches_folding_in_drifted_corners(rs, rr, nr):
    rng = np.random.default_rng([rs, rr, nr])
    ps, pr = (float(p if rng.random() < 0.5 else 1.0 - p) for p in rng.uniform(0.03, 0.08, 2))
    cfg = SystemConfig(rs, rr, nr, ps, pr)
    sweep = optimal_threshold_search(cfg)
    st = sweep.structure
    assert 150 <= st.size <= 402
    assert sweep.fallbacks == sweep.degraded == 0
    assert [q for q, _ in sweep.trace] == list(st.states)
    assert np.isfinite([theta for _, theta in sweep.trace]).all()
    ks = range(st.size)
    if st.size > FULL_CHECK_SIZE:
        ks = sorted({0, st.size - 1, *rng.choice(st.size, 6, replace=False).tolist()})
    for k in ks:
        q, theta = sweep.trace[k]
        model = build_transition_matrix(cfg, q, st)
        folded = steady_state_folding(model).throughput(model)
        assert abs(theta - folded) <= 1e-12 * (1.0 + folded), (cfg, q)
        assert threshold_throughput(cfg, q, st) == theta


def test_folding_survives_upward_drift():
    # the top state's stationary mass is about 10^429 times state 0's
    cfg = SystemConfig(1, 1, 300, 0.9, 0.1)
    model = build_transition_matrix(cfg, 150)
    pi = steady_state_folding(model).pi
    assert np.isfinite(pi).all() and abs(pi.sum() - 1.0) < 1e-12
    assert np.abs(pi @ model.P - pi).max() < 1e-12
    assert threshold_throughput(cfg, 150) == pytest.approx(pi @ model.r, rel=1e-12)


def test_kernel_batches_do_not_change_results(monkeypatch):
    cfg = SystemConfig(3, 2, 60, 0.3, 0.8)
    st = recurrent_class(cfg)
    whole = banded_throughputs(cfg, range(st.size), st)
    monkeypatch.setattr(chain, "BATCH_ELEMENTS", 1)   # one threshold per batch
    assert np.array_equal(banded_throughputs(cfg, range(st.size), st), whole)


def test_kernel_flops_grow_with_square_of_class():
    counts = []
    for nr in (100, 200):
        counter = FlopCounter()
        res = optimal_threshold_search(SystemConfig(4, 2, nr, 0.5, 0.5), counter)
        counts.append(counter.total)
        assert res.fallbacks == res.degraded == 0
    # fixed band width: doubling |C| quadruples the sweep's flops
    assert 3.6 <= counts[1] / counts[0] <= 4.4


def test_tie_maximizers_tolerance():
    trace = ((0, 0.3), (1, 0.3 - 1e-13), (2, 0.3 - 1e-9), (3, 0.2))
    assert tie_maximizers(trace) == [0, 1]
    assert tie_maximizers(trace, tol=1e-8) == [0, 1, 2]
    assert tie_maximizers(trace, tol=0.0) == [0]


def test_map_threshold_set():
    gap = recurrent_class(SystemConfig(2, 2, 4, 0.5, 0.5))  # C = {0, 2, 4}
    assert map_threshold_set(2, gap) == (2, 3)
    assert map_threshold_set(4, gap) == (4,)
    dense = recurrent_class(SystemConfig(1, 2, 4, 0.5, 0.5))
    assert map_threshold_set(3, dense) == (3,)
    with pytest.raises(ThresholdNotRecurrent):
        map_threshold_set(1, gap)


def test_threshold_throughput_anchors_to_recurrent_state():
    cfg = SystemConfig(2, 2, 4, 0.5, 0.5)
    assert threshold_throughput(cfg, 3) == pytest.approx(threshold_throughput(cfg, 2), abs=1e-14)
    assert threshold_throughput(cfg, 1) == pytest.approx(threshold_throughput(cfg, 0), abs=1e-14)


def test_flop_counters_smallest_class():
    # nr > max(rs, rr) forces |C| >= 3, so this is the smallest sweep
    direct, updated = sweep_flop_counts(CFG3)
    assert direct > 0 and updated > 0


def test_flop_ratio_grows_with_class_size():
    # fresh eliminations cost a power of |C| more than carried updates
    ratios = []
    for nr in (20, 40, 80):
        direct, updated = sweep_flop_counts(SystemConfig(4, 2, nr, 0.5, 0.5))
        ratios.append(direct / updated)
    assert ratios[0] < ratios[1] < ratios[2]


def test_update_denominator_guard():
    cfg = SystemConfig(1, 2, 4, 0.5, 0.5)
    part = partition_system(build_transition_matrix(cfg, 0))
    next_a = np.eye(5) - build_transition_matrix(cfg, 1).P.T
    u = next_a[:4, 1] - part.A[:4, 2]  # entering minus leaving column
    assert abs(u[0]) > 1e-12
    # doctored inverse with identical rows makes the divisor exactly zero
    part.ahat_inv = np.zeros((4, 4))
    part.ahat_inv[:, 0] = -1.0 / float(u[0])
    with pytest.raises(DenominatorNearZero):
        rank_one_inverse_update(part)


def test_trace_csv_shape():
    res = optimal_threshold_search(CFG3)
    lines = trace_csv(res).strip().splitlines()
    assert lines[0] == "q_th,throughput"
    assert len(lines) == 1 + res.structure.size


def test_partition_system_matches_inverse():
    model = build_transition_matrix(SystemConfig(2, 1, 6, 0.3, 0.7), 2)
    part = partition_system(model)
    assert np.abs(part.ahat_inv @ part.ahat - np.eye(part.ahat.shape[0])).max() < 1e-10
