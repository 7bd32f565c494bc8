import numpy as np
import pytest

from relaybuf import (
    SymmetricConfig,
    SystemConfig,
    build_transition_matrix,
    optimal_threshold_search,
    steady_state_direct,
    symmetric_config_of,
    symmetric_objective,
    symmetric_optimal_threshold,
    symmetric_steady_state,
    symmetric_throughput,
)
from relaybuf.errors import BufferTooSmall, DegenerateP, ThresholdNotRecurrent

SC2 = SymmetricConfig(rate=1, n=2, p=0.5)


def test_steady_state_worked_cases():
    assert np.allclose(symmetric_steady_state(SC2, 1).pi, [0.2, 0.4, 0.4], atol=1e-15)
    assert np.allclose(symmetric_steady_state(SC2, 0).pi, [0.4, 0.4, 0.2], atol=1e-15)


def test_steady_state_normalized(rng):
    for _ in range(20):
        sc = SymmetricConfig(rate=int(rng.integers(1, 5)), n=int(rng.integers(2, 31)),
                             p=float(rng.uniform(0.1, 0.9)))
        m = int(rng.integers(0, sc.n + 1))
        pi = symmetric_steady_state(sc, m).pi
        assert abs(pi.sum() - 1.0) < 1e-12
        assert pi.min() > 0.0


def test_objective_worked_values_and_identity(rng):
    assert symmetric_objective(SC2, 1) == pytest.approx(0.6, abs=1e-15)
    assert symmetric_objective(SC2, 0) == pytest.approx(0.6, abs=1e-15)
    for _ in range(20):
        sc = SymmetricConfig(rate=int(rng.integers(1, 5)), n=int(rng.integers(2, 25)),
                             p=float(rng.uniform(0.1, 0.9)))
        m = int(rng.integers(0, sc.n + 1))
        pi = symmetric_steady_state(sc, m).pi
        assert symmetric_objective(sc, m) == pytest.approx(pi[0] + pi[-1], abs=1e-12)


def test_throughput_worked_value_and_limit():
    assert symmetric_throughput(SC2, 1) == pytest.approx(0.3, abs=1e-15)
    near_one = SymmetricConfig(rate=2, n=4, p=1 - 1e-9)
    assert symmetric_throughput(near_one, 2) == pytest.approx(1.0, abs=1e-6)


def test_throughput_matches_chain(rng):
    for _ in range(10):
        sc = SymmetricConfig(rate=int(rng.integers(1, 5)), n=int(rng.integers(2, 16)),
                             p=float(rng.uniform(0.1, 0.9)))
        cfg = sc.to_config()
        for m in range(sc.n + 1):
            model = build_transition_matrix(cfg, m * sc.rate)
            chain_tp = steady_state_direct(model).throughput(model)
            assert symmetric_throughput(sc, m) == pytest.approx(chain_tp, abs=1e-10)
            chain_pi = steady_state_direct(model).pi
            assert np.abs(symmetric_steady_state(sc, m).pi - chain_pi).max() < 1e-10


# Past these buffers the powers p_bar**(n+1) and p_bar**(2m+2) underflow:
# the unscaled closed form divided 0 by 0 at (1100, .5) and (400, .9), and
# was off by up to 0.018 at (1075, .5) and 8.9e-4 at (320, .9).
@pytest.mark.parametrize("n, p", [(1075, 0.5), (1100, 0.5), (320, 0.9), (400, 0.9)])
def test_closed_form_matches_sweep_where_powers_underflow(n, p):
    sc = SymmetricConfig(rate=1, n=n, p=p)
    trace = np.array([val for _, val in optimal_threshold_search(sc.to_config()).trace])
    closed = np.array([symmetric_throughput(sc, m) for m in range(n + 1)])
    assert np.abs(closed - trace).max() <= 1e-12 * trace.min()
    pi = symmetric_steady_state(sc, n // 2).pi
    assert abs(pi.sum() - 1.0) < 1e-12


def test_optimal_threshold_sets():
    assert symmetric_optimal_threshold(SymmetricConfig(rate=2, n=5, p=0.5)) == (4, 5)
    even = symmetric_optimal_threshold(SymmetricConfig(rate=1, n=14, p=0.5))
    assert even == (6, 7) and 7 in even
    assert symmetric_optimal_threshold(SC2) == (0, 1)


def test_optimal_set_matches_sweep_ties():
    res = optimal_threshold_search(SC2.to_config())
    best = res.throughput
    tied = [q for q, val in res.trace if abs(val - best) < 1e-12]
    assert tuple(tied) == symmetric_optimal_threshold(SC2)


def test_every_member_achieves_exhaustive_minimum(rng):
    for _ in range(15):
        sc = SymmetricConfig(rate=int(rng.integers(1, 5)), n=int(rng.integers(2, 31)),
                             p=float(rng.uniform(0.1, 0.9)))
        objective = [symmetric_objective(sc, m) for m in range(sc.n + 1)]
        best = min(objective)
        for q in symmetric_optimal_threshold(sc):
            m = q // sc.rate
            assert objective[m] <= best + 1e-12 * (1 + abs(best))


def test_odd_midpoint_is_argmin():
    for n in range(3, 51, 2):
        sc = SymmetricConfig(rate=1, n=n, p=0.35)
        objective = [symmetric_objective(sc, m) for m in range(n + 1)]
        assert objective[(n - 1) // 2] <= min(objective) + 1e-13


def test_rejects_degenerate_and_tiny():
    with pytest.raises(DegenerateP):
        SymmetricConfig(rate=1, n=4, p=0.0)
    with pytest.raises(DegenerateP):
        SymmetricConfig(rate=1, n=4, p=1.0)
    with pytest.raises(BufferTooSmall):
        SymmetricConfig(rate=2, n=1, p=0.5)
    with pytest.raises(ThresholdNotRecurrent):
        symmetric_steady_state(SC2, 3)


def test_symmetric_config_detection():
    assert symmetric_config_of(SystemConfig(2, 2, 8, 0.4, 0.4)) == SymmetricConfig(2, 4, 0.4)
    assert symmetric_config_of(SystemConfig(2, 1, 8, 0.4, 0.4)) is None
    assert symmetric_config_of(SystemConfig(2, 2, 7, 0.4, 0.4)) is None
    assert symmetric_config_of(SystemConfig(2, 2, 8, 0.4, 0.5)) is None
