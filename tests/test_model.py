import pytest

from relaybuf import (
    ChannelState,
    ControlAction,
    CsiOnlyPolicy,
    SystemConfig,
    TabularPolicy,
    ThresholdPolicy,
    optimal_rates,
    select_action,
    step_queue,
    validate_config,
)
from relaybuf.errors import (
    BufferTooSmall,
    InfeasibleAction,
    MissingRandomness,
    ProbabilityOutOfRange,
    QueueOutOfRange,
)
from relaybuf.model import config_from_mapping, format_config, parse_config_text

from conftest import sample_config


def test_validate_accepts_reference_config():
    cfg = SystemConfig(rs=1, rr=2, nr=4, ps=0.5, pr=0.5)
    assert validate_config(cfg) is cfg


def test_validate_rejects_small_buffer():
    with pytest.raises(BufferTooSmall):
        validate_config(SystemConfig(rs=2, rr=2, nr=2, ps=0.5, pr=0.5))


@pytest.mark.parametrize("ps,pr", [(1.2, 0.5), (-0.1, 0.5), (0.5, 7.0)])
def test_validate_rejects_bad_probability(ps, pr):
    with pytest.raises(ProbabilityOutOfRange):
        validate_config(SystemConfig(rs=1, rr=1, nr=4, ps=ps, pr=pr))


@pytest.mark.parametrize("nr", [4.5, 4.0, "4"])
def test_validate_rejects_non_integer_buffer(nr):
    with pytest.raises(BufferTooSmall, match="integer"):
        validate_config(SystemConfig(rs=1, rr=1, nr=nr, ps=0.5, pr=0.5))


@pytest.mark.parametrize("sigma", [-0.1, 1.5, float("nan")])
def test_csi_only_rejects_sigma_outside_unit_interval(sigma):
    with pytest.raises(ProbabilityOutOfRange):
        CsiOnlyPolicy(sigma)
    assert CsiOnlyPolicy(0.0).sigma == 0.0 and CsiOnlyPolicy(1.0).sigma == 1.0


def test_optimal_rates_examples():
    assert optimal_rates(0, SystemConfig(2, 1, 3, 0.5, 0.5)) == (2, 0)
    cfg = SystemConfig(1, 2, 4, 0.5, 0.5)
    assert optimal_rates(cfg.nr, cfg) == (0, min(cfg.rr, cfg.nr))
    assert optimal_rates(3, cfg) == (1, 2)


def test_optimal_rates_rejects_bad_queue():
    cfg = SystemConfig(1, 2, 4, 0.5, 0.5)
    for q in (-1, 5):
        with pytest.raises(QueueOutOfRange):
            optimal_rates(q, cfg)


def test_optimal_rates_monotone(rng):
    for _ in range(20):
        cfg = sample_config(rng, nr_max=40)
        rates = [optimal_rates(q, cfg) for q in cfg.states]
        us = [r[0] for r in rates]
        ur = [r[1] for r in rates]
        assert all(a >= b for a, b in zip(us, us[1:]))
        assert all(a <= b for a, b in zip(ur, ur[1:]))


def test_forced_selection_when_one_link_off():
    cfg = SystemConfig(2, 3, 8, 0.5, 0.5)
    act = select_action(5, ChannelState(0, 1), ThresholdPolicy(7), cfg)
    assert (act.a_s, act.a_r) == (0, 1) and act.u_r == min(cfg.rr, 5)
    act = select_action(5, ChannelState(1, 0), CsiOnlyPolicy(), cfg)
    assert (act.a_s, act.a_r) == (1, 0) and act.u_s == min(cfg.rs, cfg.nr - 5)
    act = select_action(5, ChannelState(0, 0), ThresholdPolicy(0), cfg)
    assert act == ControlAction(0, 0, 0, 0)


def test_threshold_strict_inequality():
    cfg = SystemConfig(1, 1, 6, 0.5, 0.5)
    both = ChannelState(1, 1)
    assert select_action(4, both, ThresholdPolicy(3), cfg).a_r == 1
    assert select_action(3, both, ThresholdPolicy(3), cfg).a_r == 0


def test_csi_only_needs_draw():
    cfg = SystemConfig(1, 1, 4, 0.5, 0.5)
    with pytest.raises(MissingRandomness):
        select_action(2, ChannelState(1, 1), CsiOnlyPolicy(0.5), cfg)
    assert select_action(2, ChannelState(1, 1), CsiOnlyPolicy(0.5), cfg, draw=0.2).a_r == 1
    assert select_action(2, ChannelState(1, 1), CsiOnlyPolicy(0.5), cfg, draw=0.9).a_r == 0
    # forced branches never ask for randomness
    select_action(2, ChannelState(0, 1), CsiOnlyPolicy(0.5), cfg)


def test_select_action_never_schedules_both(rng):
    policies = [ThresholdPolicy(2), TabularPolicy((0, 1, 0, 1, 1)), CsiOnlyPolicy(0.3)]
    cfg = SystemConfig(2, 2, 4, 0.5, 0.5)
    for policy in policies:
        for q in cfg.states:
            for gs in (0, 1):
                for gr in (0, 1):
                    act = select_action(q, ChannelState(gs, gr), policy, cfg, draw=0.5)
                    assert act.a_s + act.a_r <= 1
                    assert act.a_s <= gs and act.a_r <= gr


def test_step_queue_examples():
    cfg = SystemConfig(2, 2, 5, 0.5, 0.5)
    assert step_queue(2, ControlAction(1, 0, 1, 0), cfg) == (3, 0)
    assert step_queue(2, ControlAction(0, 1, 0, 2), cfg) == (0, 2)
    assert step_queue(5, ControlAction(1, 0, 0, 0), cfg) == (5, 0)


def test_step_queue_rejects_infeasible():
    cfg = SystemConfig(2, 2, 5, 0.5, 0.5)
    with pytest.raises(InfeasibleAction):
        step_queue(4, ControlAction(1, 0, 2, 0), cfg)  # only one free slot
    with pytest.raises(InfeasibleAction):
        step_queue(1, ControlAction(0, 1, 0, 2), cfg)  # only one packet held
    with pytest.raises(InfeasibleAction):
        step_queue(2, ControlAction(1, 1, 1, 1), cfg)  # half-duplex violation
    with pytest.raises(QueueOutOfRange):
        step_queue(9, ControlAction(0, 0, 0, 0), cfg)


def test_queue_stays_in_range_under_any_policy(rng):
    for _ in range(10):
        cfg = sample_config(rng, nr_max=25)
        policy = ThresholdPolicy(int(rng.integers(0, cfg.nr + 1)))
        for q in cfg.states:
            for gs in (0, 1):
                for gr in (0, 1):
                    act = select_action(q, ChannelState(gs, gr), policy, cfg)
                    q2, reward = step_queue(q, act, cfg)
                    assert 0 <= q2 <= cfg.nr
                    assert reward == act.a_r * act.u_r


def test_config_text_round_trip():
    cfg = SystemConfig(rs=3, rr=2, nr=17, ps=0.25, pr=0.75)
    parsed = config_from_mapping(parse_config_text(format_config(cfg)))
    assert parsed == cfg


def test_config_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_config_text("rs=1\nnot a pair\n")
    with pytest.raises(ValueError):
        parse_config_text("bogus=3\n")
    with pytest.raises(ValueError):
        config_from_mapping({"rs": 1, "rr": 1})  # missing keys


def test_config_text_skips_comments_and_blanks():
    text = "# comment\n\nrs=1\nrr=2\nnr=4\nps=0.5\npr=0.5\n"
    assert config_from_mapping(parse_config_text(text)) == SystemConfig(1, 2, 4, 0.5, 0.5)
