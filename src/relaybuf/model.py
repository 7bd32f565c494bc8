"""System model: parameters, feasible actions, and the one-slot queue update.

The system is a two-hop half-duplex relay: a saturated source feeds a relay
with a finite buffer of ``nr`` packets over an on/off link (on w.p. ``ps``),
and the relay drains to the destination over an independent on/off link
(on w.p. ``pr``).  At most one link transmits per slot.  Everything else in
the package is built on the primitives defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Union

from .errors import (
    BufferTooSmall,
    InfeasibleAction,
    MissingRandomness,
    ProbabilityOutOfRange,
    QueueOutOfRange,
)

CONFIG_KEYS = ("rs", "rr", "nr", "ps", "pr")


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    rs, rr: maximum per-slot packet rates of the source and relay links.
    nr:     relay buffer size in packets; must exceed max(rs, rr).
    ps, pr: probabilities that the source / relay link is connected.
    """

    rs: int
    rr: int
    nr: int
    ps: float
    pr: float

    @property
    def ps_bar(self) -> float:
        return 1.0 - self.ps

    @property
    def pr_bar(self) -> float:
        return 1.0 - self.pr

    @property
    def states(self) -> range:
        """Queue state space {0..nr}."""
        return range(self.nr + 1)


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check the SystemConfig invariants and return the config unchanged.

    Raises BufferTooSmall when a rate is not a positive integer, nr is not an
    integer or nr <= max(rs, rr), and ProbabilityOutOfRange when either link
    probability leaves [0, 1].
    """
    if cfg.rs < 1 or cfg.rr < 1 or int(cfg.rs) != cfg.rs or int(cfg.rr) != cfg.rr:
        raise BufferTooSmall(f"rates must be positive integers, got rs={cfg.rs} rr={cfg.rr}")
    if not isinstance(cfg.nr, Integral):
        raise BufferTooSmall(f"nr must be an integer, got nr={cfg.nr!r}")
    if cfg.nr <= max(cfg.rs, cfg.rr):
        raise BufferTooSmall(f"need nr > max(rs, rr), got nr={cfg.nr}")
    for name, p in (("ps", cfg.ps), ("pr", cfg.pr)):
        if not 0.0 <= p <= 1.0:
            raise ProbabilityOutOfRange(f"{name}={p} outside [0, 1]")
    return cfg


@dataclass(frozen=True)
class ChannelState:
    """Joint connectivity of the two links in one slot (each 0 or 1)."""

    gs: int
    gr: int

    def __post_init__(self):
        if self.gs not in (0, 1) or self.gr not in (0, 1):
            raise ValueError(f"channel components must be 0/1, got ({self.gs}, {self.gr})")


@dataclass(frozen=True)
class ControlAction:
    """Link selection (a_s, a_r) and transmission rates (u_s, u_r) for a slot."""

    a_s: int
    a_r: int
    u_s: int
    u_r: int


@dataclass(frozen=True)
class ThresholdPolicy:
    """Schedule the relay link at G=(1,1) iff Q > q_th (strict)."""

    q_th: int


@dataclass(frozen=True)
class TabularPolicy:
    """Arbitrary per-state relay choice at G=(1,1); relay_choice[q] is a_r."""

    relay_choice: tuple


@dataclass(frozen=True)
class CsiOnlyPolicy:
    """Queue-blind baseline: at G=(1,1) pick the relay link w.p. sigma."""

    sigma: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.sigma <= 1.0:
            raise ProbabilityOutOfRange(f"sigma={self.sigma} outside [0, 1]")


PolicySpec = Union[ThresholdPolicy, TabularPolicy, CsiOnlyPolicy]


def optimal_rates(q: int, cfg: SystemConfig):
    """Greedy rate rule: (min(rs, nr - q), min(rr, q)).

    This is the throughput-optimal rate choice; the source fills the free
    buffer space and the relay drains as much as it holds, capped by the
    link rates.
    """
    if q < 0 or q > cfg.nr:
        raise QueueOutOfRange(f"q={q} outside 0..{cfg.nr}")
    return min(cfg.rs, cfg.nr - q), min(cfg.rr, q)


def relay_scheduled(q: int, policy: PolicySpec, draw: Optional[float] = None) -> int:
    """Resolve the a_r decision at G=(1,1) for the given policy."""
    if isinstance(policy, ThresholdPolicy):
        return 1 if q > policy.q_th else 0
    if isinstance(policy, TabularPolicy):
        return int(policy.relay_choice[q])
    if isinstance(policy, CsiOnlyPolicy):
        if draw is None:
            raise MissingRandomness("CsiOnly policy needs a uniform draw at G=(1,1)")
        return 1 if draw < policy.sigma else 0
    raise TypeError(f"unknown policy {policy!r}")


def select_action(q, channel, policy, cfg, draw=None) -> ControlAction:
    """Map (Q, G) to the slot's action under `policy` with greedy rates.

    When at least one link is off the selection is forced: transmit on the
    single connected link, idle when both are off.  Only at G=(1,1) does the
    policy choose between the two links.
    """
    us, ur = optimal_rates(q, cfg)
    gs, gr = channel.gs, channel.gr
    if gs == 0 and gr == 0:
        return ControlAction(0, 0, 0, 0)
    if gs == 1 and gr == 0:
        return ControlAction(1, 0, us, 0)
    if gs == 0 and gr == 1:
        return ControlAction(0, 1, 0, ur)
    a_r = relay_scheduled(q, policy, draw)
    if a_r:
        return ControlAction(0, 1, 0, ur)
    return ControlAction(1, 0, us, 0)


def step_queue(q, action, cfg):
    """One-slot queue update; returns (next queue, delivered packets).

    The reward is the number of packets the relay pushes to the destination
    this slot, a_r * u_r.
    """
    if q < 0 or q > cfg.nr:
        raise QueueOutOfRange(f"q={q} outside 0..{cfg.nr}")
    if action.a_s not in (0, 1) or action.a_r not in (0, 1) or action.a_s + action.a_r > 1:
        raise InfeasibleAction(f"bad link selection ({action.a_s}, {action.a_r})")
    us_max, ur_max = optimal_rates(q, cfg)
    if not 0 <= action.u_s <= us_max:
        raise InfeasibleAction(f"u_s={action.u_s} exceeds min(rs, nr-q)={us_max}")
    if not 0 <= action.u_r <= ur_max:
        raise InfeasibleAction(f"u_r={action.u_r} exceeds min(rr, q)={ur_max}")
    q_next = q + action.a_s * action.u_s - action.a_r * action.u_r
    return q_next, action.a_r * action.u_r


# --- flat key=value config file format (CLI interface) ---

def format_config(cfg: SystemConfig) -> str:
    lines = [f"rs={cfg.rs}", f"rr={cfg.rr}", f"nr={cfg.nr}",
             f"ps={cfg.ps:.12g}", f"pr={cfg.pr:.12g}"]
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> dict:
    """Parse `key=value` lines; unknown keys rejected, blanks and # comments skipped."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key not in CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        out[key] = val.strip()
    return out


def config_from_mapping(values: dict) -> SystemConfig:
    missing = [k for k in CONFIG_KEYS if k not in values]
    if missing:
        raise ValueError(f"missing config keys: {', '.join(missing)}")
    cfg = SystemConfig(
        rs=int(values["rs"]),
        rr=int(values["rr"]),
        nr=int(values["nr"]),
        ps=float(values["ps"]),
        pr=float(values["pr"]),
    )
    return validate_config(cfg)
