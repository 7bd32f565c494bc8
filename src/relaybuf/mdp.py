"""Average-reward solvers for the relay queue and structure certificates.

Two solvers compute the optimal long-run throughput theta and a relative
value vector V over queue states.  Both end in one Howard walk
(``_howard_walk``): evaluate a rule exactly with one pinned
(nr + 2)-dimensional solve, replace it by its greedy rule, and stop when
the greedy rule is one already evaluated.

* ``rvia_solve`` -- relative value iteration with span-seminorm stopping.
  At convergence, and every POLISH_PERIOD sweeps before it, the greedy rule
  starts a short walk whose pairs are accepted only with a residual and
  structure certificate, so near-tie systems where plain iteration
  oscillates forever still finish with a solution tighter than the span
  rule asks for.
* ``policy_iteration_solve`` -- plain Howard policy iteration: one walk
  from the greedy rule of V = 0, ending at a fixed point or on a return to
  a rule of the same gain (a tie plateau).

The certificates (monotonicity, bounded increments, K-concavity with
K = rs + rr, and the monotone action-advantage that makes the optimal rule
a threshold) are checked numerically on the solved value vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DegenerateP, NoConvergence, NotThreshold, QueueOutOfRange, SingularEvaluation
from .model import SystemConfig, TabularPolicy

# Slack for argmax ties: below this advantage the source link is kept.
TIE_TOL = 1e-9

# Slack used by all structure certificates.
PROPERTY_SLACK = 1e-9


@dataclass(frozen=True)
class SolverSettings:
    """Solver settings.

    tol:       span tolerance on successive value iterates (RVIA only).
    max_iter:  cap on value-iteration sweeps (RVIA only).
    q0:        reference state pinned to V(q0) = 0 (both solvers).
    """

    tol: float = 1e-10
    max_iter: int = 10**6
    q0: int = 0


@dataclass
class ValueFunction:
    """Solved (theta, V) pair; v[reference_state] == 0 by normalization."""

    v: np.ndarray
    theta: float
    reference_state: int = 0


@dataclass(frozen=True)
class StructureReport:
    monotone: bool
    increments_le_one: bool
    k_concave: bool
    supermodular: bool
    first_violation: Optional[Tuple[str, int]] = None

    @property
    def all_hold(self) -> bool:
        return self.monotone and self.increments_le_one and self.k_concave and self.supermodular


def _require_interior(cfg: SystemConfig):
    if not (0.0 < cfg.ps < 1.0 and 0.0 < cfg.pr < 1.0):
        raise DegenerateP(f"analytic solver needs 0 < p < 1, got ps={cfg.ps} pr={cfg.pr}")


def _indices(cfg: SystemConfig):
    q = np.arange(cfg.nr + 1)
    up = np.minimum(q + cfg.rs, cfg.nr)          # queue after a full source burst
    down = np.maximum(q - cfg.rr, 0)             # queue after a full relay burst
    rew = np.minimum(q, cfg.rr).astype(float)    # packets the relay can deliver
    return up, down, rew


def action_values(values: np.ndarray, cfg: SystemConfig):
    """Expected one-slot reward-plus-continuation for a_r = 0 and a_r = 1.

    Returns (J0, J1) over all queue states.  The three forced channel
    outcomes contribute identically to both; the a_r choice only matters in
    the both-links-on event (probability ps*pr).
    """
    up, down, rew = _indices(cfg)
    qs, qr = cfg.ps_bar, cfg.pr_bar
    base = qs * qr * values + cfg.ps * qr * values[up] + qs * cfg.pr * (rew + values[down])
    j0 = base + cfg.ps * cfg.pr * values[up]
    j1 = base + cfg.ps * cfg.pr * (rew + values[down])
    return j0, j1


def state_action_reward(v: ValueFunction, q: int, a_r: int, cfg: SystemConfig) -> float:
    """J(q, a_r) evaluated from a value vector; scalar convenience wrapper."""
    if q < 0 or q > cfg.nr:
        raise QueueOutOfRange(f"q={q} outside 0..{cfg.nr}")
    j0, j1 = action_values(np.asarray(v.v, dtype=float), cfg)
    return float(j1[q] if a_r else j0[q])


def delta_j(v: ValueFunction, cfg: SystemConfig) -> np.ndarray:
    """Action advantage J(q,1) - J(q,0) for every queue state."""
    j0, j1 = action_values(np.asarray(v.v, dtype=float), cfg)
    return j1 - j0


def greedy_policy(values: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Argmax rule for a_r; ties (advantage <= TIE_TOL) keep the source link."""
    j0, j1 = action_values(values, cfg)
    return (j1 > j0 + TIE_TOL).astype(np.int8)


def _policy_dynamics(policy: np.ndarray, cfg: SystemConfig):
    """Induced transition matrix and expected reward of a fixed a_r rule."""
    n = cfg.nr + 1
    up, down, rew = _indices(cfg)
    qs, qr = cfg.ps_bar, cfg.pr_bar
    p = np.zeros((n, n))
    rows = np.arange(n)
    np.add.at(p, (rows, rows), qs * qr)
    np.add.at(p, (rows, up), cfg.ps * qr)
    np.add.at(p, (rows, down), qs * cfg.pr)
    both_to = np.where(policy == 1, down, up)
    np.add.at(p, (rows, both_to), cfg.ps * cfg.pr)
    r = qs * cfg.pr * rew + cfg.ps * cfg.pr * policy * rew
    return p, r


def evaluate_policy_direct(policy: np.ndarray, cfg: SystemConfig, q0: int = 0):
    """Exact average-reward evaluation of a fixed rule with V(q0) pinned to 0.

    Solves the (nr + 2)-dimensional linear system for (V, theta) directly and
    applies one step of iterative refinement so the evaluation residual sits
    near machine precision even for ill-conditioned slow-mixing chains.
    """
    n = cfg.nr + 1
    p, r = _policy_dynamics(policy, cfg)
    m = np.zeros((n + 1, n + 1))
    m[:n, :n] = np.eye(n) - p
    m[:n, n] = 1.0
    m[n, q0] = 1.0
    rhs = np.concatenate([r, [0.0]])
    try:
        sol = np.linalg.solve(m, rhs)
        sol += np.linalg.solve(m, rhs - m @ sol)  # one refinement pass
    except np.linalg.LinAlgError as exc:
        raise SingularEvaluation(f"evaluation system singular: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularEvaluation("evaluation produced non-finite values")
    return float(sol[n]), sol[:n]


def bellman_residual(v: ValueFunction, cfg: SystemConfig) -> float:
    """max_q |theta + V(q) - max_a J(q, a)| for a candidate solution."""
    j0, j1 = action_values(np.asarray(v.v, dtype=float), cfg)
    return float(np.abs(v.theta + v.v - np.maximum(j0, j1)).max())


def _howard_walk(policy: np.ndarray, cfg: SystemConfig, q0: int, rounds: int):
    """Howard's evaluate-and-improve walk (Puterman, 1994, section 8.6).

    Evaluates the rule exactly (V(q0) pinned to 0) and replaces it by the
    greedy rule of its value vector, until the greedy rule is one already
    evaluated: the last one at a fixed point, an earlier one on a cycle.
    Returns the evaluated rules in walk order, each keyed by its bytes and
    mapped to (rule, ValueFunction), and the rule the walk came back to.
    Raises NoConvergence after ``rounds`` evaluations.
    """
    walked = {}
    for _ in range(rounds):
        theta, v = evaluate_policy_direct(policy, cfg, q0)
        walked[policy.tobytes()] = (policy, ValueFunction(v=v, theta=theta, reference_state=q0))
        policy = greedy_policy(v, cfg)
        if policy.tobytes() in walked:
            return walked, policy
    raise NoConvergence(f"Howard walk did not close in {rounds} evaluations")


# Cadence of mid-iteration certification attempts, and the Howard-step
# budget each attempt may spend resolving near-tie states the oscillating
# iterate cannot settle.
POLISH_PERIOD = 5000
POLISH_HOWARD_ROUNDS = 8


def _certified_solution(policy: np.ndarray, cfg: SystemConfig,
                        s: SolverSettings) -> Optional[ValueFunction]:
    """Exact evaluation of a candidate rule, accepted only with a certificate.

    The rule starts a Howard walk of at most POLISH_HOWARD_ROUNDS
    evaluations.  The first walked pair whose optimality-equation residual
    sits at solver precision and whose value vector carries the structural
    certificates of the canonical solution is returned.  Closing the walk on
    a revisit resolves near-tie states that plain value iteration flips
    every sweep: a state whose relay advantage is positive but below
    TIE_TOL makes an exact solution's greedy rule differ from the solution,
    and the walk cycles between the two resolutions.  The structure gate
    matters on lattices with transient states: those states' actions are
    not pinned by optimality alone, and self-consistent solutions built on
    the wrong resolution satisfy the residual check while bending the value
    shape.
    """
    try:
        walked, _ = _howard_walk(policy, cfg, s.q0, POLISH_HOWARD_ROUNDS)
    except (NoConvergence, SingularEvaluation):
        return None
    limit = min(s.tol, 1e-10)
    for _, candidate in walked.values():
        if (bellman_residual(candidate, cfg) <= limit * (1 + abs(candidate.theta))
                and check_value_properties(candidate, cfg).all_hold):
            return candidate
    return None


def rvia_solve(cfg: SystemConfig, settings: Optional[SolverSettings] = None) -> ValueFunction:
    """Relative value iteration from V = 0.

    Iterates V <- max_a J(., a) - max_a J(q0, a) until the span of the
    successive difference drops below tol; theta is the subtracted reference
    value at convergence, after which the greedy rule is handed to the
    certification path and the certified pair returned (the raw iterate is
    the fallback and itself meets the residual contract).

    Undamped value iteration can oscillate forever at near-tie states, so
    every POLISH_PERIOD sweeps the current greedy rule is offered to the
    certification path as well; a certified exact solution ends the solve
    early with a strictly tighter residual than the span rule asks for.
    """
    _require_interior(cfg)
    s = settings or SolverSettings()
    if not 0 <= s.q0 <= cfg.nr:
        raise QueueOutOfRange(f"reference state {s.q0} outside 0..{cfg.nr}")
    v = np.zeros(cfg.nr + 1)
    for n in range(1, s.max_iter + 1):
        j0, j1 = action_values(v, cfg)
        best = np.maximum(j0, j1)
        theta = float(best[s.q0])
        v_next = best - theta
        diff = v_next - v
        v = v_next
        converged = float(diff.max() - diff.min()) < s.tol
        if converged or n % POLISH_PERIOD == 0:
            certified = _certified_solution(greedy_policy(v, cfg), cfg, s)
            if certified is not None:
                return certified
        if converged:
            return ValueFunction(v=v, theta=theta, reference_state=s.q0)
    raise NoConvergence(f"span above {s.tol} after {s.max_iter} iterations")


# Round cap for policy iteration; exact Howard steps settle within a few
# dozen rounds on every config the test suites and the benchmark reach.
PIA_MAX_ROUNDS = 500


def policy_iteration_solve(cfg: SystemConfig, settings: Optional[SolverSettings] = None):
    """Howard policy iteration on exact evaluations; returns (theta, TabularPolicy).

    One Howard walk from the greedy rule of V = 0.  A fixed point's pair
    solves the optimality equation to solver precision and is returned.  If
    improvement instead returns to an earlier rule of the same gain (within
    1e-9 relative), the walk is on a tie plateau where knife-edge states
    flip between near-equivalent resolutions; the evaluated rule with the
    highest gain is returned.  A return to a rule of another gain is a
    cycle that further rounds cannot leave, and raises NoConvergence.  Only
    ``settings.q0`` is used.
    """
    _require_interior(cfg)
    s = settings or SolverSettings()
    walked, back = _howard_walk(greedy_policy(np.zeros(cfg.nr + 1), cfg), cfg, s.q0,
                                PIA_MAX_ROUNDS)
    steps = list(walked.values())
    policy, vf = steps[-1]
    if not np.array_equal(back, policy):
        prior = walked[back.tobytes()][1].theta
        if abs(vf.theta - prior) > 1e-9 * (1.0 + abs(vf.theta)):
            raise NoConvergence(f"policy iteration cycles between gains {prior!r} and {vf.theta!r}")
        policy, vf = max(steps, key=lambda step: step[1].theta)
    return vf.theta, TabularPolicy(relay_choice=tuple(int(a) for a in policy))


def extract_threshold(v: ValueFunction, cfg: SystemConfig) -> int:
    """Threshold of the greedy rule: the largest q where the source link wins.

    The returned value follows the strict convention used everywhere in this
    package: the relay link is scheduled at both-on slots iff q > threshold.
    Raises NotThreshold when the greedy rule is not a monotone step function
    (a solver-bug signal) or never prefers the source link.
    """
    rule = greedy_policy(np.asarray(v.v, dtype=float), cfg)
    if np.any(np.diff(rule) < 0):
        raise NotThreshold(f"greedy rule not monotone: {rule.tolist()}")
    zeros = np.flatnonzero(rule == 0)
    if zeros.size == 0:
        raise NotThreshold("greedy rule never selects the source link")
    return int(zeros[-1])


def relay_activation_state(v: ValueFunction, cfg: SystemConfig) -> int:
    """Smallest q whose action advantage is non-negative (within tie slack).

    This is the first queue state at which scheduling the relay link is
    (weakly) optimal -- the observable usually read off an advantage-versus-
    queue plot.  For a strict sign change it equals ``extract_threshold + 1``;
    when the advantage vanishes exactly at the step it equals the threshold.
    """
    dj = delta_j(v, cfg)
    nonneg = np.flatnonzero(dj >= -TIE_TOL)
    if nonneg.size == 0:
        raise NotThreshold("relay link never optimal; advantage negative everywhere")
    return int(nonneg[0])


def check_value_properties(vf: ValueFunction, cfg: SystemConfig,
                           slack: float = PROPERTY_SLACK) -> StructureReport:
    """Certify monotonicity, unit increments and K-concavity of V.

    The report also carries the supermodularity flag (the action advantage
    is non-decreasing in q), so a single call gives the full certificate.
    """
    inc = np.diff(np.asarray(vf.v, dtype=float))
    monotone = bool(np.all(inc >= -slack))
    increments = bool(np.all(inc <= 1.0 + slack))
    k = cfg.rs + cfg.rr
    # K-concavity: increments K apart are non-increasing; the comparable
    # range is empty (vacuously true) when the buffer is shorter than K+1.
    width = max(0, len(inc) - k)
    hi = inc[k: k + width]
    lo = inc[:width]
    k_concave = bool(np.all(hi <= lo + slack))
    ddj = np.diff(delta_j(vf, cfg))
    supermodular = bool(np.all(ddj >= -slack))

    first = None
    if not monotone:
        first = ("monotone", int(np.flatnonzero(inc < -slack)[0]))
    elif not increments:
        first = ("increments_le_one", int(np.flatnonzero(inc > 1.0 + slack)[0]))
    elif not k_concave:
        first = ("k_concave", int(np.flatnonzero(hi > lo + slack)[0]))
    elif not supermodular:
        first = ("supermodular", int(np.flatnonzero(ddj < -slack)[0]))
    return StructureReport(monotone, increments, k_concave, supermodular, first)


def sign_changes(values: np.ndarray, tol: float = PROPERTY_SLACK) -> int:
    """Number of strict sign flips, ignoring entries within tol of zero."""
    signs = np.sign(np.where(np.abs(values) <= tol, 0.0, values))
    nz = signs[signs != 0]
    if nz.size < 2:
        return 0
    return int(np.sum(np.diff(nz) != 0))


def value_function_csv(v: ValueFunction) -> str:
    """CSV export: one header line carrying theta, then (q, v) rows."""
    lines = [f"theta,{v.theta:.12g}", "q,v"]
    for q, val in enumerate(v.v):
        lines.append(f"{q},{val:.12g}")
    return "\n".join(lines) + "\n"
