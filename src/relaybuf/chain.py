"""Threshold-policy Markov chains and the fast optimal-threshold sweep.

Under the greedy rate rule and a threshold link selection, the relay queue
is a finite Markov chain whose recurrent class C does not depend on the
threshold.  The throughput of a threshold q is pi(q) . r(q) over C, so the
optimum is found by evaluating every threshold of C.

The production sweep (``optimal_threshold_search``, and
``threshold_throughput`` for single thresholds) is one banded GTH kernel:
under any threshold the chain only moves up to min(c + rs, nr) and down to
max(c - rr, 0), so P is banded in index space, and state reduction from the
top (Grassmann, Taksar & Heyman, Oper. Res. 33(5), 1985) keeps that band and
subtracts nothing.  It needs no safety gates, and it runs all thresholds at
once as lanes of one array, costing O(|C|^2 w^2) flops over the sweep for
band width w.

The paper's two sweeps remain for its complexity comparison and cross-check
the kernel.  They solve the kernel's own band rows, densified by
``build_transition_matrix``:

* brute force -- a fresh partition-factorization solve (Gaussian
  elimination) per threshold, costing O(|C|^4) flops over the sweep;
* rank one    -- the reduced matrix of adjacent thresholds differs by one
  column, so its inverse is carried across the sweep with permuted
  rank-one (Sherman-Morrison) updates, costing O(|C|^3) overall
  (``rank_one_search``).

Their elimination and update kernels are hand-rolled and instrumented with
flop counters so the two complexity classes can be measured directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateP,
    DenominatorNearZero,
    SingularSystem,
    ThresholdNotRecurrent,
)
from .model import SystemConfig

PIVOT_TOL = 1e-13
DENOM_TOL = 1e-12

# Sweep safety limits: a rank-one step dividing by less than SAFE_DENOM,
# producing a correction larger than SAFE_SCALE, or leaving the maintained
# inverse with entries beyond SAFE_INVERSE would amplify roundoff past the
# 1e-8 agreement the update path promises, so the sweep rebuilds the inverse
# by elimination instead of updating.  Heavily drifted chains carry
# stationary ratios far outside these limits; their thresholds are handled
# by rebuilds and, when elimination itself degenerates, by the
# subtraction-free folding solve.
SAFE_DENOM = 1e-3
SAFE_SCALE = 1e5
SAFE_INVERSE = 1e2

# Thresholds whose throughput lies within this relative gap of the best are
# ties up to roundoff.
TRACE_TIE_TOL = 1e-11

# Unnormalized stationary masses grow geometrically up a chain drifting
# upwards and would overflow within a few hundred states; back-substitution
# divides the masses so far by the newest one once it passes this size.
RESCALE = 1e100

# Band entries per threshold batch of the GTH kernel (8 MB of doubles), so
# its memory stays bounded however many thresholds |C| has.
BATCH_ELEMENTS = 1 << 20


class FlopCounter:
    """Running count of floating-point add/sub/mul/div operations."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, n: int):
        self.total += int(n)


def solve_elimination(a: np.ndarray, b: np.ndarray,
                      counter: Optional[FlopCounter] = None) -> np.ndarray:
    """Solve a x = b by Gaussian elimination with partial pivoting.

    b may be a vector or a matrix of stacked right-hand sides.  Raises
    SingularSystem when a pivot falls below PIVOT_TOL.  Counted flops follow
    the usual 2n^3/3 + O(n^2) accounting for a single right-hand side.
    """
    a = np.array(a, dtype=float)
    vec = b.ndim == 1
    rhs = np.array(b, dtype=float).reshape(len(b), -1)
    n = a.shape[0]
    k = rhs.shape[1]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) < PIVOT_TOL:
            raise SingularSystem(f"pivot {a[piv, col]:.3e} below {PIVOT_TOL} at column {col}")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            rhs[[col, piv]] = rhs[[piv, col]]
        below = n - col - 1
        if below:
            mult = a[col + 1:, col] / a[col, col]
            a[col + 1:, col + 1:] -= np.outer(mult, a[col, col + 1:])
            rhs[col + 1:] -= np.outer(mult, rhs[col])
            a[col + 1:, col] = 0.0
            if counter is not None:
                counter.add(below + 2 * below * (n - col - 1) + 2 * below * k)
    x = np.empty_like(rhs)
    for i in range(n - 1, -1, -1):
        tail = n - 1 - i
        x[i] = (rhs[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
        if counter is not None:
            counter.add(2 * tail * k + k)
    return x[:, 0] if vec else x


def invert_elimination(a: np.ndarray, counter: Optional[FlopCounter] = None) -> np.ndarray:
    """Matrix inverse via elimination against the identity block (~8n^3/3 flops)."""
    return solve_elimination(a, np.eye(a.shape[0]), counter)


@dataclass(frozen=True)
class RecurrentStructure:
    """Recurrent class of the queue chain plus the lattice bookkeeping.

    a, b are the coprime integers with rs/rr = a/b; R = rs/a = rr/b is the
    common lattice step; nr = n*R + l with 0 <= l < R.  ``states`` holds the
    recurrent class computed by reachability, which is authoritative; the
    closed-form size (l+1)(n+1) is recorded alongside because it disagrees
    with the listed state set when l >= 2.
    """

    a: int
    b: int
    R: int
    n: int
    l: int
    states: Tuple[int, ...]
    formula_states: Tuple[int, ...]
    formula_size: int

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def size_matches_formula(self) -> bool:
        return len(self.states) == self.formula_size

    @property
    def set_matches_formula(self) -> bool:
        """Whether the closed-form state list agrees with reachability.

        False in the tight-buffer corner nr < rs + rr, where the lattice
        walk cannot realize every closed-form state without clipping, and
        reachability finds a strictly smaller class.
        """
        return self.states == self.formula_states


def recurrent_class(cfg: SystemConfig) -> RecurrentStructure:
    """Identify the recurrent class as the states reachable from state 0.

    Transitions considered are the three moves every threshold policy allows
    with positive probability: stay, a full source burst min(q+rs, nr), and a
    full relay burst max(q-rr, 0).  The class is therefore identical for every
    threshold choice.  Relay bursts drain every state to 0, so every state
    reachable from 0 also returns to it.
    """
    if not (0.0 < cfg.ps < 1.0 and 0.0 < cfg.pr < 1.0):
        raise DegenerateP(f"recurrent class needs 0 < p < 1, got ps={cfg.ps} pr={cfg.pr}")
    reached = {0}
    stack = [0]
    while stack:
        q = stack.pop()
        for q2 in (min(q + cfg.rs, cfg.nr), max(q - cfg.rr, 0)):
            if q2 not in reached:
                reached.add(q2)
                stack.append(q2)
    states = tuple(sorted(reached))

    g = gcd(cfg.rs, cfg.rr)
    a, b = cfg.rs // g, cfg.rr // g
    step = g
    n, l = divmod(cfg.nr, step)
    lattice = list(range(0, cfg.nr + 1, step))
    if l != 0:
        lattice += list(range(l, cfg.nr + 1, step))
    formula = tuple(sorted(set(lattice)))
    return RecurrentStructure(a=a, b=b, R=step, n=n, l=l, states=states,
                              formula_states=formula, formula_size=(l + 1) * (n + 1))


@dataclass(frozen=True)
class ChainModel:
    """Transition matrix and departure rates over C for one threshold."""

    cfg: SystemConfig
    structure: RecurrentStructure
    q_th: int
    P: np.ndarray
    r: np.ndarray

    @property
    def k(self) -> int:
        """0-based position of the threshold in the sorted recurrent class."""
        return self.structure.states.index(self.q_th)


def departure_rates(cfg: SystemConfig, q_th: int,
                    structure: Optional[RecurrentStructure] = None) -> np.ndarray:
    """Mean per-slot departures at each recurrent state under threshold q_th.

    Above the threshold the relay link runs whenever it is on (probability
    pr); at or below it only runs when the source link is off.
    """
    st = structure or recurrent_class(cfg)
    _, _, r_src, r_rel, _, _ = _band_rows(cfg, st)
    return np.where(np.asarray(st.states) > q_th, r_rel, r_src)


def build_transition_matrix(cfg: SystemConfig, q_th: int,
                            structure: Optional[RecurrentStructure] = None) -> ChainModel:
    """Row-stochastic transition matrix over C for threshold q_th.

    The dense scatter of the GTH kernel's band rows: source-side rows at or
    below the threshold, relay-side rows above it.
    """
    st = structure or recurrent_class(cfg)
    if q_th not in st.states:
        raise ThresholdNotRecurrent(f"q_th={q_th} not in recurrent class {list(st.states)}")
    src, rel, r_src, r_rel, drop, _ = _band_rows(cfg, st)
    above = np.asarray(st.states) > q_th
    band = np.where(above[:, None], rel, src)
    i, d = np.nonzero(band)
    p = np.zeros((st.size, st.size))
    p[i, i - drop + d] = band[i, d]
    return ChainModel(cfg=cfg, structure=st, q_th=q_th, P=p,
                      r=np.where(above, r_rel, r_src))


@dataclass
class SteadyState:
    """Stationary distribution over the recurrent class."""

    pi: np.ndarray

    def throughput(self, model: ChainModel) -> float:
        return float(self.pi @ model.r)


def _removed_column(k: int, m: int) -> int:
    # Column dropped from I - P^T when partitioning at threshold index k.
    # It is the column the next threshold will rewrite, capped at the last
    # column for the top of the sweep.
    return min(k + 1, m - 1)


def _column_order(k: int, m: int) -> List[int]:
    # Reduced-matrix column labels after moving the removed column last.
    j = _removed_column(k, m)
    if j < m - 1:
        return list(range(j)) + [m - 1] + list(range(j + 1, m - 1))
    return list(range(m - 1))


def _reduced_system(p: np.ndarray, k: int):
    # A = I - P^T at threshold index k, the reduced matrix's column order,
    # the reduced matrix (removed column compacted out, last row dropped)
    # and the removed column's remainder y.
    m = p.shape[0]
    a = np.eye(m) - p.T
    order = _column_order(k, m)
    return a, order, a[: m - 1, :][:, order], a[: m - 1, _removed_column(k, m)].copy()


def _assemble_pi(x_hat: np.ndarray, order: List[int], removed: int) -> np.ndarray:
    x = np.empty(len(order) + 1)
    x[order] = x_hat
    x[removed] = 1.0
    # sub-roundoff negatives are zeroed; anything larger signals a bad solve
    if x.min() < -1e-9 * max(x.max(), 1.0):
        raise SingularSystem(f"negative stationary mass {x.min():.3e}")
    x = np.where(x < 0.0, 0.0, x)
    return x / x.sum()


@dataclass
class PartitionedSystem:
    """State of the partition factorization at one threshold index.

    Holds the full matrix A = I - P^T, the reduced matrix (removed column
    compacted out, last row dropped), the removed column's remainder y, the
    column-order bookkeeping of the applied permutation, and the reduced
    matrix's current inverse.  When the system was produced by a rank-one
    update, ``update_denominator`` and ``update_scale`` record that step's
    divisor and the largest correction entry for numerical-safety decisions.
    """

    model: ChainModel
    k: int
    A: np.ndarray
    ahat: np.ndarray
    y: np.ndarray
    order: List[int] = field(default_factory=list)
    ahat_inv: Optional[np.ndarray] = None
    update_denominator: Optional[float] = None
    update_scale: float = 0.0

    @property
    def removed(self) -> int:
        return _removed_column(self.k, self.A.shape[0])


def partition_system(model: ChainModel, counter: Optional[FlopCounter] = None) -> PartitionedSystem:
    """Build the reduced system for one threshold and invert it by elimination."""
    k = model.k
    a, order, ahat, y = _reduced_system(model.P, k)
    inv = invert_elimination(ahat, counter)
    return PartitionedSystem(model=model, k=k, A=a, ahat=ahat, y=y,
                             order=order, ahat_inv=inv)


def steady_state_direct(model: ChainModel, counter: Optional[FlopCounter] = None) -> SteadyState:
    """Stationary vector by partition factorization with a fresh elimination.

    Drops the removed column and the last (redundant) balance equation,
    solves the reduced system for the unnormalized masses with the removed
    state pinned to 1, then normalizes to sum 1.  Strongly drifted chains
    carry huge unnormalized masses; iterative refinement kicks in when the
    first solve leaves a visible residual, which keeps the normalized vector
    at roundoff accuracy without touching the cost of benign solves.
    """
    m = model.P.shape[0]
    k = model.k
    _, order, ahat, y = _reduced_system(model.P, k)
    x_hat = solve_elimination(ahat, -y, counter)
    for _ in range(2):
        resid = ahat @ x_hat + y
        if counter is not None:
            counter.add(2 * (m - 1) * (m - 1) + (m - 1))
        if np.abs(resid).max() <= 1e-13 * (1.0 + float(np.abs(x_hat).max())):
            break
        x_hat += solve_elimination(ahat, -resid, counter)
    return SteadyState(pi=_assemble_pi(x_hat, order, _removed_column(k, m)))


def steady_state_folding(model: ChainModel) -> SteadyState:
    """Stationary vector by state folding, robust to any conditioning.

    Eliminates the highest state at a time using only additions,
    multiplications and divisions of nonnegative numbers, so every entry
    comes out with small componentwise relative error even when the chain is
    drifted far beyond what the partitioned linear solve can represent;
    back-substitution rescales the masses past RESCALE so they never
    overflow.  Used as the fallback when elimination degenerates numerically.
    """
    p = np.array(model.P, dtype=float)
    m = p.shape[0]
    for n in range(m - 1, 0, -1):
        escape = p[n, :n].sum()
        if escape <= 0.0:
            raise SingularSystem(f"state {n} cannot reach lower states; chain reducible")
        p[:n, n] /= escape
        p[:n, :n] += np.outer(p[:n, n], p[n, :n])
    x = np.empty(m)
    x[0] = 1.0
    for n in range(1, m):
        x[n] = x[:n] @ p[:n, n]
        if x[n] > RESCALE:
            x[:n + 1] /= x[n]
    return SteadyState(pi=x / x.sum())


def _band_rows(cfg: SystemConfig, st: RecurrentStructure):
    """The two row types of P over C in band storage, with their rates.

    Row i of P is stored as band[i, d] with column j = i - drop + d, where
    drop and rise are the largest index moves down and up the class.
    Returns the source-side rows (states at or below the threshold), the
    relay-side rows, the departure rates of each side, drop and rise.
    """
    pos = {c: i for i, c in enumerate(st.states)}
    idx = np.arange(st.size)
    up = np.array([pos[min(c + cfg.rs, cfg.nr)] for c in st.states])
    down = np.array([pos[max(c - cfg.rr, 0)] for c in st.states])
    drop, rise = int((idx - down).max()), int((up - idx).max())
    qs, qr = cfg.ps_bar, cfg.pr_bar
    rows = []
    for to_up, to_down in ((cfg.ps, qs * cfg.pr), (cfg.ps * qr, cfg.pr)):
        band = np.zeros((st.size, drop + rise + 1))
        # stay, then up, then down: masses landing on one state (the full
        # buffer keeps its source-burst mass in place) add in this order
        band[idx, drop] += qs * qr
        np.add.at(band, (idx, up - idx + drop), to_up)
        np.add.at(band, (idx, down - idx + drop), to_down)
        rows.append(band)
    cap = np.minimum(np.asarray(st.states), cfg.rr)
    return rows[0], rows[1], cfg.ps_bar * cfg.pr * cap, cfg.pr * cap, drop, rise


def _gth_batch(bands, ks, counter):
    # Lane t of every array is the threshold at class index ks[t].  All
    # arithmetic is elementwise across lanes or summed in a fixed order, so
    # a lane's result does not depend on the batch it runs in.
    src, rel, r_src, r_rel, drop, rise = bands
    m = src.shape[0]
    p = np.where((np.arange(m)[:, None] <= ks)[:, None, :], src[:, :, None], rel[:, :, None])
    flops = 0
    # reduce states from the top; the fill stays inside the (drop, rise) band
    for n in range(m - 1, 0, -1):
        lo_c, lo_r = max(0, n - drop), max(0, n - rise)
        lower = p[n, lo_c - n + drop:drop]      # row n into the states below it
        escape = lower[0].copy()
        for term in lower[1:]:
            escape += term
        if not (escape > 0.0).all():
            raise SingularSystem(f"state index {n} cannot reach lower states; chain reducible")
        for i in range(lo_r, n):
            into = p[i, n - i + drop]           # P[i, n], scaled in place
            into /= escape
            p[i, lo_c - i + drop:n - i + drop] += into * lower
        a, k = n - lo_c, n - lo_r
        flops += a - 1 + k * (1 + 2 * a)
    x = np.empty((m, ks.size))
    x[0] = 1.0
    for n in range(1, m):
        lo_r = max(0, n - rise)
        acc = x[lo_r] * p[lo_r, n - lo_r + drop]
        for i in range(lo_r + 1, n):
            acc += x[i] * p[i, n - i + drop]
        x[n] = acc
        flops += 2 * (n - lo_r) - 1
        if (acc > RESCALE).any():
            x[:n + 1] /= np.where(acc > RESCALE, acc, 1.0)
    if counter is not None:
        counter.add((flops + 3 * m - 1) * ks.size)
    x = np.ascontiguousarray(x.T)
    r = np.where(np.arange(m) <= ks[:, None], r_src, r_rel)
    return (x * r).sum(axis=1) / x.sum(axis=1)


def banded_throughputs(cfg: SystemConfig, ks, structure: Optional[RecurrentStructure] = None,
                       counter: Optional[FlopCounter] = None) -> np.ndarray:
    """Throughput of the thresholds at class indices ks by banded GTH reduction.

    Every threshold's chain is stored in (|C|, drop + rise + 1) band form
    and reduced from the top state down (GTH state reduction), all
    thresholds at once as lanes of one array, then back-substituted and
    normalized; theta = pi . r.  Only non-negative numbers are added,
    multiplied and divided, so every threshold keeps a small relative error
    however drifted its chain is.  Thresholds run in batches of at most
    BATCH_ELEMENTS band entries.  A passed counter receives the flops.
    """
    st = structure or recurrent_class(cfg)
    bands = _band_rows(cfg, st)
    ks = np.asarray(ks, dtype=int)
    batch = max(1, BATCH_ELEMENTS // bands[0].size)
    return np.concatenate([_gth_batch(bands, ks[s:s + batch], counter)
                           for s in range(0, ks.size, batch)])


def rank_one_inverse_update(prev: PartitionedSystem,
                            counter: Optional[FlopCounter] = None) -> PartitionedSystem:
    """Advance the reduced-system inverse from threshold index k to k + 1.

    Adjacent thresholds change a single row of P, hence a single column of
    A = I - P^T.  After permuting the retained columns into their new
    positions the reduced matrices differ in exactly one column, so the new
    inverse follows from the old by a Sherman-Morrison update.  Raises
    DenominatorNearZero when the update denominator is tiny; callers fall
    back to a fresh elimination.
    """
    model = prev.model
    cfg, st = model.cfg, model.structure
    m = st.size
    if prev.k + 1 >= m:
        raise ThresholdNotRecurrent(f"no threshold after index {prev.k}")
    k_next = prev.k + 1
    next_model = build_transition_matrix(cfg, st.states[k_next], st)
    a_next, order_next, ahat_next, y_next = _reduced_system(next_model.P, k_next)

    j_old = _removed_column(prev.k, m)   # column returning to the reduced matrix
    j_new = _removed_column(k_next, m)   # column leaving it

    # Row permutation carrying each retained label to its new position; the
    # re-entering column initially holds the leaving label's old values.
    sigma = [prev.order.index(j_new if lab == j_old else lab) for lab in order_next]
    permuted_inv = prev.ahat_inv[sigma, :]

    denom = None
    scale = 0.0
    if j_old == j_new:
        # top of the sweep: both thresholds drop the same column, no update
        inv_next = permuted_inv
    else:
        pos = order_next.index(j_old)
        u = a_next[: m - 1, j_old] - prev.A[: m - 1, j_new]
        n = m - 1
        t1 = permuted_inv @ u
        row = permuted_inv[pos, :]
        denom = float(1.0 + row @ u)
        if counter is not None:
            # u build, two matrix-vector products, denominator dot, then the
            # outer product, its scaling, and the subtraction
            counter.add(n + 2 * n * n + 2 * n * n + 2 * n + 3 * n * n)
        if abs(denom) < DENOM_TOL:
            raise DenominatorNearZero(f"update denominator {denom:.3e}")
        scale = float(np.abs(t1).max() * np.abs(row).max() / abs(denom))
        inv_next = permuted_inv - np.outer(t1, row) / denom

    return PartitionedSystem(model=next_model, k=k_next, A=a_next, ahat=ahat_next,
                             y=y_next, order=order_next, ahat_inv=inv_next,
                             update_denominator=denom, update_scale=scale)


def steady_state_from_partition(ps: PartitionedSystem,
                                counter: Optional[FlopCounter] = None) -> SteadyState:
    """Stationary vector from a maintained inverse: x_hat = -inv . y."""
    n = ps.ahat_inv.shape[0]
    x_hat = -(ps.ahat_inv @ ps.y)
    if counter is not None:
        counter.add(2 * n * n + n)
    return SteadyState(pi=_assemble_pi(x_hat, ps.order, ps.removed))


def _update_is_safe(nxt: PartitionedSystem) -> bool:
    """Scale pre-gates on a rank-one update; anything outside is rebuilt."""
    if not np.all(np.isfinite(nxt.ahat_inv)):
        return False
    if nxt.update_denominator is not None and abs(nxt.update_denominator) < SAFE_DENOM:
        return False
    if nxt.update_scale > SAFE_SCALE:
        return False
    return float(np.abs(nxt.ahat_inv).max()) <= SAFE_INVERSE


def _stationary_enough(pi: np.ndarray, model: ChainModel,
                       counter: Optional[FlopCounter]) -> bool:
    """Gate on the quantity actually emitted: the stationarity residual."""
    m = pi.shape[0]
    resid = float(np.abs(pi @ model.P - pi).max())
    if counter is not None:
        counter.add(2 * m * m + m)
    return resid <= 1e-11


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a threshold sweep over the recurrent class."""

    q_opt: int
    throughput: float
    trace: Tuple[Tuple[int, float], ...]
    structure: RecurrentStructure
    fallbacks: int = 0
    degraded: int = 0


@dataclass
class SweepStep:
    """One threshold of the update-path sweep, with provenance flags.

    part is None when elimination itself degenerated numerically and the
    stationary vector came from the folding solve (degraded=True); rebuilt
    marks thresholds whose inverse was recomputed by fresh elimination
    rather than a rank-one update.
    """

    model: ChainModel
    part: Optional[PartitionedSystem]
    pi: SteadyState
    rebuilt: bool
    degraded: bool

    @property
    def throughput(self) -> float:
        return self.pi.throughput(self.model)


def sweep_steps(cfg: SystemConfig, counter: Optional[FlopCounter] = None):
    """Yield a SweepStep per recurrent threshold in ascending order.

    Carries the reduced-system inverse across thresholds by rank-one
    updates, rebuilding by elimination whenever a step is numerically
    unsafe, and degrading to the folding solve for thresholds where the
    partitioned system cannot be solved in double precision at all.  Only a
    carried inverse whose stationary vector fails the gate is retried fresh:
    a retry of a fresh elimination would repeat it exactly.
    """
    st = recurrent_class(cfg)

    def rebuild(k):
        model = build_transition_matrix(cfg, st.states[k], st)
        try:
            return model, partition_system(model, counter)
        except SingularSystem:
            return model, None

    def stationary(model, part):
        # the gated stationary vector of a factored system, or None
        if part is None:
            return None
        try:
            pi = steady_state_from_partition(part, counter)
        except SingularSystem:
            return None
        return pi if _stationary_enough(pi.pi, model, counter) else None

    part = None
    for k in range(st.size):
        nxt = None
        if part is not None:
            try:
                nxt = rank_one_inverse_update(part, counter)
            except (DenominatorNearZero, SingularSystem):
                pass
        carried = nxt is not None and _update_is_safe(nxt)
        if carried:
            part, model = nxt, nxt.model
        else:
            model, part = rebuild(k)
        rebuilt = k > 0 and not carried
        pi = stationary(model, part)
        if pi is None and carried:
            # a stale carried inverse may be the culprit; retry fresh
            rebuilt = True
            model, part = rebuild(k)
            pi = stationary(model, part)
        degraded = pi is None
        if degraded:
            pi = steady_state_folding(model)
        yield SweepStep(model=model, part=part, pi=pi, rebuilt=rebuilt, degraded=degraded)


def _best_of(trace) -> Tuple[int, float]:
    # ties keep the later (larger) threshold, matching the >= update rule
    best_q, best = trace[0][0], 0.0
    for q, val in trace:
        if val >= best:
            best_q, best = q, val
    return best_q, best


def tie_maximizers(trace, tol: float = TRACE_TIE_TOL) -> List[int]:
    """Thresholds of a trace within tol * (1 + |best|) of its best throughput."""
    best = max(val for _, val in trace)
    gap = tol * (1.0 + abs(best))
    return [q for q, val in trace if best - val <= gap]


def optimal_threshold_search(cfg: SystemConfig,
                             counter: Optional[FlopCounter] = None) -> SweepResult:
    """Evaluate every recurrent threshold with the banded GTH kernel.

    All thresholds run as lanes of one state reduction, with no rebuilds,
    gates or fallback, so ``fallbacks`` and ``degraded`` are always 0.  A
    passed counter receives the kernel's flops.
    """
    st = recurrent_class(cfg)
    thetas = banded_throughputs(cfg, range(st.size), st, counter)
    trace = tuple(zip(st.states, thetas.tolist()))
    best_q, best = _best_of(trace)
    return SweepResult(q_opt=best_q, throughput=best, trace=trace, structure=st)


def rank_one_search(cfg: SystemConfig,
                    counter: Optional[FlopCounter] = None) -> SweepResult:
    """Sweep all recurrent thresholds with the paper's rank-one update path.

    The first threshold's reduced inverse comes from Gaussian elimination;
    each later one reuses the previous inverse through
    ``rank_one_inverse_update``, falling back to a fresh elimination (and,
    in numerically degenerate corners, the folding solve) for any index
    whose update is unsafe.
    """
    trace = []
    fallbacks = 0
    degraded = 0
    structure = None
    for step in sweep_steps(cfg, counter):
        structure = step.model.structure
        trace.append((step.model.q_th, step.throughput))
        fallbacks += step.rebuilt
        degraded += step.degraded
    best_q, best = _best_of(trace)
    return SweepResult(q_opt=best_q, throughput=best, trace=tuple(trace),
                       structure=structure, fallbacks=fallbacks, degraded=degraded)


def brute_force_search(cfg: SystemConfig,
                       counter: Optional[FlopCounter] = None) -> SweepResult:
    """Sweep all recurrent thresholds with a fresh elimination per threshold."""
    st = recurrent_class(cfg)
    trace = []
    degraded = 0
    for q in st.states:
        model = build_transition_matrix(cfg, q, st)
        try:
            pi = steady_state_direct(model, counter)
        except SingularSystem:
            pi = steady_state_folding(model)
            degraded += 1
        trace.append((q, pi.throughput(model)))
    best_q, best = _best_of(trace)
    return SweepResult(q_opt=best_q, throughput=best, trace=tuple(trace), structure=st,
                       degraded=degraded)


def map_threshold_set(q_opt: int, structure: RecurrentStructure) -> Tuple[int, ...]:
    """All buffer-space thresholds equivalent to a recurrent-class optimum.

    Thresholds between two adjacent recurrent states induce the same link
    selection on the recurrent class, so the whole integer interval up to the
    next recurrent state is optimal; the top state maps only to itself.
    """
    if q_opt not in structure.states:
        raise ThresholdNotRecurrent(f"q={q_opt} not in recurrent class")
    nr = structure.states[-1]
    if q_opt == nr:
        return (nr,)
    q_next = min(c for c in structure.states if c > q_opt)
    return tuple(range(q_opt, q_next))


def threshold_throughput(cfg: SystemConfig, q_th: int,
                         structure: Optional[RecurrentStructure] = None) -> float:
    """Long-run throughput of an arbitrary threshold in {0..nr}.

    Thresholds outside the recurrent class act on it exactly like the largest
    recurrent state at or below them, so the chain is solved there, by the
    sweep's own kernel: the result equals that threshold's trace entry.
    """
    st = structure or recurrent_class(cfg)
    if not 0 <= q_th <= cfg.nr:
        raise ThresholdNotRecurrent(f"threshold {q_th} outside 0..{cfg.nr}")
    k = max(i for i, c in enumerate(st.states) if c <= q_th)
    return float(banded_throughputs(cfg, [k], st)[0])


def sweep_flop_counts(cfg: SystemConfig) -> Tuple[int, int]:
    """(flops_direct, flops_updated) for full sweeps of the paper's two paths.

    Only the linear-algebra kernels are counted: eliminations on the direct
    path (``brute_force_search``); the initial inversion, update formula and
    back-solves on the rank-one path (``rank_one_search``).  Matrix assembly
    and normalization are excluded from both.
    """
    direct = FlopCounter()
    brute_force_search(cfg, direct)
    updated = FlopCounter()
    rank_one_search(cfg, updated)
    return direct.total, updated.total


def trace_csv(result: SweepResult) -> str:
    """Per-threshold throughput trace as CSV."""
    lines = ["q_th,throughput"]
    for q, val in result.trace:
        lines.append(f"{q},{val:.12g}")
    return "\n".join(lines) + "\n"
