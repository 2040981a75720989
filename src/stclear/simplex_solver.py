"""Bounded-variable revised simplex for equality-constrained LPs with box
bounds, plus an independent KKT verifier.

Nonbasic variables rest at their lower or upper bound (or at zero for free
columns), which keeps clearing LPs at their natural dimension instead of
adding slack rows.  The basis is held as a sparse LU factorization (SuperLU
on the CSC basis columns; clearing bases have about two nonzeros per column)
refreshed after every `REFACTOR_EVERY` basis changes, with product-form eta
updates in between; bound flips leave the factorization alone.  Pricing
(BTRAN for the duals, the reduced costs and the entering candidates) runs
once per basis: a bound flip leaves the basis and y unchanged, so the next
iteration reuses them and re-checks only the flipped column.  The rest of an
iteration works over the nonzeros of w = B⁻¹a_q, which on clearing LPs are a
handful of m: the ratio test, the update of the basic values and the FTRAN
etas cost O(nnz(w)).  Columns with bit-equal a_j form a *stack*, such as
the price levels that one supplier bids into one node: a piecewise-linear
column (Fourer, "A simplex algorithm for piecewise-linear programming I",
Math. Prog. 1985).  When the entering column flips to its bound, the w
already in hand serves its stack: the other members eligible in the same
direction flip with it, the most violating first, for as long as their
summed steps stay below the ratio test's slack, each counted as one
iteration and one flip.
Phase 1 (auxiliary variables) runs only when b != 0.  Clearing primals have
b == 0 and start feasible at x = 0 from a triangular crash basis (Bixby,
"Implementing the simplex method: the initial basis", ORSA JOC 1992) of
structural columns, the least internal cost first; a row the crash leaves
uncovered keeps its artificial.

Every optimal solve, cold or warm, reports the optimal dual of least sum
Σy, whatever vertex the pivot path ends on; on clearing LPs it is the
componentwise least price vector, the buyers' end of the lattice of
competitive prices (Shapley & Shubik, "The assignment game I: the core",
IJGT 1971).  It is the dual of the optimum of the *face LP*: the same W and
c with b = -1, a column at its lower bound in [0, inf), one at its upper
bound in (-inf, 0], a basic column between its bounds free and one with
equal bounds fixed at 0, whose dual feasible set is the optimal dual face.
The optimal basis is dual feasible there, so the dual loop below takes the
same solver state from x_B = -B⁻¹1 to the face LP's optimum; where that
basis is already optimal there, the step costs one FTRAN and changes no
bit.  The cleared x is kept.  A face LP with no optimum (a row whose price
has no least value, such as one where no one trades and only sellers bid)
keeps the solver's own y, and the `solve:` log line ends `face=skipped`.

An optimal result carries its final basis (the status of every column), and
`solve(lp, start=basis)` warm-starts from it an LP that differs only in its
bounds, such as the quasi-steady-state restriction of a market, which zeroes
the capacity of every cross-time column.  Tighter bounds leave the basis dual
feasible, so a bounded dual simplex (Koberstein, *The dual simplex method,
techniques for a fast and stable implementation*, PhD thesis, Paderborn 2005)
pivots out the basic value farthest outside its bounds until all are inside,
and the primal loop's pricing then proves optimality as on a cold solve.  A
start that is singular or not dual feasible falls back to the cold solve, and
so does a warm solve that ends infeasible or singular.  A solution that
arrives without its basis, such as one read back from files, gets one rebuilt
by `basis_from_point` from its x and y; like any start it is only a hint.

Orientation conventions, fixed by the market fixtures in the test suite:
  - `y` is the row dual of the internal minimization; for the max-sense
    clearing LP assembled with supply entering rows at +1, this is exactly
    the nodal clearing price vector.
  - `reduced_costs[j]` is the marginal change of the *reported* objective per
    unit increase of x_j, so a column at its upper bound in a max LP carries
    a nonnegative reduced cost equal to its capacity dual, which
    `settlement.capacity_duals` reads off.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .clearing_lp import LinearProgram, total

log = logging.getLogger("stclear.simplex")

REFACTOR_EVERY = 32
PIVOT_TOLERANCE = 1e-9  # ratio-test entries at or below this magnitude are not pivots
STALL_THRESHOLD = 50  # consecutive degenerate pivots before Bland's rule
FEASIBILITY_TOL = 1e-8  # a primal value may sit this far outside its bounds
OPTIMALITY_TOL = 1e-8  # a reduced cost may sit this far on the wrong side of zero
TIE_TOL = 1e-12  # ratios within TIE_TOL * (1 + least) of the least one tie
DEGENERATE_STEP = 1e-11  # a step at or below this is degenerate: it counts toward a stall

# nonbasic/basic markers
_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2
_FREE = 3
_FIXED = 4


class SolverStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    SINGULAR_BASIS = "singular_basis"  # lost numerical control: no answer


class NotOptimal(RuntimeError):
    pass


class _SingularBasis(Exception):
    pass


@dataclass(frozen=True)
class SolverResult:
    status: SolverStatus
    x: np.ndarray
    y: np.ndarray
    reduced_costs: np.ndarray
    objective: float
    iterations: int
    # int8 status of all n+m columns (structural, then artificial) of an
    # optimal solve, or rebuilt by `basis_from_point` for a loaded one;
    # `solve(..., start=basis)` warm-starts from it
    basis: np.ndarray | None = None


@dataclass(frozen=True)
class KktReport:
    primal_residual: float
    bound_violation: float
    dual_violation: float
    cs_lower: float
    cs_upper: float
    duality_gap: float
    passed: bool


class _EtaLU:
    """Sparse LU of the basis plus product-form eta updates.

    Each eta is kept dense and as its nonzeros: FTRAN adds only the
    nonzeros, BTRAN takes the dense dot product."""

    def __init__(self, B: sp.csc_matrix):
        try:
            self.lu = splu(B)
        except RuntimeError as e:  # SuperLU: "Factor is exactly singular"
            raise _SingularBasis(str(e)) from None
        # (r, eta, nonzero positions of eta, their values)
        self.etas: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def solve(self, v: np.ndarray) -> np.ndarray:
        x = self.lu.solve(v)
        for r, _, idx, vals in self.etas:
            xr = x[r]
            if xr != 0.0:
                x[idx] += vals * xr
        return x

    def solve_t(self, v: np.ndarray) -> np.ndarray:
        v = np.array(v, dtype=float)
        # the one dense dot outside `clearing_lp.total`, left as it is on the
        # pivot path: its bits do not depend on the BLAS thread count while
        # m stays below the 10 000 entries at which OpenBLAS threads ddot
        # (m is 2 352 at 32x16x48, the largest benchmark case).  The CI step
        # "Solver digest" guards it: its digest under OPENBLAS_NUM_THREADS=1
        # must equal the default run's.
        for r, eta, _, _ in reversed(self.etas):
            v[r] += eta @ v
        return self.lu.solve(v, trans="T")

    def update(self, w: np.ndarray, r: int):
        pivot = w[r]
        eta = -w / pivot
        eta[r] = 1.0 / pivot - 1.0
        idx = np.flatnonzero(eta)
        self.etas.append((r, eta, idx, eta[idx]))


def _stacks(W: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacks of W: its columns grouped by the exact bits of their CSC
    indices and values (a canonical W, so equal columns have equal arrays).
    Returns the stack of each column, the columns ordered by stack (each
    stack in index order) and where each stack starts in that order, with
    the column count last.  The columns of one nonzero count k are sorted
    together on a (columns x 2k) int64 key, so the keys take O(nnz(W))."""
    nnz = np.diff(W.indptr)
    order = np.argsort(nnz, kind="stable")
    first = np.ones(len(order), dtype=bool)  # where a stack starts in order
    ends = np.flatnonzero(np.diff(nnz[order])) + 1
    for lo, hi in zip(np.r_[0, ends], np.r_[ends, len(order)]):
        cols = order[lo:hi]
        k = nnz[cols[0]] if len(cols) else 0
        if not k:
            first[lo + 1:hi] = False  # empty columns are one stack
            continue
        at = W.indptr[cols][:, None] + np.arange(k)
        keys = np.hstack([W.indices[at], W.data[at].view(np.int64)])
        by_key = np.lexsort(keys.T)  # stable: index order among equals
        order[lo:hi] = cols[by_key]
        keys = keys[by_key]
        first[lo + 1:hi] = (keys[1:] != keys[:-1]).any(axis=1)
    stack = np.empty(len(order), dtype=np.intp)
    stack[order] = np.cumsum(first) - 1
    return stack, order, np.append(np.flatnonzero(first), len(order))


def _resting(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Where a nonbasic column rests: free (at zero) without a lower bound,
    fixed when its bounds are equal, otherwise at its lower bound."""
    return np.where(np.isneginf(lo), _FREE, np.where(lo == hi, _FIXED, _AT_LOWER))


def _triangular(W: sp.csc_matrix, priority: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A triangular crash (Bixby, "Implementing the simplex method: the
    initial basis", ORSA JOC 1992) over the columns of W, which holds no
    explicit zero: while some column has exactly one nonzero in the rows not
    yet covered, it covers that row, so the columns taken are a triangular
    basis of the rows they cover.  The column of least `priority` goes
    first, and among equals the one that qualified first (in index order at
    the start).  Each covered row lowers the uncovered-row counts of the
    columns in it once, so the crash takes O(nnz(W) log n).  Returns the
    columns taken and the covered rows."""
    rows = W.tocsr()
    starts, members = rows.indptr.tolist(), rows.indices.tolist()
    indptr, indices = W.indptr.tolist(), W.indices.tolist()
    nnz = np.diff(W.indptr)
    count = nnz.tolist()  # nonzeros of each column in uncovered rows
    rank = priority.tolist()
    # of the columns with one nonzero, only the first in its row can cover it
    single = np.flatnonzero(nnz == 1)
    single = single[np.argsort(priority[single], kind="stable")]
    _, first = np.unique(W.indices[W.indptr[single]], return_index=True)
    queued = itertools.count()
    heap = [(rank[k], next(queued), k) for k in np.sort(single[first]).tolist()]
    heapq.heapify(heap)
    covered = bytearray(W.shape[0])
    taken = []
    while heap:
        k = heapq.heappop(heap)[2]
        if count[k] != 1:
            continue  # its last uncovered row was covered while it queued
        r = next(i for i in indices[indptr[k]:indptr[k + 1]] if not covered[i])
        covered[r] = True
        taken.append(k)
        for other in members[starts[r]:starts[r + 1]]:
            count[other] -= 1
            if count[other] == 1:
                heapq.heappush(heap, (rank[other], next(queued), other))
    return np.array(taken, dtype=np.intp), np.frombuffer(covered, dtype=bool)


class _Simplex:
    def __init__(self, lp: LinearProgram, max_iterations: int | None = None):
        self.n = lp.n_cols
        self.m = lp.n_rows
        lo = np.array(lp.lower, dtype=float)
        hi = np.array(lp.upper, dtype=float)
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("NaN bounds")
        free = np.isneginf(lo)
        if np.any(~free & (lo != 0.0)):
            raise ValueError("lower bounds must be 0 or -inf")
        if np.any(hi < np.where(free, -np.inf, lo)):
            raise ValueError("upper bound below lower bound")

        self.b = np.array(lp.b, dtype=float)
        sign = np.where(self.b < 0, -1.0, 1.0)
        art = sp.diags(sign, format="csc", shape=(self.m, self.m)) if self.m else None
        A = lp.A.tocsc()
        self.W = sp.hstack([A, art], format="csc") if self.m else A.tocsc()
        self.W.sum_duplicates()  # entering columns are read straight from the CSC arrays
        self.WT = self.W.T.tocsr()
        self.stack, self.stack_order, self.stack_start = _stacks(self.W)
        N = self.n + self.m

        self.lo = np.concatenate([lo, np.zeros(self.m)])
        art_hi = np.where(np.abs(self.b) > 0, np.inf, 0.0)
        self.hi = np.concatenate([hi, art_hi])

        self.status = np.full(N, _BASIC, dtype=np.int8)
        self.status[: self.n] = _resting(lo, hi)
        self.basis = np.arange(self.n, N)

        self.x = np.zeros(N)
        self.x[self.n:] = np.abs(self.b)

        self.sense_mult = -1.0 if lp.sense == "max" else 1.0
        self.c_orig = np.array(lp.c, dtype=float)
        self.c2 = np.concatenate([self.sense_mult * self.c_orig, np.zeros(self.m)])
        self.c1 = np.zeros(N)
        self.c1[self.n:] = 1.0

        self.factor: _EtaLU | None = None
        self.iterations = 0
        self.refactors = 0
        self.flips = 0  # iterations that moved a column between its bounds
        self.pricings = 0  # full BTRAN + W^T y passes in the loop
        self.lu_nnz = 0  # largest L+U fill seen
        self.w_nnz = 0  # nonzeros of the FTRAN results w, summed over iterations
        self.batched = 0  # flips made along another stack member's w
        self.dual_pivots = 0  # iterations of the warm start's dual simplex
        self.crashed = 0  # rows the cold start's crash covers with a structural column
        self.face_pivots = 0  # dual pivots of the least-price step
        self.face_skipped = False  # the least-price step ended short of its optimum
        self.warm = False  # set by `restart`: the dual simplex replaces phase 1
        default = max(1, 50 * (self.m + self.n))
        self.max_iterations = default if max_iterations is None else max_iterations
        self.bland = False
        self.stall = 0

    def _refactor(self):
        if self.m == 0:
            return
        self.factor = _EtaLU(self.W[:, self.basis])
        self.refactors += 1
        self.lu_nnz = max(self.lu_nnz, self.factor.lu.nnz)
        # recompute basic values from scratch to purge accumulated drift
        xn = self.x.copy()
        xn[self.basis] = 0.0
        rhs = self.b - self.W @ xn
        self.x[self.basis] = self.factor.lu.solve(rhs)  # no etas yet

    def _duals(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.m == 0:
            return np.zeros(0), c.copy()
        y = self.factor.solve_t(c[self.basis])
        return y, c - self.WT @ y

    def _ftran(self, q: int) -> np.ndarray:
        """w = B⁻¹a_q, with a_q read straight from the CSC arrays of W."""
        if not self.m:
            return np.zeros(0)
        start, end = self.W.indptr[q], self.W.indptr[q + 1]
        a_q = np.zeros(self.m)
        a_q[self.W.indices[start:end]] = self.W.data[start:end]
        return self.factor.solve(a_q)

    def _eligibility(self, d: np.ndarray):
        """Entering candidates: which columns may increase, which may move at
        all, and by how much each violates optimality."""
        st = self.status
        up = ((st == _AT_LOWER) | (st == _FREE)) & (d < -OPTIMALITY_TOL)
        dn = ((st == _AT_UPPER) | (st == _FREE)) & (d > OPTIMALITY_TOL)
        eligible = up | dn
        return up, eligible, np.where(eligible, np.abs(d), 0.0)

    def _move(self, q: int, sigma: float, w: np.ndarray) -> tuple[int, float, float] | None:
        """Move column q in direction sigma along w = B⁻¹a_q: ratio test,
        basic update and bound bookkeeping, over the nonzeros of w only.
        Returns the leaving basis position (-1 for a bound flip of q), the
        step and, for a flip, the slack left by the ratio test (its minimum
        less the step; 0.0 for a pivot), or None when nothing blocks the
        move."""
        nz = np.flatnonzero(w)
        self.w_nnz += len(nz)
        rows = self.basis[nz]
        w_nz = w[nz]
        rmin, blocking = np.inf, []
        for i, j, wi, xj, lj, hj in zip(
            nz.tolist(), rows.tolist(), w_nz.tolist(),
            self.x[rows].tolist(), self.lo[rows].tolist(), self.hi[rows].tolist(),
        ):
            s = sigma * wi
            if s > PIVOT_TOLERANCE:
                gap, to_lower = xj - lj, True
            elif s < -PIVOT_TOLERANCE:
                gap, to_lower = hj - xj, False
            else:
                continue
            ratio = (gap if gap > 0.0 else 0.0) / abs(s)  # +0.0 for a -0.0 gap, as np.maximum
            blocking.append((j, i, ratio, to_lower))
            if ratio < rmin:
                rmin = ratio
        own = self.hi[q] - self.x[q] if sigma > 0 else self.x[q] - self.lo[q]
        if rmin == np.inf and own == np.inf:
            return None

        if own < rmin:
            # entering column hits its opposite bound first: bound flip
            if own > 0:
                self.x[rows] -= sigma * own * w_nz
            self.x[q] = self.hi[q] if sigma > 0 else self.lo[q]
            self.status[q] = _AT_UPPER if sigma > 0 else _AT_LOWER
            return -1, own, rmin - own

        # leaving ties break by lowest variable index (Bland-style); this
        # also pins the dual returned on degenerate optima
        window = rmin * (1.0 + TIE_TOL) + TIE_TOL
        leaving, r_pos, delta, to_lower = min(b for b in blocking if b[2] <= window)
        self.x[rows] -= sigma * delta * w_nz
        if to_lower:
            self.x[leaving] = self.lo[leaving]
            self.status[leaving] = _AT_LOWER
        else:
            self.x[leaving] = self.hi[leaving]
            self.status[leaving] = _AT_UPPER
        self.x[q] = self.x[q] + sigma * delta
        self.basis[r_pos] = q
        self.status[q] = _BASIC
        return r_pos, delta, 0.0

    def _flip_stack(
        self, q: int, sigma: float, w: np.ndarray, slack: float, can_up, eligible, viol
    ) -> np.ndarray:
        """After q's bound flip along w, flip the other members of q's stack
        that single flips would flip next along the same w: those eligible
        in direction sigma, the most violating first (index ties as
        `argmax`), while each step stays strictly below what is left of
        `slack` as the basic values move step by step.  Each is counted as
        an iteration, and the batch ends at the iteration limit and at the
        flip that switches to Bland's rule.  Returns the flipped members."""
        s = self.stack[q]
        members = self.stack_order[self.stack_start[s]:self.stack_start[s + 1]]
        if len(members) == 1:
            return members[:0]
        same = can_up[members] if sigma > 0 else eligible[members] & ~can_up[members]
        cand = members[same & (members != q)]
        cand = cand[np.argsort(-viol[cand], kind="stable")][: self.max_iterations - self.iterations]
        own = self.hi[cand] - self.x[cand] if sigma > 0 else self.x[cand] - self.lo[cand]
        with np.errstate(invalid="ignore"):  # inf - inf, past an infinite step that cuts
            fits = own < np.subtract.accumulate(np.concatenate(([slack], own)))[:-1]
        k = len(cand) if fits.all() else int(np.argmin(fits))
        for i, step in enumerate(own[:k].tolist()):
            self._count(step)
            if self.bland:
                k = i + 1
                break
        cols, steps = cand[:k], own[:k]
        if not k:
            return cols
        nz = np.flatnonzero(w)
        rows = self.basis[nz]
        moves = np.multiply.outer(sigma * steps[steps > 0.0], w[nz])
        # subtracted one step after another, as single flips round them
        self.x[rows] = np.subtract.accumulate(np.vstack([self.x[rows], moves]))[-1]
        self.x[cols] = self.hi[cols] if sigma > 0 else self.lo[cols]
        self.status[cols] = _AT_UPPER if sigma > 0 else _AT_LOWER
        self.batched += k
        return cols

    def _count(self, step: float):
        """Count one iteration of the given step: a run of STALL_THRESHOLD
        degenerate steps switches to Bland's rule, one that moves ends it."""
        if step <= DEGENERATE_STEP:
            self.stall += 1
            if self.stall >= STALL_THRESHOLD and not self.bland:
                log.debug("stall of %d degenerate pivots; switching to Bland", self.stall)
                self.bland = True
        else:
            self.stall = 0
            self.bland = False
        self.iterations += 1

    def _loop(self, c: np.ndarray) -> SolverStatus:
        stale = True  # price once per basis: a bound flip leaves y and d as they are
        while True:
            if self.iterations >= self.max_iterations:
                return SolverStatus.ITERATION_LIMIT
            if stale:
                # etas grow only on basis changes, so this is the only place
                # the eta file can have reached its limit
                if self.factor is not None and len(self.factor.etas) >= REFACTOR_EVERY:
                    self._refactor()
                _, d = self._duals(c)
                self.pricings += 1
                can_up, eligible, viol = self._eligibility(d)
                stale = False
                if not eligible.size:
                    return SolverStatus.OPTIMAL  # no columns at all
            bland = self.bland
            q = int(np.argmax(eligible)) if bland else int(np.argmax(viol))
            if not eligible[q]:
                return SolverStatus.OPTIMAL
            sigma = 1.0 if can_up[q] else -1.0

            w = self._ftran(q)
            moved = self._move(q, sigma, w)
            if moved is None:
                return SolverStatus.UNBOUNDED
            r_pos, delta, slack = moved
            self._count(delta)
            if r_pos >= 0:
                self.factor.update(w, r_pos)
                stale = True
                continue
            flipped = np.array([q])
            if not (bland or self.bland):
                # Bland's rule picks by index, so batches run under Dantzig's
                batch = self._flip_stack(q, sigma, w, slack, can_up, eligible, viol)
                flipped = np.append(flipped, batch)
            self.flips += len(flipped)
            # only the flipped columns changed status: re-check them alone
            dq = d[flipped]
            can_up[flipped] = (sigma < 0) & (dq < -OPTIMALITY_TOL)  # now at their lower bound
            eligible[flipped] = can_up[flipped] | ((sigma > 0) & (dq > OPTIMALITY_TOL))
            viol[flipped] = np.where(eligible[flipped], np.abs(dq), 0.0)

    def restart(self, start: np.ndarray) -> bool:
        """Take the column statuses of an optimal solve of an LP with the
        same A, b and c, mapped onto this LP's bounds: a nonbasic column whose
        bounds are now equal is fixed, one at an infinite upper bound moves
        to its lower bound (to zero if it has none), and the artificials are
        held at zero as in phase 2.  Refactors and prices once; False (the state is then spent) when
        the basis is singular or not dual feasible."""
        start = np.asarray(start)
        N = self.n + self.m
        if start.shape != (N,) or np.count_nonzero(start == _BASIC) != self.m:
            raise ValueError(f"start basis does not fit an LP with {self.m} rows and {self.n} columns")
        self.hi[self.n:] = 0.0
        lo, hi = self.lo, self.hi
        rest = _resting(lo, hi)
        up = (start == _AT_UPPER) & (rest != _FIXED) & np.isfinite(hi)
        self.status = np.where(start == _BASIC, _BASIC, np.where(up, _AT_UPPER, rest)).astype(np.int8)
        self.basis = np.flatnonzero(self.status == _BASIC)
        self.x = np.where(self.status == _AT_UPPER, hi, 0.0)  # a lower bound is 0 or -inf
        try:
            self._refactor()
        except _SingularBasis:
            return False
        _, self.d = self._duals(self.c2)
        self.pricings += 1
        _, eligible, _ = self._eligibility(self.d)
        self.warm = not eligible.any()
        return self.warm

    def _dual_loop(self) -> SolverStatus | None:
        """Bounded dual simplex from the dual feasible basis of `restart`.
        Each pivot moves the basic value farthest outside its bounds onto
        that bound; the entering column keeps every reduced cost on its
        bound's side (the dual ratio test over row r of B⁻¹W).  None once
        every basic value is within its bounds."""
        d = self.d
        while self.m:
            xb = self.x[self.basis]
            below = self.lo[self.basis] - xb
            above = xb - self.hi[self.basis]
            r = int(np.argmax(np.maximum(below, above)))
            to_lower = below[r] > above[r]
            if max(below[r], above[r]) <= FEASIBILITY_TOL:
                return None
            if self.iterations >= self.max_iterations:
                return SolverStatus.ITERATION_LIMIT
            e_r = np.zeros(self.m)
            e_r[r] = 1.0
            # row r of B⁻¹W, signed so that alpha_j > 0 where raising x_j
            # moves x_B[r] toward its violated bound; a dual step of t >= 0
            # takes the reduced costs to d - t*alpha
            alpha = self.WT @ self.factor.solve_t(e_r)
            if to_lower:
                alpha = -alpha
            st = self.status
            inc = ((st == _AT_LOWER) | (st == _FREE)) & (alpha > PIVOT_TOLERANCE)
            dec = ((st == _AT_UPPER) | (st == _FREE)) & (alpha < -PIVOT_TOLERANCE)
            cand = np.flatnonzero(inc | dec)
            if not cand.size:
                return SolverStatus.INFEASIBLE  # the dual is unbounded along row r
            a = alpha[cand]
            ratio = np.maximum(d[cand] * np.sign(a), 0.0) / np.abs(a)
            # among the ties take the largest pivot, then the lowest index
            window = ratio.min() * (1.0 + TIE_TOL) + TIE_TOL
            k = int(np.argmax(np.where(ratio <= window, np.abs(a), 0.0)))
            q, t = int(cand[k]), float(ratio[k])

            w = self._ftran(q)
            leaving = self.basis[r]
            bound = self.lo[leaving] if to_lower else self.hi[leaving]
            step = (self.x[leaving] - bound) / w[r]
            nz = np.flatnonzero(w)
            self.w_nnz += len(nz)
            self.x[self.basis[nz]] -= step * w[nz]
            self.x[q] += step
            self.x[leaving] = bound
            self.status[leaving] = _AT_LOWER if to_lower else _AT_UPPER
            self.basis[r] = q
            self.status[q] = _BASIC
            d -= t * alpha  # the leaving column's reduced cost becomes -/+t
            d[q] = 0.0
            self.factor.update(w, r)
            self.dual_pivots += 1
            self.iterations += 1
            if len(self.factor.etas) >= REFACTOR_EVERY:
                self._refactor()
                _, d = self._duals(self.c2)
                self.pricings += 1
        return None

    def _crash(self):
        """The cold start of an LP with b = 0: the triangular crash over the
        structural columns whose bounds differ, the least internal cost
        first.  A row it does not cover keeps its artificial, the others'
        are fixed at zero.  Every column rests at zero, so the basis is
        feasible."""
        cand = np.flatnonzero(self.lo[: self.n] != self.hi[: self.n])
        A = self.W[:, cand]
        A.eliminate_zeros()
        rank = np.empty(len(cand), dtype=np.intp)
        rank[np.argsort(self.c2[cand], kind="stable")] = np.arange(len(cand))
        taken, covered = _triangular(A, rank)
        self.status[cand[taken]] = _BASIC
        self.status[self.n:][covered] = _FIXED
        self.basis = np.flatnonzero(self.status == _BASIC)
        self.crashed = len(taken)

    def _least_prices(self, y: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The least prices: the duals of the face LP's optimum, reached by
        the dual loop from the optimal basis in hand with its duals y and
        reduced costs d, which it returns unchanged when that basis is
        already optimal there.  The cleared x is kept, and a column that
        left the basis rests at the bound it sits on.  A face LP that ends
        other than optimal leaves the state and y and d as they came."""
        x, lo, hi, b = self.x, self.lo, self.hi, self.b
        status, basis = self.status.copy(), self.basis.copy()
        fixed = lo == hi
        basic = status == _BASIC
        # a basic value at a bound, within the tolerance on the activity
        # |a_j| (x_j - bound) that it adds to the rows, so a column scaling
        # does not move it off or onto the bound, and within the tolerance
        # on its own range, so a change of unit does not either
        size = abs(self.W).max(axis=0).toarray().ravel()
        near = FEASIBILITY_TOL / np.where(size > 0.0, size, 1.0)
        near = np.minimum(near, FEASIBILITY_TOL * (hi - lo))
        at_lo = np.where(basic, np.abs(x - lo) <= near, status == _AT_LOWER) & ~fixed
        at_hi = np.where(basic, np.abs(hi - x) <= near, status == _AT_UPPER) & ~fixed & ~at_lo
        self.lo = np.where(at_lo | fixed, 0.0, -np.inf)
        self.hi = np.where(at_hi | fixed, 0.0, np.inf)
        self.status[fixed & ~basic] = _FIXED
        self.b = np.full(self.m, -1.0)
        self.x = np.zeros_like(x)
        self.x[self.basis] = self.factor.lu.solve(self.b)  # the factor has no etas
        self.d = d.copy()
        pivots = self.dual_pivots
        try:
            st = self._dual_loop()
            if st is None and self.dual_pivots > pivots:
                self._refactor()  # on the face LP, whose x is dropped below
        except _SingularBasis:
            st = SolverStatus.SINGULAR_BASIS
        self.face_pivots = self.dual_pivots - pivots
        self.dual_pivots = pivots
        self.lo, self.hi, self.b, self.x = lo, hi, b, x
        if st is not None or not self.face_pivots:
            self.face_skipped = st is not None
            self.status, self.basis = status, basis
            return y, d
        left = basic & (self.status != _BASIC)
        up = (self.status == _AT_UPPER) & ~fixed
        self.status[left] = np.where(up, _AT_UPPER, _resting(lo, hi))[left]
        return self._duals(self.c2)

    def run(self) -> tuple[SolverStatus, np.ndarray, np.ndarray]:
        if self.warm:
            st = self._dual_loop()
            if st is not None:
                return st, np.zeros(0), self.c2.copy()
        elif self.m and np.abs(self.b).max() > 0:
            self._refactor()
            st = self._loop(self.c1)
            if st is not SolverStatus.OPTIMAL:
                if st is SolverStatus.UNBOUNDED:
                    # the phase-1 objective is bounded below by 0, so a ray
                    # means every pivot entry fell under PIVOT_TOLERANCE
                    st = SolverStatus.SINGULAR_BASIS
                return st, np.zeros(0), self.c2.copy()
            infeas = total(self.c1 * self.x)
            if infeas > FEASIBILITY_TOL * (1.0 + total(np.abs(self.b))):
                return SolverStatus.INFEASIBLE, np.zeros(0), self.c2.copy()
            self.hi[self.n:] = 0.0
            nonbasic_art = np.setdiff1d(np.arange(self.n, self.n + self.m), self.basis)
            self.status[nonbasic_art] = _FIXED
            self.x[nonbasic_art] = 0.0
        elif self.m:
            self._crash()
            self._refactor()
        st = self._loop(self.c2)
        self._refactor()
        y, d = self._duals(self.c2)
        if st is SolverStatus.OPTIMAL and self.m:
            y, d = self._least_prices(y, d)
        return st, y, d


def _run(sx: _Simplex) -> tuple[SolverStatus, np.ndarray, np.ndarray]:
    try:
        return sx.run()
    except _SingularBasis:
        # pivots that pass the absolute tolerance on a badly scaled LP can
        # leave a basis that refactors as exactly singular
        return SolverStatus.SINGULAR_BASIS, np.zeros(0), sx.c2.copy()


def solve(
    lp: LinearProgram, start: np.ndarray | None = None, *, max_iterations: int | None = None
) -> SolverResult:
    """Solve an LP; mathematical outcomes come back as status codes, never
    exceptions.  `max_iterations` caps the iterations (None: 50 per row and
    column); a negative cap raises ValueError.

    `start` is the `basis` of an optimal result for an LP with the same A, b
    and c whose bounds may differ, or one rebuilt by `basis_from_point`.
    When it is dual feasible here, a bounded dual simplex repairs its primal
    feasibility before the primal loop runs; otherwise, and when the warm
    solve ends infeasible or singular, the solve starts cold and returns
    exactly what a solve without `start` returns."""
    if max_iterations is not None and max_iterations < 0:
        raise ValueError(f"max_iterations must not be negative, got {max_iterations}")
    sx = _Simplex(lp, max_iterations)
    status = None
    if start is not None and sx.restart(start):
        status, y, d = _run(sx)
        # a start is only a hint: a failure reached from it is confirmed cold
        if status in (SolverStatus.INFEASIBLE, SolverStatus.SINGULAR_BASIS):
            status = None
    if status is None:
        if start is not None:
            sx = _Simplex(lp, max_iterations)
        status, y, d = _run(sx)
    x = sx.x[: sx.n].copy()
    if status in (SolverStatus.INFEASIBLE, SolverStatus.SINGULAR_BASIS):
        x = np.full(sx.n, np.nan)
    objective = total(sx.c_orig * x) if status is SolverStatus.OPTIMAL else np.nan
    reduced = sx.sense_mult * d[: sx.n]
    if y.size != lp.n_rows:
        y = np.full(lp.n_rows, np.nan)
        reduced = np.full(lp.n_cols, np.nan)
    log.debug(
        "solve: status=%s iters=%d warm=%d dual_pivots=%d flips=%d pricings=%d obj=%s "
        "refactors=%d lu_nnz=%d w_nnz=%d batched=%d crash=%d face_pivots=%d%s",
        status.value, sx.iterations, sx.warm, sx.dual_pivots, sx.flips, sx.pricings, objective,
        sx.refactors, sx.lu_nnz, sx.w_nnz, sx.batched, sx.crashed, sx.face_pivots,
        " face=skipped" if sx.face_skipped else "",
    )
    return SolverResult(
        status=status,
        x=x,
        y=y,
        reduced_costs=np.asarray(reduced, dtype=float),
        objective=objective,
        iterations=sx.iterations,
        basis=sx.status.copy() if status is SolverStatus.OPTIMAL else None,
    )


def basis_from_point(lp: LinearProgram, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A start basis for `solve` rebuilt from an optimal pair (x, y) of `lp`
    that came without one, such as a solution read back from files.

    A crossover (Megiddo, "On finding primal- and dual-optimal bases", ORSA
    JOC 1991) by the triangular crash of `_triangular` over the columns that
    y prices at a zero reduced cost and those strictly between their bounds.
    Interior columns go first, then the other structural ones, then the
    artificial of a row priced at zero; each row left over gets its
    artificial too.  Every other column rests at the bound the sign of its
    reduced cost asks for.  The basis is only a hint, which `solve` checks
    like any start."""
    tol = FEASIBILITY_TOL
    n, m = lp.n_cols, lp.n_rows
    c = -lp.c if lp.sense == "max" else lp.c  # the internal minimization
    d = c - lp.A.T @ y
    margin = tol * (1.0 + np.abs(x))
    interior = (x - lp.lower > margin) & (lp.upper - x > margin)
    # crash rank of each column, structural then artificial: 0 interior,
    # 1 other structural, 2 artificial, 3 not a candidate
    rank = np.concatenate([
        np.where(interior, 0, np.where(np.abs(d) <= tol * (1.0 + np.abs(c)), 1, 3)),
        np.where(np.abs(y) <= tol, 2, 3),
    ])
    cand = np.flatnonzero(rank < 3)
    W = sp.hstack([lp.A, sp.identity(m)], format="csc")[:, cand]
    W.sum_duplicates()
    W.eliminate_zeros()
    taken, covered = _triangular(W, rank[cand])
    status = np.full(n + m, _AT_LOWER, dtype=np.int8)
    status[:n][(d < 0) & np.isfinite(lp.upper)] = _AT_UPPER
    status[cand[taken]] = _BASIC
    status[n:][~covered] = _BASIC
    return status


def verify_kkt(lp: LinearProgram, result: SolverResult) -> KktReport:
    """Independent optimality check from (x, y) alone.

    Recomputes reduced costs from scratch, derives bound multipliers from
    their sign parts, and reports the worst primal residual, dual-sign
    violation, complementary-slackness products, and duality gap, each
    gated at FEASIBILITY_TOL relative to its scale.
    """
    if result.status is not SolverStatus.OPTIMAL:
        raise NotOptimal(f"verify_kkt requires an optimal result, got {result.status}")
    x = np.asarray(result.x, dtype=float)
    y = np.asarray(result.y, dtype=float)
    c_int = -lp.c if lp.sense == "max" else lp.c

    primal = float(np.max(np.abs(lp.A @ x - lp.b), initial=0.0))
    lo, hi = lp.lower, lp.upper
    bound = float(np.max(np.maximum(np.maximum(lo - x, x - hi), 0.0), initial=0.0))

    d = c_int - lp.A.T @ y
    mu = np.maximum(d, 0.0)  # multiplier for x >= lo
    nu = np.maximum(-d, 0.0)  # multiplier for x <= hi

    fin_lo = np.isfinite(lo)
    fin_hi = np.isfinite(hi)
    # a bound multiplier charged to an infinite bound is a dual violation
    dual = 0.0
    if np.any(~fin_lo):
        dual = max(dual, float(mu[~fin_lo].max(initial=0.0)))
    if np.any(~fin_hi):
        dual = max(dual, float(nu[~fin_hi].max(initial=0.0)))
    cs_lower = float(np.max(np.abs((x - lo)[fin_lo] * mu[fin_lo]), initial=0.0))
    cs_upper = float(np.max(np.abs((hi - x)[fin_hi] * nu[fin_hi]), initial=0.0))

    obj_int = total(c_int * x)
    dual_obj = total(lp.b * y) + total(lo[fin_lo] * mu[fin_lo]) - total(hi[fin_hi] * nu[fin_hi])
    gap = abs(obj_int - dual_obj)

    xs = float(np.max(np.abs(x), initial=0.0))
    money = 1.0 + abs(obj_int)
    tol = FEASIBILITY_TOL
    passed = (
        primal <= tol * (1.0 + float(np.max(np.abs(lp.b), initial=0.0)) + xs)
        and bound <= tol * (1.0 + xs)
        and dual <= tol * (1.0 + float(np.max(np.abs(c_int), initial=0.0)))
        and cs_lower <= tol * money
        and cs_upper <= tol * money
        and gap <= tol * money
    )
    return KktReport(primal, bound, dual, cs_lower, cs_upper, gap, passed)
