"""Self-contained two-phase revised simplex for standard-form programs.

Programs are stated as minimize c'x subject to A x = b with every variable
nonnegative.  The caller brings inequalities to this form with explicit
slack variables, and states a free quantity as the difference of two
nonnegative variables.

After the row flips that make b nonnegative, the solver keeps the inverse
B^-1 (m x m) of a basis of [A | I], the variables followed by one
artificial per row, and the basic values x_B.  Each pivot prices y = c_B
B^-1 and the reduced costs d = c - y [A | I] afresh from the costs, forms
the entering column B^-1 a_j, and updates B^-1 and x_B by one rank-one
step, after which x_B is clamped at zero, so a tie taken within tolerance
cannot leave a basic variable at -1e-11.  The row duals are c_B B^-1 with
the row flips undone.

Pivoting uses Dantzig's entering rule (most negative reduced cost, lowest
index on ties) and the lexicographic ratio test (Dantzig, Orden and Wolfe
1955): a tie goes to the lexicographically smallest tied row of B^-1
divided by the pivot column, the lowest row among equal ones, comparing
only the columns in which the tied rows differ.  In exact arithmetic,
from B_0 = I and b >= 0, the rows of [x_B | B^-1] stay lexicographically
positive and (-c_B x_B, -y) rises at every pivot, so no basis repeats.
The code passes over tied pivots below 1e-6 of the largest tie, which tie
only through roundoff, and that breaks the argument: at a degenerate
vertex every row with x_B = 0 and a positive entry ties exactly, so the
filter can skip the lexicographic minimum, and a basis may then repeat.
What the code guarantees is that a tie whose pivots all lie within 1e-6
of the largest is broken by the lexicographic rule on B^-1 as computed,
that a solve raises IterationLimit after max_iter pivots instead of
looping, and that every optimal answer passes the checks below.

Phase 1 starts every row from its artificial, except a row that holds
both a +e_i and a -e_i column, such as a gap row <f, x> - d+ + d- = t: it
starts from its lowest +e_i column, whose value b_i is feasible.  That
column equals the row's artificial, so B_0 is still I.  Artificials left
basic at level zero after phase 1 are driven out on a usable entry of
their row of B^-1 A, and phase 2 bars them from entering.

The updates are never refactorized, so they can leave roundoff in B^-1
and x_B.  After phase 2 one matvec checks A x = b.  Only on a miss above
FEAS_TOL is the final basis factored afresh, by _factor; a singular
final basis or a basic value below -FEAS_TOL then raises
InaccurateSolution, the others are clamped at zero.

Every optimal LpSolution carries a private record, kept, of its final
basis: lp's A and c arrays, the row flips, the columns and B^-1.  The
reduced costs depend on A, c, the row flips and the basis, but not on b,
so the basis stays optimal at another right-hand side as long as its
basic values stay feasible.  _solve_warm(lp, kept), the one warm start,
accepts kept only if lp has the very same A and c arrays and the same
row flips.  It then reads x_B = B^-1 b and keeps the basis, with no
pivot, when x_B >= -FEAS_TOL on the variables, |x_B| <= FEAS_TOL on
basic artificials and A x = b within FEAS_TOL: x is primal feasible, y
is the dual the solve that made kept ended optimal with, and the two are
complementary, so both are optimal.  Otherwise it returns None and the
caller solves cold; the simplex never pivots from a kept basis, as the
lexicographic argument above starts from B_0 = I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearProgram",
    "LpSolution",
    "IterationLimit",
    "InaccurateSolution",
    "solve",
    "kkt_residuals",
]

PIVOT_TOL = 1e-9
# Largest phase-1 artificial mass still read as feasible, and the reduced
# cost a column must undercut to enter the basis.
FEAS_TOL = 1e-9
OPT_TOL = 1e-9


class IterationLimit(RuntimeError):
    """Raised when the pivot budget runs out; not expected on well-posed input."""


class InaccurateSolution(RuntimeError):
    """Raised when an "optimal" answer misses its own constraints by more
    than roundoff, so it cannot be handed on as a solution."""


@dataclass
class LinearProgram:
    """minimize c'x  s.t.  A x = b,  x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError(
                f"inconsistent shapes: A is {m}x{n}, c has {self.c.shape}, b has {self.b.shape}"
            )
        if not (
            np.all(np.isfinite(self.c))
            and np.all(np.isfinite(self.A))
            and np.all(np.isfinite(self.b))
        ):
            raise ValueError("LP data must be finite")

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_vars(self) -> int:
        return self.A.shape[1]

    @property
    def free(self) -> np.ndarray:
        """All False: no variable is free.  Kept only because
        perfbench/tracer.py counts columns as n_vars + free.sum()."""
        return np.zeros(self.n_vars, dtype=bool)


@dataclass(frozen=True)
class _Kept:
    """The final basis of an optimal solve: the A and c arrays of its
    program, the row signs of the right-hand side it was optimal at, its
    columns and their B^-1."""

    A: np.ndarray
    c: np.ndarray
    flip: np.ndarray
    cols: np.ndarray
    Binv: np.ndarray


@dataclass
class LpSolution:
    """Solver outcome: status is "optimal", "infeasible" or "unbounded".

    x and y (row duals, so b'y equals the objective at optimality) are None
    unless optimal.
    iterations counts every pivot; phase1_iterations those of phase 1 and
    the drive-out of artificials.
    basis holds the final basic columns, one per row, indexed over the
    variables, then the artificials; it too is None unless optimal.
    kept, None unless optimal, is the record of that basis that
    _solve_warm reads (see the module docstring).
    """

    status: str
    objective: float | None
    x: np.ndarray | None
    y: np.ndarray | None
    iterations: int
    phase1_objective: float = 0.0
    phase1_iterations: int = 0
    basis: np.ndarray | None = None
    kept: _Kept | None = field(default=None, repr=False, compare=False)


def solve(lp: LinearProgram, max_iter: int | None = None) -> LpSolution:
    """Run two-phase revised simplex on a standard-form program, breaking
    ratio-test ties lexicographically."""
    m, N = lp.n_rows, lp.n_vars
    flip, A_ext, b, phase2_cost = _extend(lp)
    A = A_ext[:, :N]

    # A row holding a +e_i, -e_i pair starts on its lowest +e_i column,
    # not its artificial; B_0 stays I (see the module docstring).
    basis = np.arange(N, N + m)
    units = np.flatnonzero(np.count_nonzero(A, axis=0) == 1)
    if units.size:
        rows = np.argmax(A[:, units] != 0.0, axis=0)
        vals = A[rows, units]
        lowest = np.full(m, N)  # N: the row has no +e_i column
        np.minimum.at(lowest, rows[vals == 1.0], units[vals == 1.0])
        minus = np.zeros(m, dtype=bool)
        minus[rows[vals == -1.0]] = True
        crash = minus & (lowest < N)
        basis[crash] = lowest[crash]
    # x_B and B^-1 are views of one array, so one update moves both.
    xB_Binv = np.hstack([b[:, None], np.eye(m)])
    x_B, Binv = xB_Binv[:, 0], xB_Binv[:, 1:]
    iterations = 0
    if max_iter is None:
        max_iter = 2000 + 200 * m + 20 * N

    def pivot(i: int, j: int, col: np.ndarray) -> None:
        """Bring column j, whose B^-1 a_j is col, into the basis at row i."""
        xB_Binv[i] /= col[i]
        col[i] = 0.0
        xB_Binv[...] -= np.multiply.outer(col, xB_Binv[i])
        np.maximum(x_B, 0.0, out=x_B)
        basis[i] = j

    def run_phase(cost: np.ndarray, allowed: np.ndarray) -> str:
        nonlocal iterations
        while True:
            reduced = np.where(allowed, cost - (cost[basis] @ Binv) @ A_ext, np.inf)
            if not reduced.min(initial=0.0) < -OPT_TOL:
                return "optimal"
            j = int(np.argmin(reduced))
            col = Binv @ A_ext[:, j]
            eligible = col > PIVOT_TOL
            if not eligible.any():
                return "unbounded"
            ratios = np.where(eligible, x_B / np.where(eligible, col, 1.0), np.inf)
            rmin = ratios.min()
            tied = np.flatnonzero(ratios <= rmin + 1e-12 + 1e-9 * abs(rmin))
            if tied.size == 1:
                i = int(tied[0])
            else:
                i = _lex_min_row(Binv, tied, col)
            pivot(i, j, col)
            iterations += 1
            if iterations > max_iter:
                raise IterationLimit(
                    f"simplex exceeded {max_iter} pivots on a {m}x{N} program"
                )

    # Phase 1: minimize the artificial mass.
    phase1_cost = np.concatenate([np.zeros(N), np.ones(m)])
    if run_phase(phase1_cost, np.ones(N + m, dtype=bool)) != "optimal":
        # cannot happen: phase 1 is bounded below by zero
        raise RuntimeError("phase 1 reported unbounded")
    phase1_obj = float(phase1_cost[basis] @ x_B)
    phase1_iterations = iterations
    if phase1_obj > FEAS_TOL:
        status = "infeasible"
    else:
        # Drive artificials out of the basis where a usable pivot
        # exists, on row i of B^-1 A; rows that offer none (a program
        # with no columns offers none) are redundant and keep a
        # zero-level artificial.
        for i in range(m):
            if basis[i] >= N:
                entries = np.abs(Binv[i] @ A)
                if entries.max(initial=0.0) > 1e-8:
                    j = int(np.argmax(entries))
                    pivot(i, j, Binv @ A[:, j])
                    iterations += 1
        phase1_iterations = iterations
        # Phase 2 on the true objective, artificials barred from entering.
        allowed = np.concatenate([np.ones(N, dtype=bool), np.zeros(m, dtype=bool)])
        status = run_phase(phase2_cost, allowed)
    if status != "optimal":
        return LpSolution(
            status=status,
            objective=None,
            x=None,
            y=None,
            iterations=iterations,
            phase1_objective=phase1_obj,
            phase1_iterations=phase1_iterations,
        )

    # Updates accumulate roundoff in B^-1 and x_B.  One matvec checks
    # A x = b; only on a miss is the final basis factored afresh.
    if _equality_miss(A_ext, b, N, basis, x_B) > FEAS_TOL:
        try:
            Binv, x_B = _factor(A_ext, b, basis)
        except np.linalg.LinAlgError as exc:
            # LinAlgError is a ValueError, which the CLI reads as bad input
            raise InaccurateSolution(f"final basis cannot be re-read: {exc}") from None
        worst = float(x_B.min(initial=0.0))
        if worst < -FEAS_TOL:
            raise InaccurateSolution(
                f"final basis is not primal feasible: basic value {worst:.3g}"
            )
        np.maximum(x_B, 0.0, out=x_B)
    kept = _Kept(lp.A, lp.c, flip, basis, Binv)
    return _optimal(lp, kept, phase2_cost, x_B, iterations, phase1_obj, phase1_iterations)


def _extend(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(flip, A_ext, b, cost): the row signs that make lp's right-hand side
    nonnegative, [A | I] with those rows flipped (the variables, then one
    artificial per row), the flipped right-hand side, and lp's costs with a
    zero per artificial."""
    m = lp.n_rows
    flip = np.where(lp.b < 0.0, -1.0, 1.0)
    A_ext = np.hstack([lp.A * flip[:, None], np.eye(m)])
    return flip, A_ext, lp.b * flip, np.concatenate([lp.c, np.zeros(m)])


def _optimal(
    lp: LinearProgram,
    kept: _Kept,
    cost: np.ndarray,
    x_B: np.ndarray,
    iterations: int = 0,
    phase1_objective: float = 0.0,
    phase1_iterations: int = 0,
) -> LpSolution:
    """The optimal LpSolution of the basic values x_B on kept's basis,
    priced with cost; the row duals undo kept's row flips."""
    x_ext = np.zeros(lp.n_vars + lp.n_rows)
    x_ext[kept.cols] = x_B
    x = x_ext[: lp.n_vars]
    return LpSolution(
        status="optimal",
        objective=float(lp.c @ x),
        x=x,
        y=(cost[kept.cols] @ kept.Binv) * kept.flip,
        iterations=iterations,
        phase1_objective=phase1_objective,
        phase1_iterations=phase1_iterations,
        basis=kept.cols.copy(),
        kept=kept,
    )


def _solve_warm(lp: LinearProgram, kept: _Kept | None) -> LpSolution | None:
    """lp's optimal solution on the basis kept records, with no pivot, if
    it passes the warm-start checks of the module docstring; None if it
    does not.  The caller must not change A or c in place between the
    solve that made kept and this one."""
    if kept is None or kept.A is not lp.A or kept.c is not lp.c:
        return None
    flip, A_ext, b, cost = _extend(lp)
    if not np.array_equal(kept.flip, flip):
        return None
    x_B = kept.Binv @ b
    art = kept.cols >= lp.n_vars
    if x_B[~art].min(initial=0.0) < -FEAS_TOL or np.abs(x_B[art]).max(initial=0.0) > FEAS_TOL:
        return None
    if _equality_miss(A_ext, b, lp.n_vars, kept.cols, x_B) > FEAS_TOL:
        return None
    return _optimal(lp, kept, cost, np.maximum(x_B, 0.0))


def _factor(A_ext: np.ndarray, b: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B^-1 and the basic values B^-1 b of the basis on the columns cols of
    A_ext; a singular basis raises np.linalg.LinAlgError."""
    Binv = np.linalg.inv(A_ext[:, cols])
    return Binv, Binv @ b


def _equality_miss(A_ext: np.ndarray, b: np.ndarray, N: int, cols: np.ndarray, x_B) -> float:
    """Largest |A x - b| of the basic solution x_B on cols, artificials left out."""
    keep = cols < N
    return float(np.abs(A_ext[:, cols[keep]] @ x_B[keep] - b).max(initial=0.0))


def _lex_min_row(Binv: np.ndarray, tied: np.ndarray, colvals: np.ndarray) -> int:
    """The tied row whose B^-1 row over its pivot is lexicographically
    smallest, the lowest such row if several are equal; tied pivots below
    1e-6 of the largest are passed over.

    The rows are compared as Python lists over only the columns in which
    they differ.  List comparison is lexicographic and min keeps the first
    of equal rows, so this picks the row a full np.lexsort would.
    """
    piv = colvals[tied]
    keep = piv >= 1e-6 * piv.max()
    tied = tied[keep]
    R = Binv[tied] / piv[keep, None]
    rows = R[:, (R != R[0]).any(axis=0)].tolist()
    return int(tied[min(range(len(rows)), key=rows.__getitem__)])


def kkt_residuals(lp: LinearProgram, sol: LpSolution) -> dict[str, float]:
    """Optimality residuals of an optimal solution.

    Keys: primal (equality and sign violations of x), dual (sign violations
    of the reduced costs c - A'y), slack (complementary slackness) and gap
    (objective mismatch c'x vs b'y).  All should sit at roundoff level for a
    correct optimal pair.
    """
    if sol.status != "optimal":
        raise ValueError("kkt_residuals needs an optimal solution")
    x, y = sol.x, sol.y
    r_eq = float(np.max(np.abs(lp.A @ x - lp.b))) if lp.n_rows else 0.0
    r_sign = max(0.0, -float(x.min(initial=0.0)))
    rc = lp.c - lp.A.T @ y
    r_dual = max(0.0, -float(rc.min(initial=0.0)))
    r_slack = float(np.max(np.abs(x * rc))) if x.size else 0.0
    r_gap = float(abs(lp.c @ x - lp.b @ y))
    return {
        "primal": max(r_eq, r_sign),
        "dual": r_dual,
        "slack": r_slack,
        "gap": r_gap,
    }
