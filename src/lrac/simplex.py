"""Self-contained two-phase revised simplex for standard-form programs.

Programs are stated as minimize c'x subject to A x = b with every variable
nonnegative unless flagged free; free variables are split into positive and
negative parts internally.  Inequalities must be brought to this form by
the caller with explicit slack variables.

After the row flips that make b nonnegative, the solver keeps the inverse
B^-1 (m x m) of a basis of [A | I], the split variables followed by one
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
FEAS_TOL is the final basis factored afresh, by the _factor that also
serves the warm start; a singular final basis or a basic value below
-FEAS_TOL then raises InaccurateSolution, the others are clamped at zero.

solve(lp, basis=cols) offers a basis as LpSolution.basis gives it, m
distinct column indices of [A | I].  It is kept, with no pivot, only if it
factors, x_B >= -FEAS_TOL on the variables, |x_B| <= FEAS_TOL on basic
artificials, A x = b within FEAS_TOL and d >= -OPT_TOL on the variables:
then x is primal and y dual feasible with complementary slackness, so
both are optimal.  Every test reads lp's own A, b and c.  Anything else is
solved cold; the simplex never pivots from an offered basis, as the
lexicographic argument above starts from B_0 = I.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """minimize c'x  s.t.  A x = b,  x >= 0 except where free.

    free is a boolean mask (None means all nonnegative).
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    free: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError(
                f"inconsistent shapes: A is {m}x{n}, c has {self.c.shape}, b has {self.b.shape}"
            )
        if self.free is None:
            self.free = np.zeros(n, dtype=bool)
        else:
            self.free = np.asarray(self.free, dtype=bool)
            if self.free.shape != (n,):
                raise ValueError("free mask length must match variable count")
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


@dataclass
class LpSolution:
    """Solver outcome: status is "optimal", "infeasible" or "unbounded".

    x and y (row duals, so b'y equals the objective at optimality) are None
    unless optimal.
    iterations counts every pivot; phase1_iterations those of phase 1 and
    the drive-out of artificials.
    basis holds the final basic columns, one per row, indexed over the
    split variables and then the artificials; it too is None unless
    optimal.
    """

    status: str
    objective: float | None
    x: np.ndarray | None
    y: np.ndarray | None
    iterations: int
    phase1_objective: float = 0.0
    phase1_iterations: int = 0
    basis: np.ndarray | None = None


def solve(
    lp: LinearProgram, max_iter: int | None = None, basis: np.ndarray | None = None
) -> LpSolution:
    """Run two-phase revised simplex on a standard-form program, breaking
    ratio-test ties lexicographically.  An offered basis, indexed as
    LpSolution.basis is, is kept if it is optimal for lp (see the module
    docstring); otherwise lp is solved cold."""
    m, n = lp.n_rows, lp.n_vars

    # Split free variables into nonnegative parts.
    col_orig = []
    col_sign = []
    for j in range(n):
        col_orig.append(j)
        col_sign.append(1.0)
        if lp.free[j]:
            col_orig.append(j)
            col_sign.append(-1.0)
    col_orig = np.array(col_orig, dtype=int)
    col_sign = np.array(col_sign)
    N = col_orig.size

    # Flip rows so the right-hand side is nonnegative.  The columns of
    # A_ext are the split variables, then the artificials.
    flip = np.where(lp.b < 0.0, -1.0, 1.0)
    A_ext = np.hstack([(lp.A * flip[:, None])[:, col_orig] * col_sign, np.eye(m)])
    A = A_ext[:, :N]
    b = lp.b * flip
    phase2_cost = np.concatenate([lp.c[col_orig] * col_sign, np.zeros(m)])

    warm = None if basis is None else _warm_basis(A_ext, b, phase2_cost, N, basis)
    if warm is not None:
        basis, Binv, x_B = warm
        iterations = phase1_iterations = 0
        phase1_obj = 0.0
    else:
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

    x_ext = np.zeros(N + m)
    x_ext[basis] = x_B
    x = np.zeros(n)
    np.add.at(x, col_orig, col_sign * x_ext[:N])
    y = (phase2_cost[basis] @ Binv) * flip
    return LpSolution(
        status="optimal",
        objective=float(lp.c @ x),
        x=x,
        y=y,
        iterations=iterations,
        phase1_objective=phase1_obj,
        phase1_iterations=phase1_iterations,
        basis=basis.copy(),
    )


def _factor(A_ext: np.ndarray, b: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B^-1 and the basic values B^-1 b of the basis on the columns cols of
    A_ext; a singular basis raises np.linalg.LinAlgError."""
    Binv = np.linalg.inv(A_ext[:, cols])
    return Binv, Binv @ b


def _equality_miss(A_ext: np.ndarray, b: np.ndarray, N: int, cols: np.ndarray, x_B) -> float:
    """Largest |A x - b| of the basic solution x_B on cols, artificials left out."""
    keep = cols < N
    return float(np.abs(A_ext[:, cols[keep]] @ x_B[keep] - b).max(initial=0.0))


def _warm_basis(
    A_ext: np.ndarray, b: np.ndarray, cost: np.ndarray, N: int, cols
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(cols, B^-1, x_B) if the offered basis cols passes the warm-start
    checks of the module docstring, x_B clamped at zero; None if not."""
    m = b.size
    cols = np.asarray(cols)
    if (
        cols.shape != (m,)
        or cols.dtype.kind not in "iu"
        or cols.min(initial=0) < 0
        or cols.max(initial=0) >= N + m
        or len(set(cols.tolist())) < m
    ):
        return None
    try:
        Binv, x_B = _factor(A_ext, b, cols)
    except np.linalg.LinAlgError:
        return None
    art = cols >= N
    if x_B[~art].min(initial=0.0) < -FEAS_TOL or np.abs(x_B[art]).max(initial=0.0) > FEAS_TOL:
        return None
    if _equality_miss(A_ext, b, N, cols, x_B) > FEAS_TOL:
        return None
    reduced = cost[:N] - (cost[cols] @ Binv) @ A_ext[:, :N]
    if reduced.min(initial=0.0) < -OPT_TOL:
        return None
    return cols.astype(int), Binv, np.maximum(x_B, 0.0)


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

    Keys: primal (equality and sign violations), dual (sign and free-variable
    equality violations of c - A'y), slack (complementary slackness) and gap
    (objective mismatch c'x vs b'y).  All should sit at roundoff level for a
    correct optimal pair.
    """
    if sol.status != "optimal":
        raise ValueError("kkt_residuals needs an optimal solution")
    x, y = sol.x, sol.y
    r_eq = float(np.max(np.abs(lp.A @ x - lp.b))) if lp.n_rows else 0.0
    nonneg = ~lp.free
    r_sign = float(max(0.0, -np.min(x[nonneg]))) if nonneg.any() else 0.0
    rc = lp.c - lp.A.T @ y
    r_dual = 0.0
    if nonneg.any():
        r_dual = max(r_dual, float(max(0.0, -np.min(rc[nonneg]))))
    if lp.free.any():
        r_dual = max(r_dual, float(np.max(np.abs(rc[lp.free]))))
    r_slack = float(np.max(np.abs(x * rc))) if x.size else 0.0
    r_gap = float(abs(lp.c @ x - lp.b @ y))
    return {
        "primal": max(r_eq, r_sign),
        "dual": r_dual,
        "slack": r_slack,
        "gap": r_gap,
    }
