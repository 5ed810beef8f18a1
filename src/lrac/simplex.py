"""Self-contained two-phase primal simplex for standard-form programs.

Programs are stated as minimize c'x subject to A x = b with every variable
nonnegative unless flagged free; free variables are split into positive and
negative parts internally.  Inequalities must be brought to this form by
the caller with explicit slack variables.

Pivoting uses Dantzig's entering rule (most negative reduced cost, lowest
index on ties) and the lexicographic ratio test (Dantzig, Orden and Wolfe
1955).  From the first pivot on, ties in the ratio test are broken by the
lexicographically smallest tied row of B^-1 divided by the pivot column,
B^-1 being the artificial block of the tableau, and by the lowest row
among equal ones; only the columns in which the tied rows differ are
compared.  The rows of [b | B^-1] start lexicographically positive, as
B_0 = I and b >= 0, and in exact arithmetic each pivot keeps them so.  Each
pivot then adds a positive multiple of one such row to the objective row's
entries over [b | B^-1], so those entries, led by the negated objective,
rise lexicographically: no basis repeats within a phase and the simplex
cannot cycle, however degenerate the program.  max_iter stays as a guard
against roundoff.  Tied pivots below 1e-6 of the largest tie only through
roundoff and are passed over.  After each pivot the right-hand side is
clamped at zero, so a tie taken within tolerance cannot leave a basic
variable at -1e-11.  Artificial columns stay in the tableau through phase
two, blocked from entering; their reduced costs there are the negated row
duals, which is how the dual vector is reported.

Phase 1 starts every row from its artificial, except a row that holds
both a +e_i and a -e_i column, such as a gap row <f, x> - d+ + d- = t:
after the row flip that makes b nonnegative, it starts from its lowest
+e_i column, whose value b_i is feasible.  That column equals the row's
artificial, so the first basis is still I and the artificial block of
the tableau still holds B^-1.

The tableau is never refactorized, so pivots can leave roundoff in it.
After phase 2 one matvec checks A x = b.  Only on a miss above FEAS_TOL
are the basic values re-read from the final basis's columns by one linear
solve; a singular final basis or a basic value below -FEAS_TOL then
raises InaccurateSolution, the others are clamped at zero, and the row
duals stay the tableau's.
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


def solve(lp: LinearProgram, max_iter: int | None = None) -> LpSolution:
    """Run two-phase primal simplex on a standard-form program, breaking
    ratio-test ties lexicographically."""
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

    # Flip rows so the right-hand side is nonnegative.
    flip = np.where(lp.b < 0.0, -1.0, 1.0)
    A = (lp.A * flip[:, None])[:, col_orig] * col_sign
    b = lp.b * flip
    c = lp.c[col_orig] * col_sign

    # Tableau rows 0..m-1 are constraints, row m is the objective row;
    # columns are split variables, then artificials, then the rhs.
    Tb = np.zeros((m + 1, N + m + 1))
    Tb[:m, :N] = A
    Tb[:m, N : N + m] = np.eye(m)
    Tb[:m, -1] = b

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
    iterations = 0
    if max_iter is None:
        max_iter = 2000 + 200 * m + 20 * N

    def install_objective(cost: np.ndarray) -> None:
        cb = cost[basis]
        Tb[m, : N + m] = cost - cb @ Tb[:m, : N + m]
        Tb[m, -1] = -(cb @ Tb[:m, -1])

    # The rank-one update is written into one scratch tableau per solve,
    # not into a fresh tableau-sized temporary per pivot.
    update = np.empty_like(Tb)

    def pivot(i: int, j: int) -> None:
        Tb[i] /= Tb[i, j]
        col = Tb[:, j].copy()
        col[i] = 0.0
        np.multiply.outer(col, Tb[i], out=update)
        Tb[...] -= update
        basis[i] = j
        np.maximum(Tb[:m, -1], 0.0, out=Tb[:m, -1])

    def run_phase(allowed: np.ndarray) -> str:
        nonlocal iterations
        while True:
            zrow = Tb[m, : N + m]
            candidates = allowed & (zrow < -OPT_TOL)
            if not candidates.any():
                return "optimal"
            j = int(np.argmin(np.where(candidates, zrow, np.inf)))
            colvals = Tb[:m, j]
            eligible = colvals > PIVOT_TOL
            if not eligible.any():
                return "unbounded"
            ratios = np.where(eligible, Tb[:m, -1] / np.where(eligible, colvals, 1.0), np.inf)
            rmin = ratios.min()
            tied = np.flatnonzero(ratios <= rmin + 1e-12 + 1e-9 * abs(rmin))
            if tied.size == 1:
                i = int(tied[0])
            else:
                i = _lex_min_row(Tb[:m, N : N + m], tied, colvals)
            pivot(i, j)
            iterations += 1
            if iterations > max_iter:
                raise IterationLimit(
                    f"simplex exceeded {max_iter} pivots on a {m}x{N} tableau"
                )

    # Phase 1: minimize the artificial mass.
    phase1_cost = np.concatenate([np.zeros(N), np.ones(m)])
    install_objective(phase1_cost)
    allowed = np.ones(N + m, dtype=bool)
    status = run_phase(allowed)
    if status != "optimal":  # cannot happen: phase 1 is bounded below by zero
        raise RuntimeError("phase 1 reported unbounded")
    phase1_obj = -Tb[m, -1]
    if phase1_obj > FEAS_TOL:
        return LpSolution(
            status="infeasible",
            objective=None,
            x=None,
            y=None,
            iterations=iterations,
            phase1_objective=phase1_obj,
            phase1_iterations=iterations,
        )

    # Drive artificials out of the basis where a usable pivot exists;
    # rows that offer none (a program with no columns offers none) are
    # redundant and keep a zero-level artificial.
    for i in range(m):
        if basis[i] >= N:
            entries = np.abs(Tb[i, :N])
            if entries.max(initial=0.0) > 1e-8:
                pivot(i, int(np.argmax(entries)))
                iterations += 1
    phase1_iterations = iterations

    # Phase 2 on the true objective, artificials barred from entering.
    phase2_cost = np.concatenate([c, np.zeros(m)])
    install_objective(phase2_cost)
    allowed = np.concatenate([np.ones(N, dtype=bool), np.zeros(m, dtype=bool)])
    status = run_phase(allowed)
    if status == "unbounded":
        return LpSolution(
            status="unbounded",
            objective=None,
            x=None,
            y=None,
            iterations=iterations,
            phase1_objective=phase1_obj,
            phase1_iterations=phase1_iterations,
        )

    # Pivots accumulate roundoff in the tableau.  One matvec checks A x = b;
    # only on a miss are the basic values re-read from the final basis.
    x_ext = np.zeros(N + m)
    x_ext[basis] = Tb[:m, -1]
    if np.max(np.abs(A @ x_ext[:N] - b), initial=0.0) > FEAS_TOL:
        try:
            x_B = np.linalg.solve(np.hstack([A, np.eye(m)])[:, basis], b)
        except np.linalg.LinAlgError as exc:
            # LinAlgError is a ValueError, which the CLI reads as bad input
            raise InaccurateSolution(f"final basis cannot be re-read: {exc}") from None
        worst = float(x_B.min(initial=0.0))
        if worst < -FEAS_TOL:
            raise InaccurateSolution(f"final basis is not primal feasible: basic value {worst:.3g}")
        x_ext[basis] = np.maximum(x_B, 0.0)
    x = np.zeros(n)
    np.add.at(x, col_orig, col_sign * x_ext[:N])
    # Artificial column i began as e_i, so its phase-2 reduced cost is
    # -y_i; undo the row flips.
    y = -Tb[m, N : N + m] * flip
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
