//! Public problem-building API.

use std::fmt;

use crate::branch;
use crate::error::SolveError;
use crate::rational::Rat;
use crate::simplex::DenseRow;

/// Identifier of a decision variable within a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `lhs ≤ rhs`
    Le,
    /// `lhs ≥ rhs`
    Ge,
    /// `lhs = rhs`
    Eq,
}

/// Effort limits for a solve (§V-E of the paper: the solver "declares the
/// problem infeasible" — here, [`Status::LimitReached`] — if it cannot finish
/// in a reasonable amount of work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum simplex pivots across the whole solve (all B&B nodes).
    pub max_pivots: u64,
    /// Maximum branch-and-bound nodes explored.
    pub max_nodes: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_pivots: 200_000,
            max_nodes: 2_000,
        }
    }
}

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Proven optimal solution found.
    Optimal,
    /// The constraint system has no (integer) solution.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Effort limits were exhausted before a proven answer was reached.
    LimitReached,
}

/// Solver-level counters from one [`Problem::solve_with_stats`] run.
///
/// The tiered solver attempts every branch-and-bound node's LP relaxation
/// on the fraction-free `i128` integer simplex first and falls back to the
/// exact-rational simplex only when the integer tableau would overflow, so
/// `int_lp_solves` counts *attempts* (including the `int_aborts` that fell
/// back) and `rational_lp_solves` counts relaxations ultimately solved by
/// the rational oracle. A solve ran entirely on the fast path iff
/// `rational_lp_solves == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound nodes whose LP relaxation was solved.
    pub nodes: u64,
    /// LP relaxations attempted on the integer fast path.
    pub int_lp_solves: u64,
    /// LP relaxations solved by the exact-rational simplex (overflow
    /// fallbacks plus forced-rational solves).
    pub rational_lp_solves: u64,
    /// Integer fast-path attempts that hit an `i128` overflow and fell
    /// back to the rational simplex for that node.
    pub int_aborts: u64,
    /// Simplex pivots consumed across the whole solve (both tiers).
    pub pivots: u64,
}

/// Result of [`Problem::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// How the solve terminated.
    pub status: Status,
    /// Variable values (empty unless `status == Optimal`).
    pub values: Vec<Rat>,
    /// Objective value (`None` unless `status == Optimal`).
    pub objective: Option<Rat>,
}

impl Solution {
    /// Returns the solution as `i64` values if every value is an integer in
    /// range, which is always the case when all variables are integer.
    pub fn int_values(&self) -> Option<Vec<i64>> {
        if self.status != Status::Optimal {
            return None;
        }
        self.values.iter().map(|v| v.to_i64()).collect()
    }
}

#[derive(Debug, Clone)]
struct Constraint {
    terms: Vec<(VarId, Rat)>,
    cmp: Cmp,
    rhs: Rat,
}

/// A linear program / integer linear program in build form.
///
/// All variables are non-negative (`x ≥ 0`), matching the TELS formulation
/// where weights and threshold of a positive-unate function are non-negative
/// (constraint (13) of the paper). The objective is always *minimized*.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    n_vars: u32,
    integer: Vec<bool>,
    constraints: Vec<Constraint>,
    objective: Vec<(VarId, Rat)>,
}

impl Problem {
    /// Creates an empty minimization problem.
    pub fn new() -> Problem {
        Problem::default()
    }

    /// Adds a continuous variable with domain `x ≥ 0`.
    pub fn add_var(&mut self) -> VarId {
        let id = VarId(self.n_vars);
        self.n_vars += 1;
        self.integer.push(false);
        id
    }

    /// Adds an integer variable with domain `x ∈ {0, 1, 2, …}`.
    pub fn add_int_var(&mut self) -> VarId {
        let id = self.add_var();
        self.integer[id.0 as usize] = true;
        id
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.n_vars as usize
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the objective to minimize. Later calls replace earlier ones.
    pub fn set_objective<I, C>(&mut self, terms: I)
    where
        I: IntoIterator<Item = (VarId, C)>,
        C: Into<Rat>,
    {
        self.objective = terms.into_iter().map(|(v, c)| (v, c.into())).collect();
    }

    /// Adds the linear constraint `Σ coeffᵢ·xᵢ (cmp) rhs`.
    pub fn add_constraint<I, C, R>(&mut self, terms: I, cmp: Cmp, rhs: R)
    where
        I: IntoIterator<Item = (VarId, C)>,
        C: Into<Rat>,
        R: Into<Rat>,
    {
        self.constraints.push(Constraint {
            terms: terms.into_iter().map(|(v, c)| (v, c.into())).collect(),
            cmp,
            rhs: rhs.into(),
        });
    }

    fn dense_rows(&self) -> Result<Vec<DenseRow>, SolveError> {
        let n = self.num_vars();
        let mut rows = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            let mut coeffs = vec![Rat::ZERO; n];
            for &(v, coef) in &c.terms {
                let idx = v.0 as usize;
                if idx >= n {
                    return Err(SolveError::UnknownVariable);
                }
                coeffs[idx] = coeffs[idx].checked_add(coef)?;
            }
            rows.push(DenseRow {
                coeffs,
                cmp: c.cmp,
                rhs: c.rhs,
            });
        }
        Ok(rows)
    }

    fn dense_objective(&self) -> Result<Vec<Rat>, SolveError> {
        let n = self.num_vars();
        let mut obj = vec![Rat::ZERO; n];
        for &(v, coef) in &self.objective {
            let idx = v.0 as usize;
            if idx >= n {
                return Err(SolveError::UnknownVariable);
            }
            obj[idx] = obj[idx].checked_add(coef)?;
        }
        Ok(obj)
    }

    /// Solves the problem.
    ///
    /// Integer variables are handled by branch-and-bound on the exact LP
    /// relaxation. If there are no integer variables this is a plain LP
    /// solve.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] on arithmetic overflow or if a constraint
    /// references a variable from a different problem.
    pub fn solve(&self, limits: &Limits) -> Result<Solution, SolveError> {
        self.solve_with_stats(limits).map(|(s, _)| s)
    }

    /// Solves the problem and reports solver-level statistics.
    ///
    /// Identical answers to [`Problem::solve`]; additionally returns the
    /// per-tier [`SolveStats`] counters (integer fast-path attempts,
    /// rational fallbacks, nodes explored).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Problem::solve`].
    pub fn solve_with_stats(&self, limits: &Limits) -> Result<(Solution, SolveStats), SolveError> {
        let rows = self.dense_rows()?;
        let obj = self.dense_objective()?;
        branch::solve_ilp(self.num_vars(), &self.integer, &rows, &obj, limits, true)
    }

    /// Solves the problem with the integer fast path disabled: every LP
    /// relaxation runs on the exact-rational simplex.
    ///
    /// This is the correctness oracle the differential tests compare the
    /// tiered solver against; it is also useful to isolate a suspected
    /// fast-path bug in the field.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Problem::solve`].
    pub fn solve_rational(&self, limits: &Limits) -> Result<(Solution, SolveStats), SolveError> {
        let rows = self.dense_rows()?;
        let obj = self.dense_objective()?;
        branch::solve_ilp(self.num_vars(), &self.integer, &rows, &obj, limits, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_lp_solve() {
        let mut p = Problem::new();
        let x = p.add_var();
        p.set_objective([(x, 1)]);
        p.add_constraint([(x, 2)], Cmp::Ge, 1);
        let s = p.solve(&Limits::default()).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.values[0], Rat::new(1, 2));
        assert_eq!(s.objective, Some(Rat::new(1, 2)));
    }

    #[test]
    fn int_values_requires_optimal() {
        let mut p = Problem::new();
        let x = p.add_var();
        p.add_constraint([(x, 1)], Cmp::Le, -1);
        let s = p.solve(&Limits::default()).unwrap();
        assert_eq!(s.status, Status::Infeasible);
        assert_eq!(s.int_values(), None);
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let mut p1 = Problem::new();
        let mut p2 = Problem::new();
        let _ = p1.add_var();
        let x2a = p2.add_var();
        let x2b = p2.add_var();
        p1.add_constraint([(x2b, 1)], Cmp::Ge, 0);
        let _ = x2a;
        assert_eq!(
            p1.solve(&Limits::default()),
            Err(SolveError::UnknownVariable)
        );
    }

    #[test]
    fn duplicate_terms_accumulate() {
        // x + x >= 3  ⇒  x >= 3/2.
        let mut p = Problem::new();
        let x = p.add_var();
        p.set_objective([(x, 1)]);
        p.add_constraint([(x, 1), (x, 1)], Cmp::Ge, 3);
        let s = p.solve(&Limits::default()).unwrap();
        assert_eq!(s.values[0], Rat::new(3, 2));
    }
}
