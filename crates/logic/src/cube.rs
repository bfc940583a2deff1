//! Variables, literals, and cubes (product terms).

use std::fmt;

use crate::bitset::VarSet;

/// A Boolean variable, identified by a dense index.
///
/// Within a [`Sop`](crate::Sop) attached to a network node, variable indices
/// refer to positions in the node's fanin list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Polarity of a variable within an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// Appears only uncomplemented.
    Positive,
    /// Appears only complemented.
    Negative,
    /// Appears in both phases.
    Binate,
}

/// A cube (product term): a conjunction of literals.
///
/// The empty cube is the constant-1 function. A cube never contains a
/// variable in both phases (such a product would be constant 0 and is
/// represented by *absence* from a [`Sop`](crate::Sop) instead).
///
/// # Example
///
/// ```
/// use tels_logic::{Cube, Var};
///
/// // x0·x̄2
/// let c = Cube::from_literals([(Var(0), true), (Var(2), false)]);
/// assert_eq!(c.literal_count(), 2);
/// assert!(c.eval(|v| v == Var(0)));   // x0=1, x2=0 → 1
/// assert!(!c.eval(|_| true));         // x2=1 → 0
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    pos: VarSet,
    neg: VarSet,
}

impl Cube {
    /// The universal cube (constant 1).
    pub fn one() -> Cube {
        Cube::default()
    }

    /// Builds a cube from `(variable, phase)` literals, where `true` is the
    /// positive phase.
    ///
    /// # Panics
    ///
    /// Panics if the same variable is given in both phases.
    pub fn from_literals<I: IntoIterator<Item = (Var, bool)>>(lits: I) -> Cube {
        let mut c = Cube::one();
        for (v, phase) in lits {
            assert!(
                c.set_literal(v, phase),
                "variable {v} appears in both phases"
            );
        }
        c
    }

    /// Adds literal `v`/`v̄`; returns `false` if the opposite phase is
    /// already present (which would make the cube constant 0).
    pub fn set_literal(&mut self, v: Var, phase: bool) -> bool {
        let (this, other) = if phase {
            (&mut self.pos, &mut self.neg)
        } else {
            (&mut self.neg, &mut self.pos)
        };
        if other.contains(v) {
            return false;
        }
        this.insert(v);
        true
    }

    /// The phase of `v` in this cube, if present.
    pub fn literal(&self, v: Var) -> Option<bool> {
        if self.pos.contains(v) {
            Some(true)
        } else if self.neg.contains(v) {
            Some(false)
        } else {
            None
        }
    }

    /// Variables appearing in positive phase.
    pub fn positive_vars(&self) -> &VarSet {
        &self.pos
    }

    /// Variables appearing in negative phase.
    pub fn negative_vars(&self) -> &VarSet {
        &self.neg
    }

    /// All variables in the cube's support.
    pub fn support(&self) -> VarSet {
        let mut s = self.pos.clone();
        s.union_with(&self.neg);
        s
    }

    /// Number of literals.
    pub fn literal_count(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// Whether this is the universal cube (constant 1).
    pub fn is_one(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }

    /// Iterates over `(variable, phase)` literals in ascending variable order.
    pub fn literals(&self) -> impl Iterator<Item = (Var, bool)> + '_ {
        // Merge the two ascending streams; no variable is in both.
        let mut pos = self.pos.iter().peekable();
        let mut neg = self.neg.iter().peekable();
        std::iter::from_fn(move || match (pos.peek(), neg.peek()) {
            (Some(p), Some(n)) if p < n => pos.next().map(|v| (v, true)),
            (_, Some(_)) => neg.next().map(|v| (v, false)),
            _ => pos.next().map(|v| (v, true)),
        })
    }

    /// Whether this cube covers `other` (every minterm of `other` is a
    /// minterm of `self`), i.e. `self`'s literals are a subset of `other`'s.
    pub fn covers(&self, other: &Cube) -> bool {
        self.pos.is_subset_of(&other.pos) && self.neg.is_subset_of(&other.neg)
    }

    /// Conjunction with another cube; `None` if the product is constant 0.
    pub fn and(&self, other: &Cube) -> Option<Cube> {
        if self.pos.intersects(&other.neg) || self.neg.intersects(&other.pos) {
            return None;
        }
        let mut r = self.clone();
        r.pos.union_with(&other.pos);
        r.neg.union_with(&other.neg);
        Some(r)
    }

    /// Cofactor with respect to literal `v = phase`.
    ///
    /// Returns `None` if the cube vanishes (contains the opposite literal);
    /// otherwise the cube with any `v` literal removed.
    pub fn cofactor(&self, v: Var, phase: bool) -> Option<Cube> {
        match self.literal(v) {
            Some(p) if p != phase => None,
            _ => {
                let mut c = self.clone();
                c.pos.remove(v);
                c.neg.remove(v);
                Some(c)
            }
        }
    }

    /// Removes variable `v` from the cube entirely (existential erase).
    pub fn without_var(&self, v: Var) -> Cube {
        let mut c = self.clone();
        c.pos.remove(v);
        c.neg.remove(v);
        c
    }

    /// Removes all of `other`'s literals from `self` (cube quotient helper).
    /// Caller guarantees `other`'s literals are present in `self`.
    pub fn without_literals_of(&self, other: &Cube) -> Cube {
        let mut c = self.clone();
        c.pos.difference_with(&other.pos);
        c.neg.difference_with(&other.neg);
        c
    }

    /// Evaluates the cube under the given assignment.
    pub fn eval<F: Fn(Var) -> bool>(&self, assign: F) -> bool {
        self.pos.iter().all(&assign) && self.neg.iter().all(|v| !assign(v))
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        let mut first = true;
        for (v, phase) in self.literals() {
            if !first {
                write!(f, "·")?;
            }
            first = false;
            if phase {
                write!(f, "{v}")?;
            } else {
                write!(f, "{v}'")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(lits: &[(u32, bool)]) -> Cube {
        Cube::from_literals(lits.iter().map(|&(v, p)| (Var(v), p)))
    }

    #[test]
    fn one_cube() {
        let c = Cube::one();
        assert!(c.is_one());
        assert_eq!(c.literal_count(), 0);
        assert!(c.eval(|_| false));
    }

    #[test]
    #[should_panic(expected = "both phases")]
    fn conflicting_literals_panic() {
        let _ = cube(&[(0, true), (0, false)]);
    }

    #[test]
    fn covers_is_literal_subset() {
        let big = cube(&[(0, true)]);
        let small = cube(&[(0, true), (1, false)]);
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(Cube::one().covers(&small));
        assert!(big.covers(&big));
    }

    #[test]
    fn and_detects_conflict() {
        let a = cube(&[(0, true), (1, true)]);
        let b = cube(&[(1, false)]);
        assert_eq!(a.and(&b), None);
        let c = cube(&[(2, false)]);
        let ac = a.and(&c).unwrap();
        assert_eq!(ac, cube(&[(0, true), (1, true), (2, false)]));
    }

    #[test]
    fn cofactor_semantics() {
        let c = cube(&[(0, true), (1, false)]);
        assert_eq!(c.cofactor(Var(0), true), Some(cube(&[(1, false)])));
        assert_eq!(c.cofactor(Var(0), false), None);
        assert_eq!(c.cofactor(Var(5), true), Some(c.clone()));
    }

    #[test]
    fn literal_iteration_sorted() {
        let c = cube(&[(3, false), (1, true), (2, true)]);
        let lits: Vec<_> = c.literals().collect();
        assert_eq!(lits, vec![(Var(1), true), (Var(2), true), (Var(3), false)]);
    }

    #[test]
    fn display_formats_phases() {
        let c = cube(&[(0, true), (1, false)]);
        assert_eq!(c.to_string(), "x0·x1'");
        assert_eq!(Cube::one().to_string(), "1");
    }

    #[test]
    fn without_literals_of() {
        let c = cube(&[(0, true), (1, true), (2, false)]);
        let d = cube(&[(1, true)]);
        assert_eq!(c.without_literals_of(&d), cube(&[(0, true), (2, false)]));
    }
}
