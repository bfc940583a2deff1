//! Sum-of-products (cube cover) representation and algorithms.

use std::fmt;

use crate::bitset::VarSet;
use crate::cube::{Cube, Polarity, Var};

/// A sum-of-products expression: a disjunction of [`Cube`]s.
///
/// The empty cover is the constant 0; a cover containing the universal cube
/// is the constant 1. Covers are kept single-cube-containment minimal
/// ([`Sop::scc`] runs after every mutating operation), which matches the
/// "algebraic expression" form assumed throughout the TELS paper (§II-C).
///
/// # Example
///
/// ```
/// use tels_logic::{Cube, Sop, Var};
///
/// // f = x0·x1 ∨ x0·x2
/// let f = Sop::from_cubes([
///     Cube::from_literals([(Var(0), true), (Var(1), true)]),
///     Cube::from_literals([(Var(0), true), (Var(2), true)]),
/// ]);
/// assert_eq!(f.num_cubes(), 2);
/// assert_eq!(f.num_literals(), 4);
/// assert!(f.eval(|v| v != Var(2)));
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Sop {
    cubes: Vec<Cube>,
}

/// Reusable working buffers for [`Sop::canonical_signature_into`] and
/// [`SignatureScratch::canonicalize`].
///
/// Canonicalization needs half a dozen temporary vectors (support, per-var
/// cube-size profiles, the permutation and its inverse, the sorted masks).
/// Callers that canonicalize in a loop keep one scratch alive and amortize
/// every allocation; the outputs of the most recent call are exposed via
/// [`Self::key`] and [`Self::order`].
#[derive(Default)]
pub struct SignatureScratch {
    support: Vec<Var>,
    cubes: Vec<u64>,
    sizes: Vec<Vec<u32>>,
    order_idx: Vec<usize>,
    pos: Vec<u32>,
    masks: Vec<u64>,
    key: Vec<u64>,
    order: Vec<Var>,
}

impl SignatureScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> SignatureScratch {
        SignatureScratch::default()
    }

    /// The canonical key written by the last successful
    /// [`Sop::canonical_signature_into`] or [`Self::canonicalize`] call.
    pub fn key(&self) -> &[u64] {
        &self.key
    }

    /// The canonical variable order written by the last successful
    /// [`Sop::canonical_signature_into`] or [`Self::canonicalize`] call.
    pub fn order(&self) -> &[Var] {
        &self.order
    }

    /// [`Sop::canonical_signature_into`] for a positive cover given as
    /// cube masks over the positions of `support` (bit `j` of a mask is
    /// `support[j]`), which must list at most 64 variables in ascending
    /// order. The key and order equal those of the same cover as a
    /// [`Sop`].
    pub fn canonicalize(&mut self, support: &[Var], cubes: &[u64]) {
        let k = support.len();
        debug_assert!(k <= 64 && support.windows(2).all(|p| p[0] < p[1]));
        let SignatureScratch {
            sizes,
            order_idx,
            pos,
            masks,
            key,
            order,
            ..
        } = self;
        // Renaming-invariant profile per variable: (occurrence count,
        // sorted sizes of the cubes it appears in).
        for s in sizes.iter_mut() {
            s.clear();
        }
        if sizes.len() < k {
            sizes.resize_with(k, Vec::new);
        }
        for &c in cubes {
            let len = c.count_ones();
            let mut rest = c;
            while rest != 0 {
                sizes[rest.trailing_zeros() as usize].push(len);
                rest &= rest - 1;
            }
        }
        for s in sizes.iter_mut().take(k) {
            s.sort_unstable();
        }
        order_idx.clear();
        order_idx.extend(0..k);
        order_idx.sort_by(|&a, &b| {
            sizes[b]
                .len()
                .cmp(&sizes[a].len())
                .then_with(|| sizes[a].cmp(&sizes[b]))
                .then(a.cmp(&b))
        });
        pos.clear();
        pos.resize(k, 0);
        for (j, &i) in order_idx.iter().enumerate() {
            pos[i] = j as u32;
        }
        masks.clear();
        masks.extend(cubes.iter().map(|&c| {
            let (mut m, mut rest) = (0u64, c);
            while rest != 0 {
                m |= 1 << pos[rest.trailing_zeros() as usize];
                rest &= rest - 1;
            }
            m
        }));
        masks.sort_unstable();
        key.clear();
        key.reserve(masks.len() + 1);
        key.push(k as u64);
        key.extend_from_slice(masks);
        order.clear();
        order.extend(order_idx.iter().map(|&i| support[i]));
    }
}

impl Sop {
    /// The constant-0 function.
    pub fn zero() -> Sop {
        Sop { cubes: Vec::new() }
    }

    /// The constant-1 function.
    pub fn one() -> Sop {
        Sop {
            cubes: vec![Cube::one()],
        }
    }

    /// A single positive or negative literal.
    pub fn literal(v: Var, phase: bool) -> Sop {
        Sop {
            cubes: vec![Cube::from_literals([(v, phase)])],
        }
    }

    /// Builds a cover from cubes, applying single-cube containment.
    pub fn from_cubes<I: IntoIterator<Item = Cube>>(cubes: I) -> Sop {
        let mut s = Sop {
            cubes: cubes.into_iter().collect(),
        };
        s.scc();
        s
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes (`|K_n|` in the paper).
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literals.
    pub fn num_literals(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Whether this is the constant-0 cover.
    pub fn is_zero(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Whether the cover contains the universal cube (and is therefore the
    /// constant 1 — after [`scc`](Self::scc) the universal cube is alone).
    pub fn is_one(&self) -> bool {
        self.cubes.iter().any(Cube::is_one)
    }

    /// The union of all cube supports.
    pub fn support(&self) -> VarSet {
        let mut s = VarSet::new();
        for c in &self.cubes {
            s.union_with(c.positive_vars());
            s.union_with(c.negative_vars());
        }
        s
    }

    /// Evaluates under an assignment.
    pub fn eval<F: Fn(Var) -> bool + Copy>(&self, assign: F) -> bool {
        self.cubes.iter().any(|c| c.eval(assign))
    }

    /// Single-cube containment: removes cubes covered by another cube.
    pub fn scc(&mut self) {
        // Sort by literal count so potential containers come first, dedup,
        // then sweep.
        self.cubes.sort_by_key(Cube::literal_count);
        self.cubes.dedup();
        // Survivors move down in place, in order: `cubes[..kept]` are the
        // cubes kept so far.
        let mut kept = 0;
        for i in 0..self.cubes.len() {
            if !self.cubes[..kept].iter().any(|k| k.covers(&self.cubes[i])) {
                self.cubes.swap(kept, i);
                kept += 1;
            }
        }
        self.cubes.truncate(kept);
    }

    /// Disjunction.
    pub fn or(&self, other: &Sop) -> Sop {
        Sop::from_cubes(self.cubes.iter().chain(&other.cubes).cloned())
    }

    /// Conjunction (cartesian cube product).
    pub fn and(&self, other: &Sop) -> Sop {
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(c) = a.and(b) {
                    cubes.push(c);
                }
            }
        }
        Sop::from_cubes(cubes)
    }

    /// Cofactor with respect to `v = phase`.
    pub fn cofactor(&self, v: Var, phase: bool) -> Sop {
        Sop::from_cubes(self.cubes.iter().filter_map(|c| c.cofactor(v, phase)))
    }

    /// Cofactor with respect to every literal of a cube.
    pub fn cofactor_cube(&self, cube: &Cube) -> Sop {
        let mut f = self.clone();
        for (v, phase) in cube.literals() {
            f = f.cofactor(v, phase);
        }
        f
    }

    /// The syntactic polarity of `v` in this cover, or `None` if `v` is not
    /// in the support.
    ///
    /// Note this is *expression* unateness (§II-B): a function may be
    /// syntactically binate in one cover and unate in another. TELS operates
    /// on algebraic covers where syntactic unateness is the relevant notion;
    /// [`TruthTable::polarity`](crate::TruthTable::polarity) provides the
    /// functional check.
    pub fn polarity(&self, v: Var) -> Option<Polarity> {
        let mut pos = false;
        let mut neg = false;
        for c in &self.cubes {
            match c.literal(v) {
                Some(true) => pos = true,
                Some(false) => neg = true,
                None => {}
            }
        }
        match (pos, neg) {
            (false, false) => None,
            (true, false) => Some(Polarity::Positive),
            (false, true) => Some(Polarity::Negative),
            (true, true) => Some(Polarity::Binate),
        }
    }

    /// Variables that appear in both phases.
    pub fn binate_vars(&self) -> Vec<Var> {
        self.support()
            .iter()
            .filter(|&v| self.polarity(v) == Some(Polarity::Binate))
            .collect()
    }

    /// The variables that appear in positive phase and those that appear
    /// in negative phase, from one pass over the cubes.
    pub fn phase_vars(&self) -> (VarSet, VarSet) {
        let (mut pos, mut neg) = (VarSet::new(), VarSet::new());
        for c in &self.cubes {
            pos.union_with(c.positive_vars());
            neg.union_with(c.negative_vars());
        }
        (pos, neg)
    }

    /// Whether the cover is (syntactically) unate in every variable.
    pub fn is_unate(&self) -> bool {
        let (pos, neg) = self.phase_vars();
        !pos.intersects(&neg)
    }

    /// Whether the cover is unate with every variable in positive phase.
    pub fn is_positive_unate(&self) -> bool {
        self.cubes.iter().all(|c| c.negative_vars().is_empty())
    }

    /// Number of cubes in which `v` appears (either phase).
    pub fn occurrence_count(&self, v: Var) -> usize {
        self.cubes.iter().filter(|c| c.literal(v).is_some()).count()
    }

    /// Exact tautology check.
    ///
    /// Uses the unate reduction: a unate cover is a tautology iff it contains
    /// the universal cube; binate covers are split by Shannon expansion on
    /// the most-frequent binate variable.
    pub fn is_tautology(&self) -> bool {
        if self.is_one() {
            return true;
        }
        if self.is_zero() {
            return false;
        }
        // Select the most frequently occurring binate variable.
        let split = self
            .binate_vars()
            .into_iter()
            .max_by_key(|&v| self.occurrence_count(v));
        match split {
            None => false, // unate, no universal cube ⇒ not a tautology
            Some(v) => {
                self.cofactor(v, true).is_tautology() && self.cofactor(v, false).is_tautology()
            }
        }
    }

    /// Whether this cover covers every minterm of `cube`.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        self.cofactor_cube(cube).is_tautology()
    }

    /// Whether `self` implies `other` (`self ⊆ other` as minterm sets).
    pub fn implies(&self, other: &Sop) -> bool {
        self.cubes.iter().all(|c| other.covers_cube(c))
    }

    /// Exact functional equivalence.
    pub fn equivalent(&self, other: &Sop) -> bool {
        self.implies(other) && other.implies(self)
    }

    /// Exact complement via recursive Shannon expansion.
    ///
    /// Terminal cases: the 0/1 covers, and single-cube covers (De Morgan).
    pub fn complement(&self) -> Sop {
        if self.is_zero() {
            return Sop::one();
        }
        if self.is_one() {
            return Sop::zero();
        }
        if self.cubes.len() == 1 {
            // De Morgan on a single cube.
            return Sop::from_cubes(
                self.cubes[0]
                    .literals()
                    .map(|(v, phase)| Cube::from_literals([(v, !phase)])),
            );
        }
        // Split on the most frequent variable (binate preferred).
        let support = self.support();
        let v = self
            .binate_vars()
            .into_iter()
            .max_by_key(|&v| self.occurrence_count(v))
            .or_else(|| support.iter().max_by_key(|&v| self.occurrence_count(v)))
            .expect("non-constant cover has a support variable");
        let f1 = self.cofactor(v, true).complement();
        let f0 = self.cofactor(v, false).complement();
        let lit1 = Sop::literal(v, true);
        let lit0 = Sop::literal(v, false);
        lit1.and(&f1).or(&lit0.and(&f0))
    }

    /// Substitutes variable `v` by the function `g` (and `ḡ` for negative
    /// literals of `v`), producing an equivalent cover without `v`.
    ///
    /// The complement of `g` is computed on demand only when `v` appears
    /// negatively.
    pub fn substitute(&self, v: Var, g: &Sop) -> Sop {
        let mut g_not: Option<Sop> = None;
        let mut result = Sop::zero();
        for c in &self.cubes {
            match c.literal(v) {
                None => result.cubes.push(c.clone()),
                Some(phase) => {
                    let rest = c.without_var(v);
                    let factor = if phase {
                        g
                    } else {
                        g_not.get_or_insert_with(|| g.complement())
                    };
                    // The final SCC below removes whatever an SCC of each
                    // product would, and its stable sort leaves equal-size
                    // cubes in the same order either way.
                    result
                        .cubes
                        .extend(factor.cubes.iter().filter_map(|f| rest.and(f)));
                }
            }
        }
        result.scc();
        result
    }

    /// Renames variables: each variable `Var(i)` becomes `map[i]`.
    ///
    /// # Panics
    ///
    /// Panics if a support variable's index is out of range of `map`, or if
    /// the mapping merges two variables into opposite phases of one cube.
    pub fn remap(&self, map: &[Var]) -> Sop {
        let cubes: Vec<Cube> = self
            .cubes
            .iter()
            .map(|c| Cube::from_literals(c.literals().map(|(v, phase)| (map[v.0 as usize], phase))))
            .collect();
        // A map injective on the support renames without merging: distinct
        // cubes stay distinct, containment and literal counts are kept, so
        // the SCC-minimal cover, sorted by literal count, maps to one.
        let mut image = VarSet::new();
        let injective = self
            .support()
            .iter()
            .all(|v| image.insert(map[v.0 as usize]));
        if !injective {
            return Sop::from_cubes(cubes);
        }
        debug_assert_eq!(Sop::from_cubes(cubes.clone()).cubes, cubes);
        Sop { cubes }
    }

    /// Canonical signature of a positive-unate cover, for memoizing
    /// per-function results (e.g. threshold-check realizations) across
    /// variable renamings.
    ///
    /// Support variables are renumbered to canonical positions by a
    /// renaming-invariant profile — occurrence count (descending), then the
    /// sorted list of sizes of the cubes each variable appears in — with
    /// ties broken by the original variable order. The returned `key` is
    /// `[k, m₁, …, m_c]`: the support size followed by the sorted cube
    /// bitmasks over canonical positions. `order[j]` is the support variable
    /// assigned canonical position `j`.
    ///
    /// Two covers with equal keys are *literally identical* after renaming
    /// `order[j] → j`, so any per-function result computed in canonical
    /// space transfers exactly through `order`. (The converse does not hold:
    /// permutation-equivalent covers whose profiles tie may canonicalize
    /// differently — a missed match, never a false one.)
    ///
    /// Returns `None` when the support exceeds 64 variables (the bitmask
    /// width).
    ///
    /// # Example
    ///
    /// ```
    /// use tels_logic::{Cube, Sop, Var};
    ///
    /// // x₅x₇ ∨ x₅x₉ and x₁x₂ ∨ x₁x₄ are the same function up to renaming.
    /// let f = Sop::from_cubes([
    ///     Cube::from_literals([(Var(5), true), (Var(7), true)]),
    ///     Cube::from_literals([(Var(5), true), (Var(9), true)]),
    /// ]);
    /// let g = Sop::from_cubes([
    ///     Cube::from_literals([(Var(1), true), (Var(2), true)]),
    ///     Cube::from_literals([(Var(1), true), (Var(4), true)]),
    /// ]);
    /// let (fk, forder) = f.canonical_signature().unwrap();
    /// let (gk, gorder) = g.canonical_signature().unwrap();
    /// assert_eq!(fk, gk);
    /// assert_eq!(forder[0], Var(5)); // the shared variable leads
    /// assert_eq!(gorder[0], Var(1));
    /// ```
    pub fn canonical_signature(&self) -> Option<(Vec<u64>, Vec<Var>)> {
        let mut scratch = SignatureScratch::new();
        if self.canonical_signature_into(&mut scratch) {
            Some((
                std::mem::take(&mut scratch.key),
                std::mem::take(&mut scratch.order),
            ))
        } else {
            None
        }
    }

    /// Allocation-reusing form of [`Self::canonical_signature`].
    ///
    /// Writes the canonical key and order into `scratch` (read them back
    /// through [`SignatureScratch::key`] / [`SignatureScratch::order`]) and
    /// returns whether a signature exists (support ≤ 64 variables). The
    /// outputs stay valid until the next call on the same scratch. Hot
    /// loops — the synthesis driver's query walk — reuse one scratch
    /// across thousands of covers instead of allocating seven fresh `Vec`s
    /// per node.
    pub fn canonical_signature_into(&self, scratch: &mut SignatureScratch) -> bool {
        debug_assert!(
            self.is_positive_unate(),
            "canonical_signature expects a positive-unate cover"
        );
        let all = self.support();
        if all.len() > 64 {
            return false;
        }
        let mut support = std::mem::take(&mut scratch.support);
        let mut cubes = std::mem::take(&mut scratch.cubes);
        support.clear();
        support.extend(all.iter());
        cubes.clear();
        cubes.extend(
            self.cubes
                .iter()
                .map(|c| c.positive_vars().positions_in(&all)),
        );
        scratch.canonicalize(&support, &cubes);
        scratch.support = support;
        scratch.cubes = cubes;
        true
    }

    /// Two-level minimization: literal expansion followed by removal of
    /// redundant cubes, iterated to a fixpoint.
    ///
    /// This is an "espresso-lite": `expand` tries to delete literals from
    /// each cube (accepting whenever the enlarged cube is still covered by
    /// the function), `irredundant` removes cubes covered by the rest of the
    /// cover. The result is a prime, irredundant cover of the same function
    /// (without don't-cares).
    pub fn minimize(&self) -> Sop {
        let mut f = self.clone();
        f.scc();
        loop {
            let before = (f.num_cubes(), f.num_literals());
            f.expand();
            f.irredundant();
            if (f.num_cubes(), f.num_literals()) == before {
                return f;
            }
        }
    }

    /// Expands each cube to a prime by deleting literals while the enlarged
    /// cube remains covered by the function.
    fn expand(&mut self) {
        let whole = self.clone();
        for i in 0..self.cubes.len() {
            let mut cube = self.cubes[i].clone();
            let lits: Vec<(Var, bool)> = cube.literals().collect();
            for (v, _) in lits {
                let candidate = cube.without_var(v);
                if whole.covers_cube(&candidate) {
                    cube = candidate;
                }
            }
            self.cubes[i] = cube;
        }
        self.scc();
    }

    /// Removes cubes covered by the rest of the cover.
    fn irredundant(&mut self) {
        let mut i = 0;
        while i < self.cubes.len() {
            let mut rest = self.clone();
            rest.cubes.remove(i);
            if rest.covers_cube(&self.cubes[i]) {
                self.cubes.remove(i);
            } else {
                i += 1;
            }
        }
    }
}

impl FromIterator<Cube> for Sop {
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        Sop::from_cubes(iter)
    }
}

impl fmt::Debug for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for c in &self.cubes {
            if !first {
                write!(f, " ∨ ")?;
            }
            first = false;
            write!(f, "{c}")?;
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

    fn sop(cubes: &[&[(u32, bool)]]) -> Sop {
        Sop::from_cubes(cubes.iter().map(|c| cube(c)))
    }

    #[test]
    fn constants() {
        assert!(Sop::zero().is_zero());
        assert!(Sop::one().is_one());
        assert!(Sop::one().is_tautology());
        assert!(!Sop::zero().is_tautology());
        assert!(Sop::zero().complement().is_one());
        assert!(Sop::one().complement().is_zero());
    }

    #[test]
    fn scc_removes_contained() {
        let f = sop(&[&[(0, true)], &[(0, true), (1, true)]]);
        assert_eq!(f.num_cubes(), 1);
        assert_eq!(f.cubes()[0], cube(&[(0, true)]));
    }

    #[test]
    fn and_or_semantics() {
        let a = sop(&[&[(0, true)]]);
        let b = sop(&[&[(1, true)]]);
        let ab = a.and(&b);
        assert_eq!(ab.cubes()[0], cube(&[(0, true), (1, true)]));
        let aorb = a.or(&b);
        assert_eq!(aorb.num_cubes(), 2);
        // x0 AND x̄0 = 0
        let n = sop(&[&[(0, false)]]);
        assert!(a.and(&n).is_zero());
    }

    #[test]
    fn xor_is_tautology_with_complement() {
        // f = x0 ⊕ x1 = x0·x̄1 ∨ x̄0·x1
        let f = sop(&[&[(0, true), (1, false)], &[(0, false), (1, true)]]);
        let g = f.complement();
        assert!(f.or(&g).is_tautology());
        assert!(f.and(&g).is_zero());
        // complement of xor is xnor
        let xnor = sop(&[&[(0, true), (1, true)], &[(0, false), (1, false)]]);
        assert!(g.equivalent(&xnor));
    }

    #[test]
    fn tautology_detection() {
        let t = sop(&[&[(0, true)], &[(0, false)]]);
        assert!(t.is_tautology());
        let f = sop(&[&[(0, true)], &[(1, false)]]);
        assert!(!f.is_tautology());
    }

    #[test]
    fn polarity_and_unateness() {
        let f = sop(&[&[(0, true), (1, false)], &[(0, true), (2, true)]]);
        assert_eq!(f.polarity(Var(0)), Some(Polarity::Positive));
        assert_eq!(f.polarity(Var(1)), Some(Polarity::Negative));
        assert_eq!(f.polarity(Var(3)), None);
        assert!(f.is_unate());
        assert!(!f.is_positive_unate());
        let g = sop(&[&[(0, true)], &[(0, false), (1, true)]]);
        assert_eq!(g.polarity(Var(0)), Some(Polarity::Binate));
        assert!(!g.is_unate());
        assert_eq!(g.binate_vars(), vec![Var(0)]);
    }

    #[test]
    fn cofactor_semantics() {
        let f = sop(&[&[(0, true), (1, true)], &[(0, false), (2, true)]]);
        let f1 = f.cofactor(Var(0), true);
        assert!(f1.equivalent(&sop(&[&[(1, true)]])));
        let f0 = f.cofactor(Var(0), false);
        assert!(f0.equivalent(&sop(&[&[(2, true)]])));
    }

    #[test]
    fn substitution_positive_and_negative() {
        // f = v̄2 ∨ x0,  g = x0·x1  ⇒  f[v2 := g] = x̄0 ∨ x̄1 ∨ x0 = 1
        let f = sop(&[&[(2, false)], &[(0, true)]]);
        let g = sop(&[&[(0, true), (1, true)]]);
        let h = f.substitute(Var(2), &g);
        assert!(h.is_tautology());
        // f = v2·x1, g = x0 ⇒ x0·x1
        let f = sop(&[&[(2, true), (1, true)]]);
        let g2 = sop(&[&[(0, true)]]);
        let h = f.substitute(Var(2), &g2);
        assert!(h.equivalent(&sop(&[&[(0, true), (1, true)]])));
    }

    #[test]
    fn remap_variables() {
        let f = sop(&[&[(0, true), (1, false)]]);
        let g = f.remap(&[Var(5), Var(9)]);
        assert_eq!(g.cubes()[0], cube(&[(5, true), (9, false)]));
    }

    #[test]
    fn minimize_merges_distance_one() {
        // x0·x1 ∨ x0·x̄1 = x0
        let f = sop(&[&[(0, true), (1, true)], &[(0, true), (1, false)]]);
        let m = f.minimize();
        assert_eq!(m.num_cubes(), 1);
        assert_eq!(m.cubes()[0], cube(&[(0, true)]));
    }

    #[test]
    fn minimize_removes_consensus_redundancy() {
        // x0·x1 ∨ x̄0·x2 ∨ x1·x2 — the consensus term x1·x2 is redundant.
        let f = sop(&[
            &[(0, true), (1, true)],
            &[(0, false), (2, true)],
            &[(1, true), (2, true)],
        ]);
        let m = f.minimize();
        assert_eq!(m.num_cubes(), 2);
        assert!(m.equivalent(&f));
    }

    #[test]
    fn minimize_preserves_function() {
        let f = sop(&[
            &[(0, true), (1, true), (2, false)],
            &[(0, true), (1, false)],
            &[(2, true), (3, true)],
            &[(0, true), (2, true), (3, true)],
        ]);
        let m = f.minimize();
        assert!(m.equivalent(&f));
        assert!(m.num_literals() <= f.num_literals());
    }

    #[test]
    fn implies_and_equivalence() {
        let f = sop(&[&[(0, true), (1, true)]]);
        let g = sop(&[&[(0, true)]]);
        assert!(f.implies(&g));
        assert!(!g.implies(&f));
        assert!(!f.equivalent(&g));
        assert!(f.equivalent(&f.clone()));
    }

    #[test]
    fn complement_of_literal() {
        let f = Sop::literal(Var(3), true);
        let g = f.complement();
        assert!(g.equivalent(&Sop::literal(Var(3), false)));
    }

    #[test]
    fn occurrence_count() {
        let f = sop(&[&[(0, true), (1, true)], &[(0, false)], &[(2, true)]]);
        assert_eq!(f.occurrence_count(Var(0)), 2);
        assert_eq!(f.occurrence_count(Var(2)), 1);
        assert_eq!(f.occurrence_count(Var(9)), 0);
    }

    #[test]
    fn canonical_signature_matches_renamings() {
        // Same structure over different variables → same key; the remap
        // through `order` reproduces the original cover.
        let f = sop(&[&[(3, true), (8, true)], &[(3, true), (5, true), (6, true)]]);
        let g = sop(&[&[(0, true), (1, true)], &[(1, true), (2, true), (4, true)]]);
        let (fk, forder) = f.canonical_signature().unwrap();
        let (gk, gorder) = g.canonical_signature().unwrap();
        assert_eq!(fk, gk);
        assert_eq!(fk[0], 4); // support size
                              // order[0] is the variable appearing in both cubes.
        assert_eq!(forder[0], Var(3));
        assert_eq!(gorder[0], Var(1));
        // Rebuilding the cover from the key through `order` gives back f.
        let rebuilt = Sop::from_cubes(fk[1..].iter().map(|&m| {
            Cube::from_literals(
                (0..fk[0] as u32)
                    .filter(|&j| m >> j & 1 == 1)
                    .map(|j| (forder[j as usize], true)),
            )
        }));
        assert!(rebuilt.equivalent(&f));
    }

    #[test]
    fn canonical_signature_distinguishes_functions() {
        // AND2 vs OR2 vs a 2-cube function must all get distinct keys.
        let and2 = sop(&[&[(0, true), (1, true)]]);
        let or2 = sop(&[&[(0, true)], &[(1, true)]]);
        let mixed = sop(&[&[(0, true), (1, true)], &[(2, true)]]);
        let k1 = and2.canonical_signature().unwrap().0;
        let k2 = or2.canonical_signature().unwrap().0;
        let k3 = mixed.canonical_signature().unwrap().0;
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_ne!(k2, k3);
    }

    #[test]
    fn canonical_signature_orders_by_profile() {
        // x0 ∨ x1x2: the lone-cube variable (smaller cube) sorts first
        // among equal counts? Counts: all 1; sizes: x0=[1], x1=x2=[2].
        let f = sop(&[&[(0, true)], &[(1, true), (2, true)]]);
        let (_, order) = f.canonical_signature().unwrap();
        assert_eq!(order[0], Var(0));
    }
}
