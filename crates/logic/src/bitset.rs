//! Growable bitsets over variable indices.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::cube::Var;

/// A set of [`Var`] indices, stored as a bitset whose first word is inline.
///
/// Variables 0–63 live in `first`, so sets over a small (fanin-local)
/// variable space never allocate. Higher words live in `rest`, which never
/// carries trailing zero words. `PartialEq`/`Hash` therefore compare set
/// contents word by word, and the derived `Ord` — `first`, then `rest`
/// lexicographically — is the lexicographic order of the trimmed word
/// vector `[first, rest…]` (`[]` for the empty set), which is the order
/// [`Cube`](crate::Cube) sorting and candidate selection rely on.
///
/// # Example
///
/// ```
/// use tels_logic::{Var, VarSet};
///
/// let mut s = VarSet::new();
/// s.insert(Var(3));
/// s.insert(Var(70));
/// assert!(s.contains(Var(3)));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![Var(3), Var(70)]);
/// ```
#[derive(Clone, Default, PartialOrd, Ord)]
pub struct VarSet {
    first: u64,
    rest: Box<[u64]>,
}

impl PartialEq for VarSet {
    fn eq(&self, other: &VarSet) -> bool {
        // Word by word: comparing `rest` as a slice calls `bcmp`, and glibc's
        // `bcmp` on an empty slice (the usual `rest`, whose pointer is
        // dangling) took ~180 ns per call on a 2-vCPU x86-64 VM, far more
        // than the whole comparison.
        self.first == other.first
            && self.rest.len() == other.rest.len()
            && self.rest.iter().zip(&other.rest).all(|(a, b)| a == b)
    }
}

impl Eq for VarSet {}

impl Hash for VarSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.first.hash(state);
        // Most sets have no `rest`; hashing its length would cost a hasher
        // call per set for nothing.
        if !self.rest.is_empty() {
            self.rest.hash(state);
        }
    }
}

impl VarSet {
    /// Creates an empty set.
    pub fn new() -> VarSet {
        VarSet::default()
    }

    /// Word `i` of the bitset (zero past the end).
    fn word(&self, i: usize) -> u64 {
        match i {
            0 => self.first,
            _ => self.rest.get(i - 1).copied().unwrap_or(0),
        }
    }

    /// Grows `rest` to at least `len` words.
    fn grow(&mut self, len: usize) {
        if len > self.rest.len() {
            let mut words = Vec::with_capacity(len);
            words.extend_from_slice(&self.rest);
            words.resize(len, 0);
            self.rest = words.into_boxed_slice();
        }
    }

    fn trim(&mut self) {
        let len = self.rest.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        if len < self.rest.len() {
            self.rest = self.rest[..len].into();
        }
    }

    /// Inserts the variables below 64 whose bits are set in `word`.
    pub(crate) fn insert_low_word(&mut self, word: u64) {
        self.first |= word;
    }

    /// Inserts a variable. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, v: Var) -> bool {
        let (w, bit) = (v.0 as usize / 64, 1u64 << (v.0 % 64));
        let word = if w == 0 {
            &mut self.first
        } else {
            self.grow(w);
            &mut self.rest[w - 1]
        };
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes a variable. Returns `true` if it was present.
    pub fn remove(&mut self, v: Var) -> bool {
        let (w, bit) = (v.0 as usize / 64, 1u64 << (v.0 % 64));
        let present = self.word(w) & bit != 0;
        if present {
            if w == 0 {
                self.first &= !bit;
            } else {
                self.rest[w - 1] &= !bit;
                self.trim();
            }
        }
        present
    }

    /// Whether the variable is in the set.
    pub fn contains(&self, v: Var) -> bool {
        self.word(v.0 as usize / 64) & (1 << (v.0 % 64)) != 0
    }

    /// Number of variables in the set.
    pub fn len(&self) -> usize {
        self.first.count_ones() as usize
            + self
                .rest
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.first == 0 && self.rest.is_empty()
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &VarSet) {
        self.first |= other.first;
        self.grow(other.rest.len());
        for (w, o) in self.rest.iter_mut().zip(&other.rest) {
            *w |= o;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &VarSet) {
        self.first &= other.first;
        if !self.rest.is_empty() {
            for (i, w) in self.rest.iter_mut().enumerate() {
                *w &= other.rest.get(i).copied().unwrap_or(0);
            }
            self.trim();
        }
    }

    /// In-place difference (`self − other`).
    pub fn difference_with(&mut self, other: &VarSet) {
        self.first &= !other.first;
        if !self.rest.is_empty() && !other.rest.is_empty() {
            for (w, o) in self.rest.iter_mut().zip(&other.rest) {
                *w &= !o;
            }
            self.trim();
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &VarSet) -> bool {
        self.first & !other.first == 0
            && self
                .rest
                .iter()
                .enumerate()
                .all(|(i, w)| w & !other.rest.get(i).copied().unwrap_or(0) == 0)
    }

    /// Whether the two sets share any variable.
    pub fn intersects(&self, other: &VarSet) -> bool {
        self.first & other.first != 0 || self.rest.iter().zip(&other.rest).any(|(a, b)| a & b != 0)
    }

    /// Iterates over the variables in ascending index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.first,
        }
    }

    /// The positions of this set's variables in `universe`'s ascending
    /// order, as a mask: bit `j` is set when the `j`-th variable of
    /// `universe` is in this set. The set must be a subset of `universe`,
    /// and every position must be below 64 (both checked in debug builds).
    pub fn positions_in(&self, universe: &VarSet) -> u64 {
        debug_assert!(self.is_subset_of(universe));
        let mut mask = 0u64;
        let mut before = 0u32;
        for w in 0..=self.rest.len() {
            let all = universe.word(w);
            let mut bits = self.word(w);
            while bits != 0 {
                let low = bits & bits.wrapping_neg();
                let j = before + (all & (low - 1)).count_ones();
                debug_assert!(j < 64, "position {j} does not fit a mask");
                mask |= 1 << j;
                bits &= bits - 1;
            }
            before += all.count_ones();
        }
        mask
    }

    /// The smallest variable in the set, if any.
    pub fn min_var(&self) -> Option<Var> {
        self.iter().next()
    }

    /// The largest variable in the set, if any.
    pub fn max_var(&self) -> Option<Var> {
        let (w, word) = match self.rest.last() {
            Some(&word) => (self.rest.len(), word),
            None if self.first != 0 => (0, self.first),
            None => return None,
        };
        Some(Var((w * 64 + 63 - word.leading_zeros() as usize) as u32))
    }
}

/// Iterator over the variables of a [`VarSet`] in ascending order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a VarSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = Var;

    fn next(&mut self) -> Option<Var> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros();
                self.bits &= self.bits - 1;
                return Some(Var((self.word * 64) as u32 + b));
            }
            self.word += 1;
            self.bits = *self.set.rest.get(self.word - 1)?;
        }
    }
}

impl<'a> IntoIterator for &'a VarSet {
    type Item = Var;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<Var> for VarSet {
    fn from_iter<I: IntoIterator<Item = Var>>(iter: I) -> Self {
        let mut s = VarSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

impl Extend<Var> for VarSet {
    fn extend<I: IntoIterator<Item = Var>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|v| v.0)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;
    use crate::rng::Xoshiro256;

    #[test]
    fn insert_remove_contains() {
        let mut s = VarSet::new();
        assert!(s.insert(Var(5)));
        assert!(!s.insert(Var(5)));
        assert!(s.contains(Var(5)));
        assert!(!s.contains(Var(6)));
        assert!(s.remove(Var(5)));
        assert!(!s.remove(Var(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn positions_in_ranks_across_words() {
        let universe: VarSet = [2, 64, 65, 130, 191, 200].into_iter().map(Var).collect();
        let sub: VarSet = [2, 65, 200].into_iter().map(Var).collect();
        assert_eq!(sub.positions_in(&universe), 0b100101);
        assert_eq!(universe.positions_in(&universe), 0b111111);
        assert_eq!(VarSet::new().positions_in(&universe), 0);
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = VarSet::new();
        a.insert(Var(200));
        a.remove(Var(200));
        a.insert(Var(1));
        let b: VarSet = [Var(1)].into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn set_operations() {
        let a: VarSet = [Var(1), Var(2), Var(65)].into_iter().collect();
        let b: VarSet = [Var(2), Var(65), Var(100)].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 4);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![Var(2), Var(65)]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![Var(1)]);
        assert!(i.is_subset_of(&a));
        assert!(i.is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
        assert!(a.intersects(&b));
        assert!(!d.intersects(&i));
    }

    #[test]
    fn min_max() {
        let s: VarSet = [Var(7), Var(64), Var(3)].into_iter().collect();
        assert_eq!(s.min_var(), Some(Var(3)));
        assert_eq!(s.max_var(), Some(Var(64)));
        assert_eq!(VarSet::new().min_var(), None);
        assert_eq!(VarSet::new().max_var(), None);
    }

    #[test]
    fn iterate_across_words() {
        let vars = [Var(0), Var(63), Var(64), Var(127), Var(128)];
        let s: VarSet = vars.into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vars);
    }

    /// Reference model: the trimmed word vector (no trailing zero words)
    /// whose derived `Eq`/`Ord` the inline-word layout must reproduce.
    #[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
    struct Model(Vec<u64>);

    impl Model {
        fn trim(&mut self) {
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
        }

        fn insert(&mut self, v: u32) {
            let w = v as usize / 64;
            if w >= self.0.len() {
                self.0.resize(w + 1, 0);
            }
            self.0[w] |= 1 << (v % 64);
        }

        fn remove(&mut self, v: u32) {
            if let Some(word) = self.0.get_mut(v as usize / 64) {
                *word &= !(1 << (v % 64));
            }
            self.trim();
        }

        fn intersect(&mut self, other: &Model) {
            for (i, w) in self.0.iter_mut().enumerate() {
                *w &= other.0.get(i).copied().unwrap_or(0);
            }
            self.trim();
        }

        fn difference(&mut self, other: &Model) {
            for (i, w) in self.0.iter_mut().enumerate() {
                *w &= !other.0.get(i).copied().unwrap_or(0);
            }
            self.trim();
        }

        fn vars(&self) -> Vec<Var> {
            (0..self.0.len() as u32 * 64)
                .filter(|&v| self.0[v as usize / 64] >> (v % 64) & 1 == 1)
                .map(Var)
                .collect()
        }
    }

    /// Random `(VarSet, Model)` pairs built by the same operation sequence:
    /// inserts over a window reaching past word 0, removals, and
    /// intersections/differences with freshly built sets.
    fn random_pairs(rng: &mut Xoshiro256, count: usize) -> Vec<(VarSet, Model)> {
        fn fresh(rng: &mut Xoshiro256, span: u32) -> (VarSet, Model) {
            let (mut s, mut m) = (VarSet::new(), Model::default());
            for _ in 0..rng.gen_range(0..6usize) {
                let v = rng.gen_range(0..span);
                s.insert(Var(v));
                m.insert(v);
            }
            (s, m)
        }
        (0..count)
            .map(|_| {
                let span = [8u32, 64, 130, 260][rng.gen_range(0..4usize)];
                let (mut s, mut m) = fresh(rng, span);
                for _ in 0..rng.gen_range(0..5usize) {
                    match rng.gen_range(0..4usize) {
                        0 => {
                            let v = rng.gen_range(0..span);
                            s.insert(Var(v));
                            m.insert(v);
                        }
                        1 => {
                            let v = rng.gen_range(0..span);
                            assert_eq!(s.remove(Var(v)), m.vars().contains(&Var(v)));
                            m.remove(v);
                        }
                        2 => {
                            let (o, om) = fresh(rng, span);
                            s.intersect_with(&o);
                            m.intersect(&om);
                        }
                        _ => {
                            let (o, om) = fresh(rng, span);
                            s.difference_with(&o);
                            m.difference(&om);
                        }
                    }
                }
                (s, m)
            })
            .collect()
    }

    #[test]
    fn matches_trimmed_word_vector_model() {
        let mut rng = Xoshiro256::seed_from_u64(0xB175E7);
        let pairs = random_pairs(&mut rng, 400);
        for (s, m) in &pairs {
            assert_eq!(s.iter().collect::<Vec<_>>(), m.vars());
            assert_eq!(s.len(), m.vars().len());
            assert_eq!(s.max_var(), m.vars().last().copied());
            assert_eq!(s.is_empty(), m.0.is_empty());
        }
        for (a, am) in &pairs[..100] {
            for (b, bm) in &pairs {
                assert_eq!(a == b, am == bm, "{a:?} vs {b:?}");
                assert_eq!(a.cmp(b), am.cmp(bm), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn cube_sort_order_matches_model() {
        let mut rng = Xoshiro256::seed_from_u64(0xC0BE);
        let pairs = random_pairs(&mut rng, 600);
        // Cubes from disjoint (pos, neg) pairs; the model orders them as the
        // tuple of their trimmed word vectors, as `Cube`'s derived `Ord` did.
        let mut cubes: Vec<(Cube, (Model, Model))> = pairs
            .chunks(2)
            .map(|pn| {
                let (pos, pm) = &pn[0];
                let (mut neg, mut nm) = pn[1].clone();
                neg.difference_with(pos);
                nm.difference(pm);
                let lits = pos
                    .iter()
                    .map(|v| (v, true))
                    .chain(neg.iter().map(|v| (v, false)));
                (Cube::from_literals(lits), (pm.clone(), nm))
            })
            .collect();
        let mut by_model = cubes.clone();
        cubes.sort_by(|a, b| a.0.cmp(&b.0));
        by_model.sort_by(|a, b| a.1.cmp(&b.1));
        let order: Vec<&Cube> = cubes.iter().map(|(c, _)| c).collect();
        let model_order: Vec<&Cube> = by_model.iter().map(|(c, _)| c).collect();
        assert_eq!(order, model_order);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn inline_word_keeps_cube_at_48_bytes() {
        assert_eq!(std::mem::size_of::<VarSet>(), 24);
        assert_eq!(std::mem::size_of::<Cube>(), 48);
    }

    #[test]
    fn subset_with_shorter_other() {
        let a: VarSet = [Var(100)].into_iter().collect();
        let b: VarSet = [Var(1)].into_iter().collect();
        assert!(!a.is_subset_of(&b));
        assert!(VarSet::new().is_subset_of(&b));
    }
}
