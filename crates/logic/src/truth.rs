//! Bit-packed truth tables for exact small-function reasoning.

use std::fmt;

use crate::cube::{Polarity, Var};
use crate::sop::Sop;

/// Per variable `i < 6`, the rows of one word whose bit `i` is clear.
const CLEAR_IN_WORD: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0f0f_0f0f_0f0f_0f0f,
    0x00ff_00ff_00ff_00ff,
    0x0000_ffff_0000_ffff,
    0x0000_0000_ffff_ffff,
];

/// A complete truth table over `n ≤ 24` variables, packed 64 rows per word.
///
/// Row index `m` encodes the assignment where variable `i` (position `i` in
/// the constructor's variable order) takes bit `i` of `m`.
///
/// Truth tables are used by tests and by functional (as opposed to
/// syntactic) unateness checks; the synthesis flow itself works on [`Sop`]s.
///
/// # Example
///
/// ```
/// use tels_logic::{Cube, Sop, TruthTable, Var};
///
/// let f = Sop::from_cubes([Cube::from_literals([(Var(0), true), (Var(1), true)])]);
/// let tt = TruthTable::from_sop(&f, &[Var(0), Var(1)]);
/// assert!(!tt.bit(0b01));
/// assert!(tt.bit(0b11));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    n: u32,
    words: Vec<u64>,
}

impl TruthTable {
    /// Maximum supported variable count.
    pub const MAX_VARS: u32 = 24;

    /// The constant-`value` table over `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n > Self::MAX_VARS`.
    pub fn constant(n: u32, value: bool) -> TruthTable {
        assert!(
            n <= Self::MAX_VARS,
            "truth table limited to {} vars",
            Self::MAX_VARS
        );
        let rows = 1usize << n;
        let words = rows.div_ceil(64);
        let mut t = TruthTable {
            n,
            words: vec![if value { !0u64 } else { 0 }; words],
        };
        t.mask_tail();
        t
    }

    fn mask_tail(&mut self) {
        let rows = 1usize << self.n;
        if !rows.is_multiple_of(64) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (rows % 64)) - 1;
            }
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.n
    }

    /// The value of row `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m ≥ 2ⁿ`.
    pub fn bit(&self, m: usize) -> bool {
        assert!(m < 1usize << self.n, "row out of range");
        self.words[m / 64] >> (m % 64) & 1 != 0
    }

    /// Sets the value of row `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m ≥ 2ⁿ`.
    pub fn set_bit(&mut self, m: usize, value: bool) {
        assert!(m < 1usize << self.n, "row out of range");
        if value {
            self.words[m / 64] |= 1 << (m % 64);
        } else {
            self.words[m / 64] &= !(1 << (m % 64));
        }
    }

    /// The table as words: row `m` is bit `m % 64` of word `m / 64`, and
    /// the bits past row `2ⁿ − 1` are 0.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Word `w` of the rows whose variable `i` is set: the table of the
    /// projection `xᵢ`, with the bits past row `2ⁿ − 1` cleared.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n` or `w` is past the last word.
    pub fn rows_with(&self, i: u32, w: usize) -> u64 {
        assert!(
            i < self.n && w < self.words.len(),
            "variable or word out of range"
        );
        let word = if i < 6 {
            !CLEAR_IN_WORD[i as usize]
        } else if w >> (i - 6) & 1 == 1 {
            !0
        } else {
            0
        };
        word & self.valid_rows()
    }

    /// Word `w` of the table with variable `i` flipped: bit `m` holds row
    /// `m ^ 1 << i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n` or `w` is past the last word.
    pub fn flipped_word(&self, i: u32, w: usize) -> u64 {
        assert!(
            i < self.n && w < self.words.len(),
            "variable or word out of range"
        );
        if i < 6 {
            let (clear, s) = (CLEAR_IN_WORD[i as usize], 1 << i);
            (self.words[w] >> s) & clear | (self.words[w] & clear) << s
        } else {
            self.words[w ^ 1 << (i - 6)]
        }
    }

    /// The rows of one word that exist in an `n`-variable table.
    fn valid_rows(&self) -> u64 {
        if self.n >= 6 {
            !0
        } else {
            (1u64 << (1 << self.n)) - 1
        }
    }

    /// Number of ON-set minterms.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Builds the table of `f` using `order[i]` as the variable at bit `i`.
    ///
    /// Each cube is reduced to a pair of position masks (required-one,
    /// required-zero) and its covered rows are enumerated directly as
    /// submasks of the unconstrained positions — no per-row [`Sop::eval`]
    /// and no materialized minterm expansion.
    ///
    /// # Panics
    ///
    /// Panics if `order` is longer than [`Self::MAX_VARS`] or does not cover
    /// `f`'s support.
    pub fn from_sop(f: &Sop, order: &[Var]) -> TruthTable {
        let n = order.len() as u32;
        let support = f.support();
        for v in &support {
            assert!(order.contains(&v), "variable {v} missing from order");
        }
        let mut t = TruthTable::constant(n, false);
        let full = (1u64 << n) - 1;
        for cube in f.cubes() {
            let mut ones = 0u64;
            let mut zeros = 0u64;
            for (v, phase) in cube.literals() {
                let bit = 1u64 << order.iter().position(|&o| o == v).unwrap();
                if phase {
                    ones |= bit;
                } else {
                    zeros |= bit;
                }
            }
            // Rows covered by the cube: `ones` set, `zeros` clear, the rest
            // free. Walk the free positions by submask enumeration.
            let free = full & !ones & !zeros;
            let mut sub = free;
            loop {
                t.set_bit((ones | sub) as usize, true);
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & free;
            }
        }
        t
    }

    /// The table over `n` variables of a positive cover given as one
    /// variable set per cube (bit `i` of a mask is variable `i`): row `m` is
    /// ON when some mask is a subset of `m`. Each word is built whole: a
    /// cube contributes the rows of its low six variables to every word
    /// whose index holds its higher variables.
    ///
    /// # Panics
    ///
    /// Panics if `n > Self::MAX_VARS`; a mask naming a variable `≥ n` is a
    /// caller bug (checked in debug builds).
    pub fn from_positive_cubes(n: u32, masks: &[u64]) -> TruthTable {
        debug_assert!(masks.iter().all(|&c| n >= 64 || c >> n == 0));
        let mut t = TruthTable::constant(n, false);
        for (w, word) in t.words.iter_mut().enumerate() {
            for &c in masks {
                if (c >> 6) as usize & !w != 0 {
                    continue;
                }
                let mut rows = !0u64;
                let mut low = c & 63;
                while low != 0 {
                    rows &= !CLEAR_IN_WORD[low.trailing_zeros() as usize];
                    low &= low - 1;
                }
                *word |= rows;
            }
        }
        t.mask_tail();
        t
    }

    /// The table packed into one `u32` word; only valid for `n ≤ 5`.
    ///
    /// Row `m` of the function is bit `m` of the result, matching the row
    /// encoding of [`Self::bit`]. This is the canonical key format of the
    /// small-support threshold oracle in `tels-core`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 5`.
    pub fn as_u32(&self) -> u32 {
        assert!(self.n <= 5, "as_u32 requires ≤5 variables");
        self.words[0] as u32
    }

    /// Converts the table to a minterm-canonical [`Sop`] over `order`.
    pub fn to_sop(&self, order: &[Var]) -> Sop {
        assert_eq!(order.len() as u32, self.n);
        let mut cubes = Vec::new();
        for m in 0..1usize << self.n {
            if self.bit(m) {
                cubes.push(crate::cube::Cube::from_literals(
                    order.iter().enumerate().map(|(i, &v)| (v, m >> i & 1 != 0)),
                ));
            }
        }
        Sop::from_cubes(cubes)
    }

    /// The *functional* polarity of bit-position `i`, or `None` if the
    /// function does not depend on it.
    ///
    /// Positive: `f(xᵢ=0) ≤ f(xᵢ=1)` pointwise; negative: the reverse;
    /// binate: neither.
    pub fn polarity(&self, i: u32) -> Option<Polarity> {
        assert!(i < self.n);
        let mut le = true; // f0 <= f1 everywhere
        let mut ge = true; // f0 >= f1 everywhere
        let mut depends = false;
        for m in 0..1usize << self.n {
            if m >> i & 1 == 1 {
                continue;
            }
            let f0 = self.bit(m);
            let f1 = self.bit(m | 1 << i);
            if f0 != f1 {
                depends = true;
                if f0 && !f1 {
                    le = false;
                }
                if !f0 && f1 {
                    ge = false;
                }
            }
        }
        if !depends {
            None
        } else if le {
            Some(Polarity::Positive)
        } else if ge {
            Some(Polarity::Negative)
        } else {
            Some(Polarity::Binate)
        }
    }

    /// Whether every bit-position is functionally unate or unused.
    pub fn is_unate(&self) -> bool {
        (0..self.n).all(|i| self.polarity(i) != Some(Polarity::Binate))
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, {} ones)", self.n, self.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;

    fn sop(cubes: &[&[(u32, bool)]]) -> Sop {
        Sop::from_cubes(
            cubes
                .iter()
                .map(|c| Cube::from_literals(c.iter().map(|&(v, p)| (Var(v), p)))),
        )
    }

    #[test]
    fn constant_tables() {
        let t = TruthTable::constant(3, true);
        assert_eq!(t.count_ones(), 8);
        let f = TruthTable::constant(3, false);
        assert_eq!(f.count_ones(), 0);
    }

    #[test]
    fn roundtrip_sop() {
        let f = sop(&[&[(0, true), (1, false)], &[(2, true)]]);
        let order = [Var(0), Var(1), Var(2)];
        let t = TruthTable::from_sop(&f, &order);
        let g = t.to_sop(&order);
        assert!(f.equivalent(&g));
    }

    #[test]
    fn functional_polarity() {
        // f = x0 ∨ x̄1 — positive in x0, negative in x1.
        let f = sop(&[&[(0, true)], &[(1, false)]]);
        let t = TruthTable::from_sop(&f, &[Var(0), Var(1)]);
        assert_eq!(t.polarity(0), Some(Polarity::Positive));
        assert_eq!(t.polarity(1), Some(Polarity::Negative));
        assert!(t.is_unate());
        // xor is binate in both.
        let x = sop(&[&[(0, true), (1, false)], &[(0, false), (1, true)]]);
        let tx = TruthTable::from_sop(&x, &[Var(0), Var(1)]);
        assert_eq!(tx.polarity(0), Some(Polarity::Binate));
        assert!(!tx.is_unate());
    }

    #[test]
    fn functional_vs_syntactic_unateness() {
        // f = x0·x1 ∨ x0·x̄1 is syntactically binate in x1 but functionally
        // independent of it.
        let f = sop(&[&[(0, true), (1, true)], &[(0, true), (1, false)]]);
        assert!(!f.is_unate());
        let t = TruthTable::from_sop(&f, &[Var(0), Var(1)]);
        assert_eq!(t.polarity(1), None);
        assert!(t.is_unate());
    }

    #[test]
    fn masked_from_sop_matches_eval() {
        // Mixed-phase cubes with overlapping covers and an unused order
        // variable: the mask-based builder must agree with row-by-row eval.
        let f = sop(&[
            &[(0, true), (2, false)],
            &[(1, false), (3, true)],
            &[(0, false)],
        ]);
        let order = [Var(0), Var(1), Var(2), Var(3), Var(4)];
        let t = TruthTable::from_sop(&f, &order);
        for m in 0..32usize {
            assert_eq!(t.bit(m), f.eval(|v| m >> v.0 & 1 != 0), "row {m}");
        }
    }

    #[test]
    fn positive_cubes_match_from_sop() {
        let mut state = 0x7ab1_e5ee_d000_0001u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0u32, 1, 3, 5, 6, 7, 9, 12] {
            for _ in 0..20 {
                let masks: Vec<u64> = (0..next() % 5)
                    .map(|_| if n == 0 { 0 } else { next() & ((1 << n) - 1) })
                    .collect();
                let order: Vec<Var> = (0..n).map(Var).collect();
                let cover = Sop::from_cubes(masks.iter().map(|&c| {
                    Cube::from_literals((0..n).filter(|&i| c >> i & 1 == 1).map(|i| (Var(i), true)))
                }));
                assert_eq!(
                    TruthTable::from_positive_cubes(n, &masks),
                    TruthTable::from_sop(&cover, &order),
                    "n = {n}, masks {masks:?}"
                );
            }
        }
    }

    #[test]
    fn packed_u32_view() {
        // x0·x1 over 2 vars: only row 0b11 is ON.
        let f = sop(&[&[(0, true), (1, true)]]);
        let t = TruthTable::from_sop(&f, &[Var(0), Var(1)]);
        assert_eq!(t.as_u32(), 0b1000);
        assert_eq!(TruthTable::constant(5, true).as_u32(), u32::MAX);
    }

    #[test]
    fn word_helpers_match_row_definitions() {
        for n in 1..=8u32 {
            let mut t = TruthTable::constant(n, false);
            for m in 0..1usize << n {
                // A fixed scramble of the rows, so no flip is the identity.
                t.set_bit(m, ((m * 0x9e37) >> 3) & 1 == 1);
            }
            for i in 0..n {
                for w in 0..t.words().len() {
                    for b in 0..64 {
                        let m = w * 64 + b;
                        let (with, flipped) =
                            (t.rows_with(i, w) >> b & 1, t.flipped_word(i, w) >> b & 1);
                        if m < 1 << n {
                            assert_eq!(with, (m >> i & 1) as u64, "n {n} var {i} row {m}");
                            assert_eq!(flipped == 1, t.bit(m ^ 1 << i), "n {n} var {i} row {m}");
                        } else {
                            assert_eq!((with, flipped), (0, 0), "n {n} var {i} row {m}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn big_table_masking() {
        // 7 vars → 128 rows → exactly 2 words; 5 vars → 32 rows → tail mask.
        let t = TruthTable::constant(5, true);
        assert_eq!(t.count_ones(), 32);
    }
}
