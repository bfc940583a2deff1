//! Synthesis configuration.

use tels_ilp::Limits;

/// Overall synthesis strategy.
///
/// The paper's algorithm traverses backward from the outputs, collapsing
/// and splitting (Fig. 3); its conclusion suggests "other approaches, such
/// as divide and conquer, could also be used". [`SynthStrategy::Shannon`]
/// implements that suggestion: non-threshold expressions are decomposed by
/// Shannon expansion on the most binate variable, recursively, with each
/// cofactor synthesized independently and recombined through a 2:1
/// mux-style gate pair. Compare the two with
/// `cargo bench -p tels-bench --bench ablation_strategy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SynthStrategy {
    /// The paper's backward collapse/split flow (Figs. 3-8).
    #[default]
    PaperBackward,
    /// Top-down Shannon divide and conquer (the paper's future-work idea).
    Shannon,
}

/// Which unate-splitting heuristic to use (§V-C condition 3).
///
/// The paper splits on the most frequent variable, arguing it "reduces the
/// likelihood of a function being non-threshold"; the naive alternative
/// splits the cube list in half. `Halves` exists for the ablation study
/// (`cargo bench -p tels-bench --bench ablation_split`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitHeuristic {
    /// Split on the most frequently occurring variable (the paper's rule).
    #[default]
    Frequency,
    /// Split the cube list into two halves regardless of variables.
    Halves,
}

/// The configuration fields a cached realization *value* depends on.
///
/// A [`RealizationCache`](crate::RealizationCache) entry is decided in
/// canonical space from the function key plus these fields — the margins
/// δ_on/δ_off, the weight cap, and the ILP effort limits. Two
/// configurations with equal keys may share (or persist/reload) one cache;
/// the remaining knobs (ψ, strategy, split heuristic, tier 0, tier 0.5)
/// change which queries are *asked* or which tier answers them, never
/// what a given key's answer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// ON-side defect tolerance δ_on.
    pub delta_on: i64,
    /// OFF-side defect tolerance δ_off.
    pub delta_off: i64,
    /// Weight-magnitude cap (`None` = unbounded).
    pub weight_cap: Option<i64>,
    /// ILP pivot limit.
    pub max_pivots: u64,
    /// ILP branch-and-bound node limit.
    pub max_nodes: u64,
}

impl CacheKey {
    /// Stable fixed-width encoding for cache-file headers. `weight_cap` is
    /// stored as the cap itself (caps are ≥ 1) with `0` meaning `None`.
    pub fn encode(&self) -> [u64; 5] {
        [
            self.delta_on as u64,
            self.delta_off as u64,
            self.weight_cap.unwrap_or(0) as u64,
            self.max_pivots,
            self.max_nodes,
        ]
    }

    /// Inverse of [`CacheKey::encode`].
    pub fn decode(words: [u64; 5]) -> CacheKey {
        CacheKey {
            delta_on: words[0] as i64,
            delta_off: words[1] as i64,
            weight_cap: (words[2] != 0).then_some(words[2] as i64),
            max_pivots: words[3],
            max_nodes: words[4],
        }
    }
}

/// Parameters of a TELS synthesis run.
///
/// Mirrors the user-controllable knobs of the paper's tool: the fanin
/// restriction ψ and the defect tolerances δ_on / δ_off of Eq. (1), plus
/// implementation limits for the ILP solver (§V-E) and the reference
/// toggles of the two table-driven tiers ahead of it.
///
/// # Example
///
/// ```
/// use tels_core::TelsConfig;
///
/// let config = TelsConfig::default();
/// assert_eq!(config.psi, 3);
/// assert_eq!(config.delta_on, 0);
/// assert_eq!(config.delta_off, 1);
/// let relaxed = TelsConfig { psi: 6, ..TelsConfig::default() };
/// assert_eq!(relaxed.psi, 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelsConfig {
    /// Fanin restriction ψ on every threshold gate (paper default: 3; §VI-B
    /// finds 3–5 gives good results).
    pub psi: usize,
    /// ON-side defect tolerance δ_on: ON minterms must reach `T + δ_on`.
    pub delta_on: i64,
    /// OFF-side defect tolerance δ_off: OFF minterms must stay at or below
    /// `T − δ_off` (the paper fixes this at 1).
    ///
    /// Must be at least 1: the physical gate switches at `T`, so an OFF
    /// minterm must sit strictly below it, and `δ_off = 1` is the smallest
    /// integer margin (this is also what makes the paper's worked example
    /// `x₁y₂ ∨ x₁y₃ → ⟨2,1,1;3⟩` come out).
    pub delta_off: i64,
    /// Effort limits for each threshold-check ILP; exceeding them counts as
    /// "not a threshold function" and triggers splitting (§V-E).
    pub ilp_limits: Limits,
    /// Unate-splitting heuristic (ablation knob; the paper uses
    /// [`SplitHeuristic::Frequency`]).
    pub split_heuristic: SplitHeuristic,
    /// Overall synthesis strategy (paper's backward flow vs the
    /// divide-and-conquer alternative its conclusion suggests).
    pub strategy: SynthStrategy,
    /// Optional cap on every weight magnitude (and the threshold).
    ///
    /// RTDs have a limited dynamic range for the programmable peak current
    /// that implements a weight; functions that need larger weights are
    /// treated as non-threshold and split further. `None` (the paper's
    /// setting) leaves weights unbounded.
    pub weight_cap: Option<i64>,
    /// Answer small-support queries from the tier-0 truth-table oracle: a
    /// lazily built enumeration of every threshold function of up to 5
    /// variables, keyed by truth table and storing the same minimal
    /// realization the ILP would return. Queries it covers never construct
    /// an ILP *and never touch the realization cache* — the cache only
    /// stores large-support answers. The oracle tabulates the paper's
    /// default margins, so it silently disengages (see
    /// [`Self::tier0_active`]) for non-default `delta_on`/`delta_off`, a
    /// `weight_cap`, or non-default ILP limits; results are bit-identical
    /// either way.
    pub use_tier0: bool,
    /// Run the tier-0.5 pseudo-Boolean decision procedure on supports 6–9
    /// before building an ILP: a bounded search over the merged ILP's own
    /// feasible region that answers only when it finds a provably unique
    /// optimum (so `.tnet` output is byte-identical with the tier on or
    /// off), plus a 2-asummability non-thresholdness proof. Like tier 0 it
    /// is built for the paper's default margins and silently disengages
    /// (see [`Self::tier05_active`]) for non-default `delta_on`/`delta_off`,
    /// a `weight_cap`, or non-default ILP limits.
    pub use_tier05: bool,
}

impl Default for TelsConfig {
    fn default() -> Self {
        TelsConfig {
            psi: 3,
            delta_on: 0,
            delta_off: 1,
            ilp_limits: Limits::default(),
            split_heuristic: SplitHeuristic::default(),
            strategy: SynthStrategy::default(),
            weight_cap: None,
            use_tier0: true,
            use_tier05: true,
        }
    }
}

impl TelsConfig {
    /// The classical textbook threshold-logic setting: ON minterms reach
    /// `T`, OFF minterms stay strictly below (`Σ < T`, i.e. `Σ ≤ T − 1` over
    /// integers).
    ///
    /// Over integer weights this coincides with the paper's default
    /// (δ_on = 0, δ_off = 1), so the checker recognizes exactly the
    /// classical threshold functions: 104 of the 256 three-input functions
    /// and 1,882 of the 65,536 four-input functions.
    pub fn classical() -> TelsConfig {
        TelsConfig {
            delta_on: 0,
            // Integer encoding of the strict inequality Σ < T.
            delta_off: 1,
            ..TelsConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `psi < 2` or a tolerance is negative — such configurations
    /// cannot realize any two-input gate.
    pub fn assert_valid(&self) {
        assert!(self.psi >= 2, "fanin restriction must be at least 2");
        assert!(self.delta_on >= 0, "delta_on must be non-negative");
        assert!(
            self.delta_off >= 1,
            "delta_off must be at least 1 (OFF minterms sit strictly below T)"
        );
        if let Some(cap) = self.weight_cap {
            assert!(cap >= 1, "weight cap must be at least 1");
        }
    }

    /// Whether the tier-0 truth-table oracle may answer queries under this
    /// configuration.
    ///
    /// The oracle tabulates realizations for the paper's default margins
    /// (`δ_on = 0`, `δ_off = 1`), no weight cap, and unlimited ILP effort;
    /// any other setting changes which realizations are feasible or
    /// optimal, so those runs bypass tier 0 entirely and behave exactly as
    /// before this tier existed.
    pub fn tier0_active(&self) -> bool {
        self.use_tier0
            && self.delta_on == 0
            && self.delta_off == 1
            && self.weight_cap.is_none()
            && self.ilp_limits == Limits::default()
    }

    /// Whether the tier-0.5 decision procedure may answer queries under
    /// this configuration. Same scope rule as [`Self::tier0_active`]: the
    /// procedure's search space and non-thresholdness proof assume the
    /// paper's default margins, no weight cap, and default ILP limits.
    pub fn tier05_active(&self) -> bool {
        self.use_tier05
            && self.delta_on == 0
            && self.delta_off == 1
            && self.weight_cap.is_none()
            && self.ilp_limits == Limits::default()
    }

    /// The cache-compatibility key of this configuration: configurations
    /// with equal keys may share one realization cache (see [`CacheKey`]).
    pub fn cache_key(&self) -> CacheKey {
        CacheKey {
            delta_on: self.delta_on,
            delta_off: self.delta_off,
            weight_cap: self.weight_cap,
            max_pivots: self.ilp_limits.max_pivots,
            max_nodes: self.ilp_limits.max_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = TelsConfig::default();
        assert_eq!((c.psi, c.delta_on, c.delta_off), (3, 0, 1));
    }

    #[test]
    fn tier0_gating() {
        assert!(TelsConfig::default().tier0_active());
        assert!(TelsConfig::classical().tier0_active());
        let off = TelsConfig {
            use_tier0: false,
            ..TelsConfig::default()
        };
        assert!(!off.tier0_active());
        let margins = TelsConfig {
            delta_on: 1,
            ..TelsConfig::default()
        };
        assert!(!margins.tier0_active());
        let capped = TelsConfig {
            weight_cap: Some(4),
            ..TelsConfig::default()
        };
        assert!(!capped.tier0_active());
        let limited = TelsConfig {
            ilp_limits: Limits {
                max_nodes: 7,
                ..Limits::default()
            },
            ..TelsConfig::default()
        };
        assert!(!limited.tier0_active());
    }

    #[test]
    fn tier05_gating() {
        assert!(TelsConfig::default().tier05_active());
        assert!(TelsConfig::classical().tier05_active());
        let off = TelsConfig {
            use_tier05: false,
            ..TelsConfig::default()
        };
        assert!(!off.tier05_active());
        assert!(off.tier0_active(), "tier gates are independent");
        let margins = TelsConfig {
            delta_off: 2,
            ..TelsConfig::default()
        };
        assert!(!margins.tier05_active());
        let capped = TelsConfig {
            weight_cap: Some(4),
            ..TelsConfig::default()
        };
        assert!(!capped.tier05_active());
        let limited = TelsConfig {
            ilp_limits: Limits {
                max_pivots: 7,
                ..Limits::default()
            },
            ..TelsConfig::default()
        };
        assert!(!limited.tier05_active());
    }

    #[test]
    #[should_panic(expected = "fanin restriction")]
    fn psi_one_rejected() {
        TelsConfig {
            psi: 1,
            ..TelsConfig::default()
        }
        .assert_valid();
    }
}
