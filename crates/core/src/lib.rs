//! # tels-core — Threshold logic network synthesis (TELS)
//!
//! A from-scratch Rust reproduction of *"Synthesis and Optimization of
//! Threshold Logic Networks with Application to Nanotechnologies"*
//! (Zhang, Gupta, Zhong, Jha — DATE 2004): the first multi-level,
//! multi-output threshold-network synthesis methodology.
//!
//! The flow takes an algebraically-factored Boolean [`Network`] and produces
//! a functionally equivalent [`ThresholdNetwork`] of linear threshold gates
//! (the gate primitive of RTD and QCA nanotechnologies):
//!
//! 1. **Collapse** each output node up to the fanin restriction ψ,
//!    preserving fanout nodes as shared boundaries (Fig. 4).
//! 2. **Identify** threshold functions with an exact ILP over the minimal
//!    ON/OFF-cube inequalities (Fig. 6), honoring the defect tolerances
//!    δ_on / δ_off of Eq. (1).
//! 3. **Split** non-threshold nodes with the unate (Fig. 7) and binate
//!    (Fig. 8) heuristics, reusing Theorem 1 as a fast refutation filter and
//!    Theorem 2 to absorb OR inputs into existing gates.
//!
//! The [`map_one_to_one`] baseline and the [`perturb`] module reproduce the
//! paper's comparison flow (Table I) and its parametric-variation
//! experiments (Figs. 11–12).
//!
//! ## Quickstart
//!
//! ```
//! use tels_core::{synthesize, TelsConfig};
//! use tels_logic::blif;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = blif::parse("\
//! .model demo
//! .inputs a b c
//! .outputs f
//! .names a b c f
//! 11- 1
//! --1 1
//! .end
//! ")?;
//! let tn = synthesize(&net, &TelsConfig::default())?;
//! assert_eq!(tn.num_gates(), 1); // a·b ∨ c is a single threshold gate
//! assert!(tn.verify_against(&net, 14, 256, 0)?.is_none());
//! println!("area = {}", tn.area());
//! # Ok(())
//! # }
//! ```
//!
//! [`Network`]: tels_logic::Network

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod check;
mod chow;
mod config;
mod error;
pub mod eval;
mod map11;
pub mod perturb;
mod qca;
mod split;
mod synth;
mod theorems;
mod tier0;
mod tier05;
mod tnet;
mod verilog;

pub use cache::{CanonicalRealization, RealizationCache};
pub use check::{check_threshold, Realization, SolverBreakdown};
pub use config::{CacheKey, SplitHeuristic, SynthStrategy, TelsConfig};
pub use error::SynthError;
pub use eval::{verify_tn_vs_network, verify_tn_vs_tn, EvalPlan, EvalScratch};
pub use map11::{map_one_to_one, synthesize_best};
pub use qca::{map_to_majority, MajorityStats};
pub use split::{split_binate, split_cubes_k, split_unate, split_unate_with, UnateSplit};
pub use synth::{
    synthesize, synthesize_with_cache, synthesize_with_stats, GatePath, SynthStages, SynthStats,
};
pub use theorems::{theorem1_refutes, theorem2_extend};
pub use tier0::prewarm_tier0;
pub use tnet::{parse_tnet, NetworkReport, ThresholdGate, ThresholdNetwork, TnId};
pub use verilog::to_verilog;
