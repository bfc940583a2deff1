//! # tels — Threshold Logic Network Synthesis (facade crate)
//!
//! A complete, from-scratch Rust reproduction of
//! *"Synthesis and Optimization of Threshold Logic Networks with Application
//! to Nanotechnologies"* (Zhang, Gupta, Zhong, Jha — DATE 2004).
//!
//! This crate re-exports the whole TELS-RS workspace behind one dependency:
//!
//! * [`logic`] — the Boolean substrate (cube algebra, networks, algebraic
//!   factoring, BLIF I/O, simulation) standing in for SIS.
//! * [`ilp`] — the exact rational LP/ILP solver standing in for LP_SOLVE.
//! * [`core`] — the TELS synthesizer itself (threshold identification,
//!   collapsing, splitting, one-to-one baseline, perturbation analysis).
//! * [`circuits`] — deterministic benchmark circuits standing in for the
//!   MCNC suite of the paper's evaluation.
//! * [`trace`] — span-based tracing, the per-gate synthesis provenance
//!   journal, and Chrome-trace / profile exporters.
//! * [`serve`] — the batched synthesis daemon (`tels serve`): framed JSON
//!   protocol, shared and persistent realization caches.
//!
//! The most common entry points are also re-exported at the top level.
//!
//! ## Quickstart
//!
//! ```
//! use tels::{synthesize, TelsConfig};
//! use tels::logic::blif;
//! use tels::logic::opt::script_algebraic;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Read (or build) a Boolean network.
//! let net = blif::parse("\
//! .model demo
//! .inputs a b c d
//! .outputs f
//! .names a b c d f
//! 11-- 1
//! 1-1- 1
//! ---1 1
//! .end
//! ")?;
//! // 2. Algebraically factor it (the required input form, §V).
//! let factored = script_algebraic(&net);
//! // 3. Synthesize a threshold network with the paper's defaults
//! //    (ψ = 3, δ_on = 0, δ_off = 1).
//! let tn = synthesize(&factored, &TelsConfig::default())?;
//! // 4. Validate by simulation, as the paper does (§VI).
//! assert!(tn.verify_against(&net, 14, 512, 0)?.is_none());
//! println!("{} gates, {} levels, area {}", tn.num_gates(), tn.depth(), tn.area());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tels_circuits as circuits;
pub use tels_core as core;
pub use tels_fuzz as fuzz;
pub use tels_ilp as ilp;
pub use tels_logic as logic;
pub use tels_serve as serve;
pub use tels_trace as trace;

pub use tels_core::{
    check_threshold, map_one_to_one, map_to_majority, synthesize, synthesize_best,
    synthesize_with_stats, theorem1_refutes, theorem2_extend, to_verilog, GatePath, MajorityStats,
    NetworkReport, Realization, SplitHeuristic, SynthError, SynthStats, SynthStrategy, TelsConfig,
    ThresholdGate, ThresholdNetwork,
};
pub use tels_logic::{Cube, Network, Sop, Var};
