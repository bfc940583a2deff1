//! # tels-logic — Boolean logic substrate for TELS-RS
//!
//! This crate stands in for the parts of **SIS** that the TELS paper builds
//! on: cube/sum-of-products algebra, multi-level Boolean networks, algebraic
//! factorization (`script.algebraic` / `script.boolean`), technology
//! decomposition, BLIF I/O, and simulation-based verification.
//!
//! The main types are:
//!
//! * [`Cube`] / [`Sop`] — two-level logic over variable indices, with exact
//!   complementation, tautology checking, cofactoring and minimization.
//! * [`Network`] — a multi-level combinational Boolean network whose nodes
//!   carry [`Sop`] functions over their fanins.
//! * [`opt`] — optimization scripts mirroring SIS's `script.algebraic` and
//!   `script.boolean`.
//! * [`blif`] — reader/writer for the Berkeley Logic Interchange Format used
//!   by the MCNC benchmark suite.
//! * [`sim`] — 64-way packed simulation and equivalence checking.
//!
//! ## Example
//!
//! Build `f = x1·x2 ∨ x3`, complement it, and verify the complement:
//!
//! ```
//! use tels_logic::{Cube, Sop, Var};
//!
//! let f = Sop::from_cubes([
//!     Cube::from_literals([(Var(0), true), (Var(1), true)]),
//!     Cube::from_literals([(Var(2), true)]),
//! ]);
//! let g = f.complement();
//! assert!(f.and(&g).is_zero());
//! assert!(f.or(&g).is_tautology());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
pub mod blif;
mod cube;
mod error;
pub mod factor;
pub mod mutate;
mod network;
pub mod opt;
pub mod rng;
pub mod sim;
mod sop;
mod truth;

pub use bitset::VarSet;
pub use cube::{Cube, Polarity, Var};
pub use error::LogicError;
pub use network::{Network, NodeId, NodeKind};
pub use sop::{SignatureScratch, Sop};
pub use truth::TruthTable;
