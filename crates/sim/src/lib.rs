//! # fegen-sim — cycle-approximate CPU simulation and measurement
//!
//! The paper measures loop-unrolling variants on "an Intel single core
//! Pentium … at 2.8 GHz" (§V). This crate provides the reproduction's
//! hardware substrate: a deterministic, cycle-approximate simulator for the
//! RTL of `fegen-rtl`, modelling the mechanisms that make unroll factors
//! matter on such a machine —
//!
//! - an in-order, dual-issue pipeline with realistic instruction latencies
//!   ([`cost`]),
//! - direct-mapped I- and D-caches and a two-bit branch predictor
//!   ([`cache`]),
//! - an interpreter that executes RTL and attributes cycles to the function
//!   executing them ([`interp`]), running each function as flat micro-ops
//!   decoded once (`image`),
//! - the paper's measurement statistics — log transform + 1.5 × IQR outlier
//!   rejection over repeated noisy runs ([`measure`]),
//! - training-data generation: per-loop cycle tables over unroll factors
//!   0–15 with GCC-default factors elsewhere ([`oracle`]).
//!
//! ```
//! use fegen_sim::interp::{Arg, Machine, SimConfig, Value};
//!
//! let ast = fegen_lang::parse_program(
//!     "int f(int n) { int i; int s; s = 0;
//!        for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }",
//! )?;
//! let rtl = fegen_rtl::lower::lower_program(&ast)?;
//! let mut m = Machine::new(&rtl, SimConfig::default());
//! assert_eq!(m.call("f", &[Arg::Int(10)])?, Some(Value::I(45)));
//! assert!(m.cycles_of("f") > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```


// Library code must report through telemetry events or typed errors,
// never by printing; binaries are exempt (their crate roots are in bin/).
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cache;
pub mod cost;
mod image;
pub mod interp;
pub mod measure;
pub mod oracle;

pub use interp::{Arg, Machine, SimConfig, SimError, Value};
pub use oracle::{
    measure_workload, CallSpec, LoopMeasurement, LoopSite, OracleConfig, ProgramSnapshot,
    SnapshotStats, Workload,
};
