//! # rcb-bench
//!
//! The experiment harness: one module per paper claim (see DESIGN.md §4 for
//! the experiment index), run one at a time (`rcbsim exp e1`) or all
//! together (`rcbsim exp all`) through the `rcbsim` CLI ([`cli`]).
//!
//! Outputs are markdown tables plus verdicts, designed to be pasted into
//! EXPERIMENTS.md verbatim; `rcbsim exp` exits nonzero when a verdict
//! fails. End-to-end throughput is measured by the standalone benchmark
//! package in `benchmark/` (see its README), not by this crate.

pub mod cli;
pub mod experiments;
pub mod scale;

pub use scale::Scale;
