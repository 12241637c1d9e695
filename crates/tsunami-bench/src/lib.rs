//! Benchmark harness regenerating every table and figure of the Tsunami
//! paper's evaluation (§6).
//!
//! The [`experiments`] module contains one function per table/figure; the
//! `repro` binary dispatches to them. Absolute numbers differ from the paper
//! (different hardware, synthetic data, laptop-scale sizes) but the *shape*
//! of each result — which index wins, by roughly what factor, and where the
//! crossovers fall — is what the experiments reproduce.
//!
//! All query-execution experiments run through the `tsunami-engine`
//! `Database` facade: one table per index family, measured through table
//! handles.

pub mod experiments;
pub mod harness;
pub mod net;
pub mod table;
pub mod wal;

pub use harness::{HarnessConfig, IndexReport};
pub use table::Table;
