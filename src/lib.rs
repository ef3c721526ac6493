//! Workspace-level facade for the Cerberus-rs reproduction of "Into the
//! Depths of C: Elaborating the De Facto Standards" (PLDI 2016).
//!
//! This crate exists to host the repository-level examples and integration
//! tests; the functionality lives in the member crates, re-exported here for
//! convenience:
//!
//! * [`cerberus`] — the staged Session pipeline (`parse → desugar →
//!   elaborate`), producing reusable [`cerberus::Elaborated`] artifacts that
//!   execute under any memory model, and the
//!   [`cerberus::DifferentialRunner`] for one-artifact/many-models outcome
//!   matrices;
//! * [`cerberus_memory`] — the abstract [`cerberus_memory::MemoryModel`]
//!   interface and its first implementation, the configurable
//!   [`cerberus_memory::ConcreteEngine`];
//! * [`cerberus_exec`] — the Core operational semantics and drivers, generic
//!   over the memory model;
//! * [`cerberus_litmus`] — the de facto semantic test suite;
//! * [`cerberus_gen`] — the csmith-lite differential-testing harness;
//! * [`cerberus_queue`] — the job queue running (program × model-set) jobs
//!   on a worker pool that takes them from one FIFO;
//! * [`cerberus_server`] — the std-only HTTP/1.1 UB-oracle service over that
//!   pool (see `docs/SERVICE.md`);
//! * [`cerberus_survey`] — the survey datasets and analysis.
//!
//! See `ARCHITECTURE.md` at the repository root for the crate map.

pub use cerberus;
pub use cerberus_ail;
pub use cerberus_ast;
pub use cerberus_core;
pub use cerberus_elab;
pub use cerberus_exec;
pub use cerberus_gen;
pub use cerberus_litmus;
pub use cerberus_memory;
pub use cerberus_parser;
pub use cerberus_queue;
pub use cerberus_server;
pub use cerberus_survey;
