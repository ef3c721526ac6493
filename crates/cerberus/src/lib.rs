//! Cerberus-rs: an executable semantics for a substantial fragment of C,
//! reproducing the architecture of "Into the Depths of C: Elaborating the De
//! Facto Standards" (PLDI 2016).
//!
//! The pipeline mirrors the paper's Fig. 1: C source is parsed by a
//! clean-slate parser into `Cabs`, desugared and type-annotated into `Ail`,
//! elaborated into the `Core` calculus, and executed by the Core operational
//! semantics linked against a pluggable **memory object model** (any
//! [`cerberus_memory::MemoryModel`]) — the candidate de facto provenance
//! model, a concrete model, a strict-ISO model, a CHERI capability model, or
//! tool-emulation profiles.
//!
//! The front end is exposed as a staged [`pipeline::Session`] producing
//! reusable artifacts (`Parsed → Desugared → Elaborated`) and memoising
//! elaboration per source; an [`pipeline::Elaborated`] program can be
//! executed any number of times under different models, and
//! [`differential::DifferentialRunner`] runs one artifact across a whole
//! model list, in runner order on the calling thread, returning the §3-style
//! outcome matrix. Every named model is a configuration of the one in-tree
//! engine (`cerberus_memory::MemState`); `symbolic` differs from the others
//! in placing each allocation in its own address region.
//!
//! # Quick start
//!
//! ```
//! use cerberus::{Config, Session};
//!
//! let outcome = Session::new(Config::default())
//!     .run_source("int main(void) { int x = 20; return x + 22; }")
//!     .unwrap();
//! assert_eq!(outcome.exit_value(), Some(42));
//! ```
//!
//! # Differential runs
//!
//! ```
//! use cerberus::{DifferentialRunner, Session};
//!
//! let program = Session::default()
//!     .elaborate("int main(void) { return 0; }")
//!     .unwrap();
//! let matrix = DifferentialRunner::all_named().run(&program);
//! assert!(matrix.all_agree());
//! ```

pub mod differential;
pub mod pipeline;
pub mod tvc;

pub use cerberus_ail as ail;
pub use cerberus_analysis as analysis;
pub use cerberus_ast as ast;
pub use cerberus_core as core_lang;
pub use cerberus_elab as elab;
pub use cerberus_exec as exec;
pub use cerberus_memory as memory;
pub use cerberus_parser as parser;

pub use cerberus_ast::panic_payload;
pub use differential::{AgreementClass, DifferentialRunner, ModelRun, OutcomeMatrix};
pub use pipeline::{
    run, run_with_model, CacheStats, Config, Desugared, Elaborated, Parsed, PipelineError,
    PipelineErrorKind, RunOutcome, Session, SessionStats,
};
