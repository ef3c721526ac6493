//! Memory object models for Cerberus-rs.
//!
//! The paper's central observation is that the semantics of pointers and
//! memory is where the ISO and de facto standards diverge most (§2), and its
//! candidate *de facto memory object model* (§5.9) gives pointer and integer
//! values a **provenance** — empty, a single allocation ID, or a wildcard —
//! used at access time to decide whether an access is defined.
//!
//! This crate provides:
//!
//! * the abstract memory object model interface ([`model::MemoryModel`]):
//!   the §5.9 signature (create/kill, typed load/store, the ptrops, the
//!   intptr casts, relational operations, UB reporting) that the executor in
//!   `cerberus-exec` is generic over;
//! * the value representations ([`value`]): integer and pointer values
//!   carrying provenance, and structured memory values;
//! * a configurable memory engine ([`state::MemState`], exported as
//!   [`model::ConcreteEngine`] — the first `MemoryModel` implementation)
//!   implementing object creation/kill, typed loads and stores over
//!   representation bytes, padding semantics, effective types, and the
//!   pointer operations (`ptrop`s);
//! * a second, genuinely different implementation: the **symbolic provenance
//!   engine** ([`symbolic::SymbolicEngine`]), which places each allocation in
//!   its own symbolic address region, stores typed cells instead of
//!   representation bytes, and checks footprint/lifetime constraints lazily
//!   at use (twin-allocation-style resolution of one-past pointers and
//!   intptr round trips);
//! * closed-world dispatch between the two ([`model::AnyEngine`], what
//!   [`config::ModelConfig::instantiate`] returns);
//! * a family of model configurations ([`config::ModelConfig`]): the concrete
//!   (provenance-erasing) model, the candidate de facto provenance model, a
//!   strict-ISO model, a GCC-like provenance-optimising model, a CompCert-style
//!   block model, a CHERI capability model, tool-emulation profiles for
//!   the §3 comparison (sanitisers, tis-interpreter, KCC), and the symbolic
//!   model;
//! * CHERI capability semantics ([`cheri`]) reproducing the §4 findings;
//! * resource budgets ([`limits::ResourceLimits`]), which the interpreter in
//!   `cerberus-exec` enforces (the engines carry none), and a fault-injection
//!   arm ([`model::AnyEngine::Panicking`], see [`fault`]) for drilling the
//!   differential harness's panic containment.
//!
//! How to implement and register a further model is documented in
//! `docs/MEMORY_MODELS.md`.
//!
//! # Example
//!
//! ```
//! use cerberus_ast::ctype::{Ctype, IntegerType};
//! use cerberus_ast::env::ImplEnv;
//! use cerberus_ast::layout::TagRegistry;
//! use cerberus_memory::config::ModelConfig;
//! use cerberus_memory::model::MemoryModel;
//! use cerberus_memory::state::{AllocKind, MemState};
//! use cerberus_memory::value::MemValue;
//!
//! let mut mem = MemState::new(ModelConfig::de_facto(), ImplEnv::lp64(), TagRegistry::new());
//! let int = Ctype::integer(IntegerType::Int);
//! let p = mem.create(&int, AllocKind::Automatic, Some("x")).unwrap();
//! mem.store(&int, &p, &MemValue::int(IntegerType::Int, 42)).unwrap();
//! let loaded = mem.load(&int, &p).unwrap();
//! assert_eq!(loaded.as_int(), Some(42));
//! ```

pub mod cheri;
pub mod config;
pub mod fault;
pub mod limits;
pub mod model;
pub mod state;
pub mod symbolic;
pub mod value;

pub use config::{
    EngineKind, FieldSet, IntToPtrSemantics, ModelConfig, PaddingSemantics, RelationalSemantics,
    ToolProfile, UninitSemantics,
};
pub use limits::{ResourceKind, ResourceLimits, TimeoutKind};
pub use model::{AnyEngine, ConcreteEngine, MemoryModel, ModelResult};
pub use state::{AllocKind, Allocation, MemError, MemState};
pub use symbolic::SymbolicEngine;
pub use value::{AllocId, IntegerValue, MemValue, PointerValue, Provenance};
