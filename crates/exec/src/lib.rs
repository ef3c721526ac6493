//! The Core operational semantics and execution drivers (§5.4, §5.6, §6).
//!
//! The evaluator executes elaborated [`cerberus_core::CoreProgram`]s against
//! any [`cerberus_memory::MemoryModel`] implementation — the executor is
//! generic over the paper's abstract memory object model interface (§5.9) and
//! never names a concrete engine. All the looseness of the C semantics is
//! routed through a single [`driver::ChoiceOracle`], and its only choice
//! points are the orders in which `unseq` siblings are evaluated (Core has no
//! `nd`, since the elaborator never emits one). "By selecting an appropriate
//! sequencing monad implementation, we can select whether to perform an
//! exhaustive search for all allowed executions or pseudorandomly explore
//! single execution paths" (§5.1) — here the [`driver::Driver`] provides both
//! modes: [`driver::Driver::run_random`] and
//! [`driver::Driver::run_exhaustive`].
//!
//! Undefined behaviour reached during execution (an `undef(...)` introduced by
//! the elaboration, or one detected by the memory object model) terminates the
//! execution and is reported with its ISO clause (§5.4); unsequenced races are
//! detected by comparing the footprints of `unseq` siblings (§5.6).
//!
//! The interpreter alone enforces an execution's budget
//! ([`cerberus_memory::limits::ResourceLimits`] and [`eval::OUTPUT_BYTES`]);
//! the memory engines carry none.

pub mod builtins;
pub mod driver;
pub mod eval;
pub mod value;

pub use driver::{ChoiceOracle, Driver, ExecMode, ProgramOutcome, RandomOracle};
pub use eval::{Interp, Stop};
pub use value::Value;
