//! The Core operational semantics and its execution driver (§5.4, §5.6, §6).
//!
//! The evaluator executes elaborated [`cerberus_core::CoreProgram`]s against
//! any [`cerberus_memory::MemoryModel`] implementation — the executor is
//! generic over the paper's abstract memory object model interface (§5.9) and
//! never names a concrete engine. The looseness of the C semantics is the
//! order in which `unseq` siblings are evaluated (Core has no `nd`, since the
//! elaborator never emits one). "By selecting an appropriate sequencing monad
//! implementation, we can select whether to perform an exhaustive search for
//! all allowed executions or pseudorandomly explore single execution paths"
//! (§5.1) — here one driver serves both: [`driver::Driver::run`] searches the
//! orders breadth-first up to an [`ExecMode`] bound, and its first execution,
//! the leftmost sibling at every choice, is the single path of the default
//! bound.
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

pub use driver::{Driver, ExecMode, ProgramOutcome};
pub use eval::{Interp, Stop};
pub use value::Value;
