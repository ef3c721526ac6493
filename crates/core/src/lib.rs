//! The **Core** calculus of Cerberus (§5.2, Fig. 2 of the paper).
//!
//! Core is "intended to be as minimal as possible while remaining a suitable
//! target for the elaboration, and with the behaviour of Core programs made as
//! explicit as possible": a typed call-by-value language of procedures and
//! expressions with mathematical integers, explicit memory actions, and novel
//! sequencing constructs (`unseq`, weak/strong sequencing, `save`/`run`) that
//! make the C evaluation order explicit.
//!
//! This crate defines the Core abstract syntax and a pretty printer (used to
//! reproduce the Fig. 3 elaboration excerpt). The operational semantics lives
//! in `cerberus-exec` and the memory object models in `cerberus-memory`,
//! mirroring the paper's factorisation.
//!
//! ## Deviations from the paper's Core
//!
//! * `let atomic` (needed only to pin postfix increment/decrement between
//!   other indeterminately-sequenced actions) is not modelled; postfix
//!   operators use weak sequencing with a negative-polarity store.
//! * `save`/`run` is complemented by an explicit `exit` delimiter so that
//!   `break`, `switch` dispatch and forward `goto`s can be expressed without a
//!   CPS transformation; `run l` jumps to the innermost enclosing `save l`
//!   (re-executing its body) or `exit l` (terminating it normally).
//! * Core has only the constructors the elaborator emits;
//!   `tests/core_census.rs` checks this on the fixture corpus and on
//!   generated programs. So:
//!   * there is no `nd`, `bound` or `par`, because nothing elaborates
//!     threads;
//!   * `load`/`store` carry no memory order, because nothing elaborates
//!     atomics;
//!   * there are no Core base types, because no pass type-checks Core.
//!
//!   Restore them from git history if threads or atomics are ever elaborated.

pub mod pretty;
pub mod program;
pub mod syntax;

pub use program::{CoreGlobal, CoreProc, CoreProgram};
pub use syntax::{Binop, BuiltinFn, Expr, MemAction, PExpr, Pattern, Polarity, PtrOp};
