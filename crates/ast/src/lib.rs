//! Foundational definitions shared by every stage of the Cerberus-rs pipeline.
//!
//! This crate contains the pieces of the semantics that are independent of any
//! particular phase: source locations, identifiers, the C type grammar,
//! implementation-defined environments (object sizes, alignments, signedness of
//! plain `char`, …), storage layout computation, the catalogue of undefined
//! behaviours the semantics can report, the design-space question catalogue
//! from §2 of the paper, the bounded memo table every pipeline cache uses, and
//! the rendering of a contained panic's payload.
//!
//! # Example
//!
//! ```
//! use cerberus_ast::ctype::{Ctype, IntegerType};
//! use cerberus_ast::env::ImplEnv;
//!
//! let env = ImplEnv::lp64();
//! let ty = Ctype::pointer(Ctype::integer(IntegerType::Int));
//! assert_eq!(env.size_of_basic(&ty).unwrap(), 8);
//! ```

pub mod ctype;
pub mod diag;
pub mod env;
pub mod ident;
pub mod layout;
pub mod loc;
pub mod memo;
pub mod questions;
pub mod ub;

pub use ctype::{Ctype, IntegerType, Qualifiers, TagId};
pub use diag::{ConstraintViolation, Diagnostic};
pub use env::ImplEnv;
pub use ident::Ident;
pub use layout::{Layout, TagDefinition, TagRegistry};
pub use loc::{Loc, Span};
pub use questions::{Clarity, Question, QuestionCategory};
pub use ub::UbKind;

/// Render a payload captured by [`std::panic::catch_unwind`] as text (the
/// common `String`/`&str` payloads verbatim, anything else a fixed marker).
pub fn panic_payload(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else {
        "non-string panic payload".to_owned()
    }
}
