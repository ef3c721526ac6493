//! Foundational definitions shared by every stage of the Cerberus-rs pipeline.
//!
//! This crate contains the pieces of the semantics that are independent of any
//! particular phase: source locations, identifiers, the C type grammar,
//! implementation-defined environments (object sizes, alignments, signedness of
//! plain `char`, …), storage layout computation, the catalogue of undefined
//! behaviours the semantics can report, the design-space question catalogue
//! from §2 of the paper, and the bounded memo table every pipeline cache uses.
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
