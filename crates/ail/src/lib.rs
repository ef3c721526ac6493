//! Ail: the desugared, type-annotated intermediate AST of the Cerberus
//! pipeline.
//!
//! The Cabs-to-Ail pass (§5.1 of the paper) "handles many intricate aspects
//! that might be omitted in a small calculus but have to be considered for
//! real C": identifier scoping, function prototypes and definitions,
//! normalisation of syntactic C types into canonical forms, string literals,
//! enums (replaced by integers), and loop normalisation. The type checker then
//! adds explicit type annotations, identifying the violated part of the
//! standard on failure. Both passes "operate without requiring any commitment
//! to how C-standard implementation-defined choices are resolved" — except
//! that type *sizes* are needed to fold `sizeof`, so the implementation-defined
//! environment is an explicit parameter.
//!
//! # Example
//!
//! ```
//! use cerberus_ail::desugar::desugar_translation_unit_all;
//! use cerberus_ast::env::ImplEnv;
//! use cerberus_parser::parse_translation_unit;
//!
//! let tu = parse_translation_unit("int main(void) { int x = 1; return x + 1; }").unwrap();
//! let program = desugar_translation_unit_all(&tu, &ImplEnv::lp64()).unwrap();
//! assert_eq!(program.functions.len(), 1);
//! ```

pub mod ail;
pub mod desugar;
pub mod typing;

pub use ail::{
    AilExpr, AilExprKind, AilInit, AilProgram, AilStmt, BinOp, FunctionDef, GlobalDef, ObjectDecl,
    UnOp,
};
pub use typing::choose_int_const_type;
