//! Core abstract syntax (the paper's Fig. 2, with the deviations documented
//! at the crate root).

use cerberus_ast::ctype::{Ctype, TagId};
use cerberus_ast::ident::Ident;
use cerberus_ast::ub::UbKind;

/// Polarity of a memory action (§5.6): negative actions are not part of a
/// value computation and are only ordered by strong sequencing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// Part of the value computation; ordered by both weak and strong
    /// sequencing.
    Positive,
    /// A side effect outside the value computation (e.g. the store of a
    /// postfix increment); ordered only by strong sequencing.
    Negative,
}

/// Binary operators of Core, over mathematical integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binop {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Truncating division.
    Div,
    /// Remainder (truncated, `rem_t` in the paper).
    RemT,
    /// Exponentiation (used by the shift elaboration: `E1 * 2^E2`).
    Exp,
    /// Bitwise AND over the two's-complement representation (an extension of
    /// the paper's Core binop set so `&`, `|`, `^` need no auxiliary
    /// procedures).
    BitAnd,
    /// Bitwise inclusive OR.
    BitOr,
    /// Bitwise exclusive OR.
    BitXor,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

/// The pointer operations that involve the memory state (`ptrop` in Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtrOp {
    /// Pointer equality (`==`).
    Eq,
    /// Pointer inequality (`!=`).
    Ne,
    /// Relational `<`.
    Lt,
    /// Relational `>`.
    Gt,
    /// Relational `<=`.
    Le,
    /// Relational `>=`.
    Ge,
    /// Pointer subtraction (`ptrdiff`).
    Diff,
    /// Cast of a pointer value to an integer value (`intFromPtr`).
    IntFromPtr,
    /// Cast of an integer value to a pointer value (`ptrFromInt`).
    PtrFromInt,
}

/// The builtin pure functions of the Core standard library used by the
/// elaboration (the paper's `conv_int`, `is_representable`, `ctype_width`, …
/// auxiliaries, provided here as primitives and interpreted against the
/// implementation-defined environment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinFn {
    /// Conversion of an integer value to a C integer type (6.3.1.3);
    /// arguments: ctype, integer.
    ConvInt,
    /// Whether an integer value is representable in a C type; arguments:
    /// ctype, integer.
    IsRepresentable,
    /// The width in bits of a C integer type; argument: ctype.
    CtypeWidth,
    /// `_Alignof`; argument: ctype.
    AlignOf,
}

/// Patterns, used by Core `let` and `case`.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// `_`.
    Wildcard,
    /// An identifier binding.
    Sym(Ident),
    /// A tuple pattern.
    Tuple(Vec<Pattern>),
    /// `Specified(p)` — a loaded value that is not unspecified.
    Specified(Box<Pattern>),
}

impl Pattern {
    /// Shorthand for a single-identifier pattern.
    pub fn sym(name: impl Into<String>) -> Self {
        Pattern::Sym(Ident::new(name))
    }
}

/// Memory actions (`a` in Fig. 2); operands are pure expressions because the
/// elaboration always evaluates them first.
#[derive(Debug, Clone, PartialEq)]
pub enum MemAction {
    /// Create an object for a C type (static or automatic storage): alignment
    /// and type.
    Create { align: Box<PExpr>, ty: Box<PExpr> },
    /// End the lifetime of the object a pointer refers to.
    Kill(Box<PExpr>),
    /// Store a value through a pointer at a C type.
    Store {
        ty: Box<PExpr>,
        ptr: Box<PExpr>,
        value: Box<PExpr>,
    },
    /// Load a value through a pointer at a C type.
    Load { ty: Box<PExpr>, ptr: Box<PExpr> },
}

/// Pure (effect-free) Core expressions (`pe` in Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    /// A Core identifier.
    Sym(Ident),
    /// The unit value.
    Unit,
    /// A mathematical integer literal.
    Integer(i128),
    /// A C type expression as a first-class value.
    CtypeConst(Ctype),
    /// A C function designator used as a value (function pointer).
    FunctionPtr(Ident),
    /// Undefined behaviour: evaluating this terminates the execution with the
    /// recorded UB (§5.4).
    Undef(UbKind),
    /// An implementation-defined static error (e.g. an unsupported construct
    /// reached at runtime).
    Error(String),
    /// `Specified(pe)` — a non-unspecified loaded value.
    Specified(Box<PExpr>),
    /// `Unspecified(τ)` — an unspecified loaded value of C type τ.
    Unspecified(Ctype),
    /// A tuple.
    Tuple(Vec<PExpr>),
    /// A binary operation over mathematical integers.
    Binop(Binop, Box<PExpr>, Box<PExpr>),
    /// Pure conditional (the test must be pure).
    If(Box<PExpr>, Box<PExpr>, Box<PExpr>),
    /// Pure pattern match.
    Case(Box<PExpr>, Vec<(Pattern, PExpr)>),
    /// A call to a builtin pure function of the Core standard library.
    Builtin(BuiltinFn, Vec<PExpr>),
    /// Pointer array shift: `array_shift(ptr, τ, index)` advances a pointer by
    /// `index` elements of type τ (no memory access).
    ArrayShift {
        ptr: Box<PExpr>,
        elem_ty: Ctype,
        index: Box<PExpr>,
    },
    /// Pointer member shift: `member_shift(ptr, tag.member)` moves a pointer
    /// to a struct/union member (no memory access).
    MemberShift {
        ptr: Box<PExpr>,
        tag: TagId,
        member: Ident,
    },
}

impl PExpr {
    /// Shorthand for an identifier use.
    pub fn sym(name: impl Into<String>) -> Self {
        PExpr::Sym(Ident::new(name))
    }

    /// Shorthand for a `Specified` integer literal.
    pub fn specified_int(v: i128) -> Self {
        PExpr::Specified(Box::new(PExpr::Integer(v)))
    }
}

/// Effectful Core expressions (`e` in Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A pure expression.
    Pure(PExpr),
    /// A pointer operation that involves the memory state.
    Memop(PtrOp, Vec<PExpr>),
    /// A memory action with its polarity.
    Action(Polarity, MemAction),
    /// Effectful pattern match.
    Case(PExpr, Vec<(Pattern, Expr)>),
    /// `let pat = pe in e` — bind a pure value in an effectful continuation.
    Let(Pattern, PExpr, Box<Expr>),
    /// Effectful conditional (the test is pure).
    If(PExpr, Box<Expr>, Box<Expr>),
    /// `skip`.
    Skip,
    /// Call of a C function (by designator value) with already-evaluated
    /// arguments.
    Ccall(Box<PExpr>, Vec<PExpr>),
    /// Unsequenced evaluation of several expressions; reduces to the tuple of
    /// their values. Conflicting accesses between siblings are an unsequenced
    /// race (6.5p2).
    Unseq(Vec<Expr>),
    /// Weak sequencing: only the *positive* actions of the first expression
    /// are sequenced before the second.
    Wseq(Pattern, Box<Expr>, Box<Expr>),
    /// Strong sequencing: all actions of the first expression are sequenced
    /// before the second.
    Sseq(Pattern, Box<Expr>, Box<Expr>),
    /// Marks a subexpression as indeterminately sequenced w.r.t. its context
    /// (function bodies in expressions).
    Indet(Box<Expr>),
    /// `save l in e` — a label whose body is `e`; `run l` within re-executes
    /// the body (loop/backward-jump semantics).
    Save(Ident, Box<Expr>),
    /// `exit l in e` — a delimiter; `run l` within terminates `e` normally
    /// with unit (break/forward-jump semantics).
    Exit(Ident, Box<Expr>),
    /// Jump to the innermost enclosing `save`/`exit` for the label.
    Run(Ident),
    /// Return from the current C function with a (loaded) value.
    Return(Box<PExpr>),
}

impl Expr {
    /// Strong-sequence two expressions, discarding the first value.
    pub fn seq(first: Expr, second: Expr) -> Expr {
        Expr::Sseq(Pattern::Wildcard, Box::new(first), Box::new(second))
    }

    /// Strong-sequence a list of expressions, discarding intermediate values;
    /// an empty list is `skip`.
    pub fn seq_all(items: Vec<Expr>) -> Expr {
        let mut iter = items.into_iter().rev();
        match iter.next() {
            None => Expr::Skip,
            Some(last) => iter.fold(last, |acc, e| Expr::seq(e, acc)),
        }
    }

    /// Whether a `save` for `label` occurs in this expression: whether a
    /// jump to `label` that reaches a scope with this body re-enters the
    /// body, seeking the label, in the interpreter and the analyzer alike.
    /// The walk continues in the last operand of a sequence, `let`, `if`,
    /// `save`, `exit` and `indet` in a loop, so its stack depth is the
    /// nesting, not the length, of the expression.
    pub fn contains_save(&self, label: &Ident) -> bool {
        let mut e = self;
        loop {
            e = match e {
                Expr::Save(l, _) if l == label => return true,
                Expr::Save(_, body)
                | Expr::Exit(_, body)
                | Expr::Indet(body)
                | Expr::Let(_, _, body) => body,
                Expr::If(_, a, b) | Expr::Wseq(_, a, b) | Expr::Sseq(_, a, b) => {
                    if a.contains_save(label) {
                        return true;
                    }
                    b
                }
                Expr::Case(_, arms) => {
                    return arms.iter().any(|(_, body)| body.contains_save(label))
                }
                Expr::Unseq(items) => return items.iter().any(|item| item.contains_save(label)),
                _ => return false,
            };
        }
    }
}

/// Freeing an expression unlinks the chain of last operands of `Sseq`,
/// `Wseq` and `Let` (a block's statements and declarations) one link at a
/// time, so freeing a long block costs no stack. Every other child is freed
/// by the usual recursion, whose depth is the nesting of the program.
impl Drop for Expr {
    fn drop(&mut self) {
        let mut spine = match self {
            Expr::Sseq(_, _, rest) | Expr::Wseq(_, _, rest) | Expr::Let(_, _, rest) => {
                std::mem::replace(&mut **rest, Expr::Skip)
            }
            _ => return,
        };
        while let Expr::Sseq(_, _, rest) | Expr::Wseq(_, _, rest) | Expr::Let(_, _, rest) =
            &mut spine
        {
            spine = std::mem::replace(&mut **rest, Expr::Skip);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_all_builds_right_nested_sequences() {
        let e = Expr::seq_all(vec![Expr::Skip, Expr::Skip, Expr::Pure(PExpr::Unit)]);
        match &e {
            Expr::Sseq(_, first, rest) => {
                assert_eq!(**first, Expr::Skip);
                assert!(matches!(**rest, Expr::Sseq(..)));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
        assert_eq!(Expr::seq_all(vec![]), Expr::Skip);
    }

    #[test]
    fn pattern_shorthand() {
        assert_eq!(Pattern::sym("x"), Pattern::Sym(Ident::new("x")));
    }
}
