//! Core well-formedness validation.
//!
//! The elaborator is total on well-typed Ail and produces well-formed Core by
//! construction, so this pass is a lint gate for *producers* of Core: a
//! hand-written program, a mutated test case, or a regression in the
//! elaborator itself. Every violation is collected — the pass never stops at
//! the first problem — and reported as a [`ConstraintViolation`] so the
//! pipeline can surface the whole list through `PipelineError::Constraint`,
//! the same multi-diagnostic shape the desugaring stage uses.
//!
//! Checked properties, node by node:
//!
//! * **binding discipline** — every `Sym` is bound by an enclosing pattern, a
//!   procedure parameter, a global, or a string-literal object;
//! * **pattern arity** — a tuple pattern destructuring a literal tuple value
//!   names exactly as many components as the value has;
//! * **call-target resolution** — every `Ccall` names a defined procedure or
//!   a known builtin, with a matching argument count for defined procedures;
//! * **`MemAction` operand typing** — `create`/`store`/`load` carry a literal
//!   `Ctype` operand (the shape the elaborator emits and the executable
//!   semantics require), and `create`'s alignment is a type-derived constant;
//! * **label discipline** — every `run l` targets a `save`/`exit` label that
//!   exists somewhere in the same procedure body.

use std::collections::{HashMap, HashSet};

use cerberus_ast::diag::ConstraintViolation;
use cerberus_ast::ident::Ident;
use cerberus_ast::loc::Span;
use cerberus_core::program::CoreProgram;
use cerberus_core::syntax::{BuiltinFn, Expr, MemAction, PExpr, Pattern};

/// The builtin C library functions the execution environment provides; a
/// `Ccall` to one of these resolves even though no Core procedure exists.
/// Keep in sync with `cerberus_exec::builtins::call_builtin`.
pub fn builtin_names() -> &'static [&'static str] {
    &[
        "printf", "malloc", "calloc", "free", "memcpy", "memcmp", "memset", "strlen", "strcmp",
        "strcpy", "abort", "exit", "assert",
    ]
}

/// The ISO-clause slot used for Core well-formedness diagnostics (these are
/// internal-representation invariants, not ISO C constraints).
const CORE_CLAUSE: &str = "Core well-formedness";

struct Validator<'a> {
    program: &'a CoreProgram,
    /// Symbols visible everywhere: globals and string-literal objects.
    statics: HashSet<String>,
    /// All `save`/`exit` labels of the procedure under validation.
    labels: HashSet<&'a str>,
    /// Name of the procedure (or pseudo-procedure) under validation.
    context: String,
    violations: Vec<ConstraintViolation>,
}

/// The names bound at a point of the walk: in binding order, which
/// truncation needs, and counted per name, so a lookup is one hash probe.
#[derive(Default)]
struct Scope<'a> {
    names: Vec<&'a str>,
    counts: HashMap<&'a str, usize>,
}

impl<'a> Scope<'a> {
    fn push(&mut self, name: &'a str) {
        self.names.push(name);
        *self.counts.entry(name).or_default() += 1;
    }

    /// Unbind every name bound after the first `depth`.
    fn truncate(&mut self, depth: usize) {
        for name in self.names.drain(depth..) {
            match self.counts.get_mut(name) {
                Some(count) if *count > 1 => *count -= 1,
                _ => {
                    self.counts.remove(name);
                }
            }
        }
    }
}

impl<'a> Validator<'a> {
    fn violation(&mut self, message: String) {
        self.violations.push(ConstraintViolation::new(
            message,
            CORE_CLAUSE,
            Span::synthetic(),
        ));
    }

    // ----- scope helpers ---------------------------------------------------

    fn bind_pattern(pat: &'a Pattern, scope: &mut Scope<'a>) {
        match pat {
            Pattern::Wildcard => {}
            Pattern::Sym(name) => scope.push(name.as_str()),
            Pattern::Tuple(ps) => {
                for p in ps {
                    Self::bind_pattern(p, scope);
                }
            }
            Pattern::Specified(p) => Self::bind_pattern(p, scope),
        }
    }

    fn is_bound(&self, name: &Ident, scope: &Scope) -> bool {
        let text = name.as_str();
        scope.counts.contains_key(text) || self.statics.contains(text)
    }

    /// A tuple pattern must match the arity of a literal tuple value; other
    /// scrutinee shapes are only checkable dynamically.
    fn check_pattern_arity(&mut self, pat: &Pattern, scrutinee: &PExpr) {
        if let (Pattern::Tuple(ps), PExpr::Tuple(vs)) = (pat, scrutinee) {
            if ps.len() != vs.len() && ps.len() != 1 {
                self.violation(format!(
                    "{}: tuple pattern of arity {} destructures a tuple of arity {}",
                    self.context,
                    ps.len(),
                    vs.len()
                ));
            }
        }
    }

    // ----- label collection ------------------------------------------------

    /// Collect every `save`/`exit` label in `e`, continuing in the last
    /// operand of a sequence, `let`, `if`, `save`, `exit` and `indet` in a
    /// loop.
    fn collect_labels(e: &'a Expr, into: &mut HashSet<&'a str>) {
        let mut e = e;
        loop {
            e = match e {
                Expr::Save(l, body) | Expr::Exit(l, body) => {
                    into.insert(l.as_str());
                    body
                }
                Expr::Let(_, _, body) | Expr::Indet(body) => body,
                Expr::If(_, a, b) | Expr::Wseq(_, a, b) | Expr::Sseq(_, a, b) => {
                    Self::collect_labels(a, into);
                    b
                }
                Expr::Case(_, arms) => {
                    for (_, body) in arms {
                        Self::collect_labels(body, into);
                    }
                    return;
                }
                Expr::Unseq(items) => {
                    for item in items {
                        Self::collect_labels(item, into);
                    }
                    return;
                }
                _ => return,
            };
        }
    }

    // ----- node checks -----------------------------------------------------

    fn check_pexpr(&mut self, pe: &'a PExpr, scope: &mut Scope<'a>) {
        match pe {
            PExpr::Sym(name) => {
                if !self.is_bound(name, scope) {
                    self.violation(format!("{}: unbound Core symbol `{name}`", self.context));
                }
            }
            PExpr::Unit
            | PExpr::Integer(_)
            | PExpr::CtypeConst(_)
            | PExpr::Undef(_)
            | PExpr::Error(_)
            | PExpr::Unspecified(_) => {}
            PExpr::FunctionPtr(name) => {
                let text = name.as_str();
                if self.program.proc(text).is_none() && !builtin_names().contains(&text) {
                    self.violation(format!(
                        "{}: function pointer to undefined function `{name}`",
                        self.context
                    ));
                }
            }
            PExpr::Specified(e) => self.check_pexpr(e, scope),
            PExpr::Tuple(es) => {
                for e in es {
                    self.check_pexpr(e, scope);
                }
            }
            PExpr::Binop(_, a, b) => {
                self.check_pexpr(a, scope);
                self.check_pexpr(b, scope);
            }
            PExpr::If(c, t, f) => {
                self.check_pexpr(c, scope);
                self.check_pexpr(t, scope);
                self.check_pexpr(f, scope);
            }
            PExpr::Case(scrutinee, arms) => {
                self.check_pexpr(scrutinee, scope);
                for (pat, body) in arms {
                    self.check_pattern_arity(pat, scrutinee);
                    let depth = scope.names.len();
                    Self::bind_pattern(pat, scope);
                    self.check_pexpr(body, scope);
                    scope.truncate(depth);
                }
            }
            PExpr::Builtin(f, args) => {
                let arity = match f {
                    BuiltinFn::ConvInt | BuiltinFn::IsRepresentable => 2,
                    BuiltinFn::CtypeWidth | BuiltinFn::AlignOf => 1,
                };
                if args.len() != arity {
                    self.violation(format!(
                        "{}: builtin {f:?} applied to {} arguments, expected {arity}",
                        self.context,
                        args.len()
                    ));
                }
                for a in args {
                    self.check_pexpr(a, scope);
                }
            }
            PExpr::ArrayShift { ptr, index, .. } => {
                self.check_pexpr(ptr, scope);
                self.check_pexpr(index, scope);
            }
            PExpr::MemberShift { ptr, .. } => self.check_pexpr(ptr, scope),
        }
    }

    /// `create`/`store`/`load` must name their accessed type as a literal
    /// `Ctype` constant — the executable semantics dispatch on it.
    fn check_action_type_operand(&mut self, action: &'static str, ty: &PExpr) {
        if !matches!(ty, PExpr::CtypeConst(_)) {
            self.violation(format!(
                "{}: `{action}` type operand is not a literal Ctype constant",
                self.context
            ));
        }
    }

    fn check_action(&mut self, action: &'a MemAction, scope: &mut Scope<'a>) {
        match action {
            MemAction::Create { align, ty } => {
                self.check_action_type_operand("create", ty);
                // The elaborator derives the alignment from the type.
                let align_ok = matches!(
                    &**align,
                    PExpr::Integer(_) | PExpr::Builtin(BuiltinFn::AlignOf, _)
                );
                if !align_ok {
                    self.violation(format!(
                        "{}: `create` alignment is neither a constant nor `alignof`",
                        self.context
                    ));
                }
                self.check_pexpr(align, scope);
                self.check_pexpr(ty, scope);
            }
            MemAction::Kill(ptr) => self.check_pexpr(ptr, scope),
            MemAction::Store { ty, ptr, value } => {
                self.check_action_type_operand("store", ty);
                self.check_pexpr(ty, scope);
                self.check_pexpr(ptr, scope);
                self.check_pexpr(value, scope);
            }
            MemAction::Load { ty, ptr } => {
                self.check_action_type_operand("load", ty);
                self.check_pexpr(ty, scope);
                self.check_pexpr(ptr, scope);
            }
        }
    }

    /// Check `e`, continuing in the last operand of a sequence, `let`, `if`,
    /// `save`, `exit` and `indet` in a loop. The names bound along that
    /// chain go out of scope on return.
    fn check_expr(&mut self, e: &'a Expr, scope: &mut Scope<'a>) {
        let depth = scope.names.len();
        let mut e = e;
        loop {
            e = match e {
                Expr::Let(pat, value, body) => {
                    self.check_pexpr(value, scope);
                    self.check_pattern_arity(pat, value);
                    Self::bind_pattern(pat, scope);
                    body
                }
                Expr::If(c, t, f) => {
                    self.check_pexpr(c, scope);
                    self.check_expr(t, scope);
                    f
                }
                Expr::Wseq(pat, a, b) | Expr::Sseq(pat, a, b) => {
                    self.check_expr(a, scope);
                    Self::bind_pattern(pat, scope);
                    b
                }
                Expr::Indet(body) | Expr::Save(_, body) | Expr::Exit(_, body) => body,
                Expr::Pure(pe) => {
                    self.check_pexpr(pe, scope);
                    break;
                }
                Expr::Memop(_, args) => {
                    for a in args {
                        self.check_pexpr(a, scope);
                    }
                    break;
                }
                Expr::Action(_, action) => {
                    self.check_action(action, scope);
                    break;
                }
                Expr::Case(scrutinee, arms) => {
                    self.check_pexpr(scrutinee, scope);
                    for (pat, body) in arms {
                        self.check_pattern_arity(pat, scrutinee);
                        let depth = scope.names.len();
                        Self::bind_pattern(pat, scope);
                        self.check_expr(body, scope);
                        scope.truncate(depth);
                    }
                    break;
                }
                Expr::Skip => break,
                Expr::Ccall(f, args) => {
                    self.check_call(f, args, scope);
                    break;
                }
                Expr::Unseq(items) => {
                    for item in items {
                        self.check_expr(item, scope);
                    }
                    break;
                }
                Expr::Run(label) => {
                    if !self.labels.contains(label.as_str()) {
                        self.violation(format!(
                            "{}: `run {label}` targets no save/exit label in the procedure",
                            self.context
                        ));
                    }
                    break;
                }
                Expr::Return(value) => {
                    self.check_pexpr(value, scope);
                    break;
                }
            };
        }
        scope.truncate(depth);
    }

    fn check_call(&mut self, f: &'a PExpr, args: &'a [PExpr], scope: &mut Scope<'a>) {
        match f {
            PExpr::FunctionPtr(name) | PExpr::Sym(name)
                if self.program.proc(name.as_str()).is_some() =>
            {
                let proc = &self.program.procs[name.as_str()];
                if proc.params.len() != args.len() {
                    self.violation(format!(
                        "{}: call to `{name}` passes {} arguments, expected {}",
                        self.context,
                        args.len(),
                        proc.params.len()
                    ));
                }
            }
            PExpr::FunctionPtr(name) => {
                if !builtin_names().contains(&name.as_str()) {
                    self.violation(format!(
                        "{}: call target `{name}` resolves to no procedure or builtin",
                        self.context
                    ));
                }
            }
            // A call through a computed pointer is only checkable
            // dynamically; validate the operand expression itself.
            other => self.check_pexpr(other, scope),
        }
        for a in args {
            self.check_pexpr(a, scope);
        }
    }
}

/// Validate a whole Core program, returning *every* violation found.
pub fn validate(program: &CoreProgram) -> Vec<ConstraintViolation> {
    let statics: HashSet<String> = program
        .globals
        .iter()
        .map(|g| g.name.as_str().to_owned())
        .chain(
            program
                .string_literals
                .iter()
                .map(|(name, _)| name.as_str().to_owned()),
        )
        .collect();

    let mut validator = Validator {
        program,
        statics,
        labels: HashSet::new(),
        context: String::new(),
        violations: Vec::new(),
    };

    for global in &program.globals {
        validator.context = format!("global `{}`", global.name);
        validator.labels.clear();
        Validator::collect_labels(&global.init, &mut validator.labels);
        validator.check_expr(&global.init, &mut Scope::default());
    }

    let mut names: Vec<&String> = program.procs.keys().collect();
    names.sort();
    for name in names {
        let proc = &program.procs[name];
        validator.context = name.clone();
        validator.labels.clear();
        Validator::collect_labels(&proc.body, &mut validator.labels);
        let mut scope = Scope::default();
        for (sym, _) in &proc.params {
            scope.push(sym.as_str());
        }
        validator.check_expr(&proc.body, &mut scope);
    }

    validator.violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerberus_ast::ctype::{Ctype, IntegerType};
    use cerberus_core::program::CoreProc;
    use cerberus_core::syntax::{Expr, MemAction, PExpr, Pattern, Polarity};

    fn program_with_main(body: Expr) -> CoreProgram {
        let mut program = CoreProgram::default();
        let name = Ident::new("main");
        program.procs.insert(
            "main".into(),
            CoreProc {
                name: name.clone(),
                params: Vec::new(),
                return_ty: Ctype::integer(IntegerType::Int),
                body,
            },
        );
        program.main = Some(name);
        program
    }

    #[test]
    fn well_formed_program_passes() {
        let body = Expr::Sseq(
            Pattern::Sym(Ident::new("x")),
            Box::new(Expr::Pure(PExpr::specified_int(1))),
            Box::new(Expr::Return(Box::new(PExpr::sym("x")))),
        );
        assert!(validate(&program_with_main(body)).is_empty());
    }

    #[test]
    fn every_violation_is_collected_not_just_the_first() {
        // Three independent problems: an unbound symbol, an unresolvable
        // call, and a store whose type operand is not a Ctype literal.
        let body = Expr::seq_all(vec![
            Expr::Pure(PExpr::sym("nowhere")),
            Expr::Ccall(Box::new(PExpr::FunctionPtr(Ident::new("missing"))), vec![]),
            Expr::Action(
                Polarity::Positive,
                MemAction::Store {
                    ty: Box::new(PExpr::Integer(4)),
                    ptr: Box::new(PExpr::specified_int(0)),
                    value: Box::new(PExpr::specified_int(0)),
                },
            ),
        ]);
        let violations = validate(&program_with_main(body));
        assert_eq!(violations.len(), 3, "{violations:?}");
        let text: Vec<String> = violations.iter().map(|v| v.message().to_owned()).collect();
        assert!(text.iter().any(|m| m.contains("unbound Core symbol")));
        assert!(text.iter().any(|m| m.contains("resolves to no procedure")));
        assert!(text.iter().any(|m| m.contains("store")));
    }

    #[test]
    fn run_to_a_missing_label_is_flagged() {
        let body = Expr::Run(Ident::new("ghost"));
        let violations = validate(&program_with_main(body));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message().contains("run ghost"));
    }

    #[test]
    fn tuple_pattern_arity_mismatch_is_flagged() {
        let body = Expr::Let(
            Pattern::Tuple(vec![
                Pattern::Sym(Ident::new("a")),
                Pattern::Sym(Ident::new("b")),
                Pattern::Sym(Ident::new("c")),
            ]),
            PExpr::Tuple(vec![PExpr::Integer(1), PExpr::Integer(2)]),
            Box::new(Expr::Pure(PExpr::Unit)),
        );
        let violations = validate(&program_with_main(body));
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message().contains("arity"));
    }

    #[test]
    fn globals_and_string_literals_are_in_scope() {
        let mut program = program_with_main(Expr::Pure(PExpr::sym("g")));
        program.globals.push(cerberus_core::program::CoreGlobal {
            name: Ident::new("g"),
            ty: Ctype::integer(IntegerType::Int),
            init: Expr::Skip,
        });
        assert!(validate(&program).is_empty());
    }
}
