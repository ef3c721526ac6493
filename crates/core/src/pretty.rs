//! Pretty printer for Core, producing the concrete syntax used in the paper's
//! Fig. 2/Fig. 3 (`let weak`, `unseq(...)`, `undef(...)`, `case ... with`).
//!
//! The printer is used by the reproduction of the Fig. 3 left-shift excerpt
//! (experiment E14) and when reporting elaborated programs for debugging.

use std::fmt::Write as _;

use crate::syntax::{Binop, BuiltinFn, Expr, MemAction, PExpr, Pattern, Polarity, PtrOp};

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Render a pattern.
pub fn pattern_to_string(p: &Pattern) -> String {
    match p {
        Pattern::Wildcard => "_".to_owned(),
        Pattern::Sym(s) => s.to_string(),
        Pattern::Tuple(items) => {
            let inner: Vec<String> = items.iter().map(pattern_to_string).collect();
            format!("({})", inner.join(", "))
        }
        Pattern::Specified(inner) => format!("Specified({})", pattern_to_string(inner)),
    }
}

fn binop_str(op: Binop) -> &'static str {
    match op {
        Binop::Add => "+",
        Binop::Sub => "-",
        Binop::Mul => "*",
        Binop::Div => "/",
        Binop::RemT => "rem_t",
        Binop::Exp => "^",
        Binop::BitAnd => "band",
        Binop::BitOr => "bor",
        Binop::BitXor => "bxor",
        Binop::Eq => "=",
        Binop::Ne => "!=",
        Binop::Lt => "<",
        Binop::Le => "<=",
        Binop::Gt => ">",
        Binop::Ge => ">=",
    }
}

fn builtin_str(f: BuiltinFn) -> &'static str {
    match f {
        BuiltinFn::ConvInt => "conv_int",
        BuiltinFn::IsRepresentable => "is_representable",
        BuiltinFn::CtypeWidth => "ctype_width",
        BuiltinFn::AlignOf => "alignof",
    }
}

/// Render a pure expression on one line.
pub fn pexpr_to_string(pe: &PExpr) -> String {
    match pe {
        PExpr::Sym(s) => s.to_string(),
        PExpr::Unit => "Unit".to_owned(),
        PExpr::Integer(v) => v.to_string(),
        PExpr::CtypeConst(ty) => format!("'{ty}'"),
        PExpr::FunctionPtr(name) => format!("cfunction({name})"),
        PExpr::Undef(ub) => format!("undef({})", ub.core_name()),
        PExpr::Error(msg) => format!("error({msg:?})"),
        PExpr::Specified(inner) => format!("Specified({})", pexpr_to_string(inner)),
        PExpr::Unspecified(ty) => format!("Unspecified('{ty}')"),
        PExpr::Tuple(items) => {
            let inner: Vec<String> = items.iter().map(pexpr_to_string).collect();
            format!("({})", inner.join(", "))
        }
        PExpr::Binop(op, l, r) => {
            format!(
                "({} {} {})",
                pexpr_to_string(l),
                binop_str(*op),
                pexpr_to_string(r)
            )
        }
        PExpr::If(c, t, f) => format!(
            "if {} then {} else {}",
            pexpr_to_string(c),
            pexpr_to_string(t),
            pexpr_to_string(f)
        ),
        PExpr::Case(scrutinee, arms) => {
            let mut out = format!("case {} with", pexpr_to_string(scrutinee));
            for (pat, body) in arms {
                let _ = write!(
                    out,
                    " | {} => {}",
                    pattern_to_string(pat),
                    pexpr_to_string(body)
                );
            }
            out.push_str(" end");
            out
        }
        PExpr::Builtin(f, args) => {
            let inner: Vec<String> = args.iter().map(pexpr_to_string).collect();
            format!("{}({})", builtin_str(*f), inner.join(", "))
        }
        PExpr::ArrayShift {
            ptr,
            elem_ty,
            index,
        } => format!(
            "array_shift({}, '{elem_ty}', {})",
            pexpr_to_string(ptr),
            pexpr_to_string(index)
        ),
        PExpr::MemberShift { ptr, tag, member } => {
            format!("member_shift({}, {tag}.{member})", pexpr_to_string(ptr))
        }
    }
}

fn ptrop_str(op: PtrOp) -> &'static str {
    match op {
        PtrOp::Eq => "eq",
        PtrOp::Ne => "ne",
        PtrOp::Lt => "lt",
        PtrOp::Gt => "gt",
        PtrOp::Le => "le",
        PtrOp::Ge => "ge",
        PtrOp::Diff => "ptrdiff",
        PtrOp::IntFromPtr => "intFromPtr",
        PtrOp::PtrFromInt => "ptrFromInt",
    }
}

fn action_to_string(a: &MemAction) -> String {
    match a {
        MemAction::Create { align, ty } => {
            format!(
                "create({}, {})",
                pexpr_to_string(align),
                pexpr_to_string(ty)
            )
        }
        MemAction::Kill(ptr) => format!("kill({})", pexpr_to_string(ptr)),
        MemAction::Store { ty, ptr, value } => format!(
            "store({}, {}, {})",
            pexpr_to_string(ty),
            pexpr_to_string(ptr),
            pexpr_to_string(value)
        ),
        MemAction::Load { ty, ptr } => {
            format!("load({}, {})", pexpr_to_string(ty), pexpr_to_string(ptr))
        }
    }
}

fn write_expr(out: &mut String, e: &Expr, level: usize) {
    match e {
        Expr::Pure(pe) => {
            indent(out, level);
            let _ = writeln!(out, "pure({})", pexpr_to_string(pe));
        }
        Expr::Memop(op, args) => {
            indent(out, level);
            let inner: Vec<String> = args.iter().map(pexpr_to_string).collect();
            let _ = writeln!(out, "ptrop({}, {})", ptrop_str(*op), inner.join(", "));
        }
        Expr::Action(polarity, a) => {
            indent(out, level);
            match polarity {
                Polarity::Positive => {
                    let _ = writeln!(out, "{}", action_to_string(a));
                }
                Polarity::Negative => {
                    let _ = writeln!(out, "neg({})", action_to_string(a));
                }
            }
        }
        Expr::Case(scrutinee, arms) => {
            indent(out, level);
            let _ = writeln!(out, "case {} with", pexpr_to_string(scrutinee));
            for (pat, body) in arms {
                indent(out, level);
                let _ = writeln!(out, "| {} =>", pattern_to_string(pat));
                write_expr(out, body, level + 1);
            }
            indent(out, level);
            out.push_str("end\n");
        }
        Expr::Let(pat, value, body) => {
            indent(out, level);
            let _ = writeln!(
                out,
                "let {} = {} in",
                pattern_to_string(pat),
                pexpr_to_string(value)
            );
            write_expr(out, body, level + 1);
        }
        Expr::If(c, t, f) => {
            indent(out, level);
            let _ = writeln!(out, "if {} then", pexpr_to_string(c));
            write_expr(out, t, level + 1);
            indent(out, level);
            out.push_str("else\n");
            write_expr(out, f, level + 1);
        }
        Expr::Skip => {
            indent(out, level);
            out.push_str("skip\n");
        }
        Expr::Ccall(f, args) => {
            indent(out, level);
            let inner: Vec<String> = args.iter().map(pexpr_to_string).collect();
            let _ = writeln!(out, "ccall({}, {})", pexpr_to_string(f), inner.join(", "));
        }
        Expr::Unseq(items) => {
            indent(out, level);
            out.push_str("unseq(\n");
            for item in items {
                write_expr(out, item, level + 1);
            }
            indent(out, level);
            out.push_str(")\n");
        }
        Expr::Wseq(pat, first, second) => {
            indent(out, level);
            let _ = writeln!(out, "let weak {} =", pattern_to_string(pat));
            write_expr(out, first, level + 1);
            indent(out, level);
            out.push_str("in\n");
            write_expr(out, second, level + 1);
        }
        Expr::Sseq(pat, first, second) => {
            indent(out, level);
            let _ = writeln!(out, "let strong {} =", pattern_to_string(pat));
            write_expr(out, first, level + 1);
            indent(out, level);
            out.push_str("in\n");
            write_expr(out, second, level + 1);
        }
        Expr::Indet(inner) => {
            indent(out, level);
            out.push_str("indet(\n");
            write_expr(out, inner, level + 1);
            indent(out, level);
            out.push_str(")\n");
        }
        Expr::Save(label, body) => {
            indent(out, level);
            let _ = writeln!(out, "save {label}() in");
            write_expr(out, body, level + 1);
        }
        Expr::Exit(label, body) => {
            indent(out, level);
            let _ = writeln!(out, "exit {label}() in");
            write_expr(out, body, level + 1);
        }
        Expr::Run(label) => {
            indent(out, level);
            let _ = writeln!(out, "run {label}()");
        }
        Expr::Return(value) => {
            indent(out, level);
            let _ = writeln!(out, "return({})", pexpr_to_string(value));
        }
    }
}

/// Render an effectful Core expression as indented concrete syntax.
pub fn expr_to_string(e: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, e, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerberus_ast::ctype::{Ctype, IntegerType};
    use cerberus_ast::ident::Ident;
    use cerberus_ast::ub::UbKind;

    #[test]
    fn pure_expressions_render() {
        let pe = PExpr::Binop(
            Binop::Mul,
            Box::new(PExpr::sym("sym_prm1")),
            Box::new(PExpr::Binop(
                Binop::Exp,
                Box::new(PExpr::Integer(2)),
                Box::new(PExpr::sym("sym_prm2")),
            )),
        );
        assert_eq!(pexpr_to_string(&pe), "(sym_prm1 * (2 ^ sym_prm2))");
    }

    #[test]
    fn undef_renders_with_core_name() {
        assert_eq!(
            pexpr_to_string(&PExpr::Undef(UbKind::NegativeShift)),
            "undef(Negative_shift)"
        );
        assert_eq!(
            pexpr_to_string(&PExpr::Undef(UbKind::ShiftTooLarge)),
            "undef(Shift_too_large)"
        );
    }

    #[test]
    fn sequencing_renders_like_the_paper() {
        let e = Expr::Wseq(
            Pattern::Tuple(vec![Pattern::sym("e1"), Pattern::sym("e2")]),
            Box::new(Expr::Unseq(vec![Expr::Skip, Expr::Skip])),
            Box::new(Expr::Pure(PExpr::Unit)),
        );
        let s = expr_to_string(&e);
        assert!(s.contains("let weak (e1, e2) ="));
        assert!(s.contains("unseq("));
    }

    #[test]
    fn actions_render() {
        let store = Expr::Action(
            Polarity::Negative,
            MemAction::Store {
                ty: Box::new(PExpr::CtypeConst(Ctype::integer(IntegerType::Int))),
                ptr: Box::new(PExpr::sym("p")),
                value: Box::new(PExpr::Integer(7)),
            },
        );
        let s = expr_to_string(&store);
        assert!(s.contains("neg(store('int', p, 7))"));
    }

    #[test]
    fn save_run_render() {
        let e = Expr::Save(Ident::new("l"), Box::new(Expr::Run(Ident::new("l"))));
        let s = expr_to_string(&e);
        assert!(s.contains("save l() in"));
        assert!(s.contains("run l()"));
    }

    #[test]
    fn specified_and_unspecified_render() {
        assert_eq!(pexpr_to_string(&PExpr::specified_int(3)), "Specified(3)");
        assert_eq!(
            pexpr_to_string(&PExpr::Unspecified(Ctype::integer(IntegerType::Int))),
            "Unspecified('int')"
        );
    }
}
