//! The Cabs-to-Ail desugaring and type-checking pass (§5.1 of the paper).
//!
//! This pass resolves identifier scoping, normalises syntactic C types into
//! canonical [`Ctype`]s, replaces enums by integer constants, rewrites
//! `e1[e2]` and `p->m` into their defining forms, folds `sizeof`/`_Alignof`
//! and other integer constant expressions, classifies storage durations, and
//! annotates every expression with its type — rejecting programs that violate
//! the constraints of ISO C11 with a diagnostic citing the violated clause.

use std::collections::HashMap;

use cerberus_ast::ctype::{Ctype, IntegerType, Member};
use cerberus_ast::diag::ConstraintViolation;
use cerberus_ast::env::ImplEnv;
use cerberus_ast::ident::Ident;
use cerberus_ast::layout::{self, TagKind, TagRegistry};
use cerberus_ast::loc::Span;
use cerberus_parser::cabs::{self, StorageClass, TranslationUnit};
use cerberus_parser::token::IntSuffix;

use crate::ail::*;
use crate::typing::{assignable, binary_result_type, choose_int_const_type};

type DResult<T> = Result<T, ConstraintViolation>;

#[derive(Debug, Clone)]
struct Binding {
    unique: Ident,
    ty: Ctype,
    kind: IdentKind,
}

struct Desugarer<'a> {
    env: &'a ImplEnv,
    tags: TagRegistry,
    typedefs: Vec<HashMap<String, Ctype>>,
    enum_consts: Vec<HashMap<String, i128>>,
    objects: Vec<HashMap<String, Binding>>,
    functions: HashMap<String, Ctype>,
    globals: Vec<GlobalDef>,
    func_defs: Vec<FunctionDef>,
    decls: Vec<FunctionDecl>,
    rename_counter: u64,
    current_fn: Option<String>,
    anon_counter: u64,
}

/// The builtin library functions the execution environment provides; their
/// prototypes are injected so calls type-check after including the matching
/// standard header.
fn builtin_prototypes() -> Vec<(&'static str, Ctype)> {
    use IntegerType::*;
    let int = Ctype::integer(Int);
    let size_t = Ctype::integer(SizeT);
    let void_ptr = Ctype::pointer(Ctype::Void);
    let char_ptr = Ctype::pointer(Ctype::integer(Char));
    let func = |ret: Ctype, params: Vec<Ctype>, variadic: bool| {
        Ctype::Function(Box::new(ret), params, variadic)
    };
    vec![
        ("printf", func(int.clone(), vec![char_ptr.clone()], true)),
        (
            "malloc",
            func(void_ptr.clone(), vec![size_t.clone()], false),
        ),
        (
            "calloc",
            func(
                void_ptr.clone(),
                vec![size_t.clone(), size_t.clone()],
                false,
            ),
        ),
        ("free", func(Ctype::Void, vec![void_ptr.clone()], false)),
        (
            "memcpy",
            func(
                void_ptr.clone(),
                vec![void_ptr.clone(), void_ptr.clone(), size_t.clone()],
                false,
            ),
        ),
        (
            "memcmp",
            func(
                int.clone(),
                vec![void_ptr.clone(), void_ptr.clone(), size_t.clone()],
                false,
            ),
        ),
        (
            "memset",
            func(
                void_ptr.clone(),
                vec![void_ptr.clone(), int.clone(), size_t.clone()],
                false,
            ),
        ),
        (
            "strlen",
            func(size_t.clone(), vec![char_ptr.clone()], false),
        ),
        (
            "strcmp",
            func(int.clone(), vec![char_ptr.clone(), char_ptr.clone()], false),
        ),
        (
            "strcpy",
            func(
                char_ptr.clone(),
                vec![char_ptr.clone(), char_ptr.clone()],
                false,
            ),
        ),
        ("abort", func(Ctype::Void, vec![], false)),
        ("exit", func(Ctype::Void, vec![int.clone()], false)),
        ("assert", func(Ctype::Void, vec![int.clone()], false)),
    ]
}

impl<'a> Desugarer<'a> {
    fn new(env: &'a ImplEnv) -> Self {
        let mut d = Desugarer {
            env,
            tags: TagRegistry::new(),
            typedefs: vec![HashMap::new()],
            enum_consts: vec![HashMap::new()],
            objects: vec![HashMap::new()],
            functions: HashMap::new(),
            globals: Vec::new(),
            func_defs: Vec::new(),
            decls: Vec::new(),
            rename_counter: 0,
            current_fn: None,
            anon_counter: 0,
        };
        for (name, ty) in builtin_prototypes() {
            d.functions.insert(name.to_owned(), ty.clone());
            d.decls.push(FunctionDecl {
                name: Ident::new(name),
                ty,
            });
        }
        d
    }

    fn violation<T>(&self, msg: impl Into<String>, clause: &'static str, span: Span) -> DResult<T> {
        Err(ConstraintViolation::new(msg, clause, span))
    }

    // ----- scopes ----------------------------------------------------------

    fn push_scope(&mut self) {
        self.typedefs.push(HashMap::new());
        self.enum_consts.push(HashMap::new());
        self.objects.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.typedefs.pop();
        self.enum_consts.pop();
        self.objects.pop();
    }

    fn at_file_scope(&self) -> bool {
        self.objects.len() == 1
    }

    fn fresh_local(&mut self, name: &str) -> Ident {
        self.rename_counter += 1;
        Ident::new(format!("{name}.{}", self.rename_counter))
    }

    fn lookup_typedef(&self, name: &str) -> Option<&Ctype> {
        self.typedefs.iter().rev().find_map(|s| s.get(name))
    }

    fn lookup_enum_const(&self, name: &str) -> Option<i128> {
        self.enum_consts
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .copied()
    }

    fn lookup_object(&self, name: &str) -> Option<&Binding> {
        self.objects.iter().rev().find_map(|s| s.get(name))
    }

    fn bind_object(&mut self, source: &str, binding: Binding) {
        self.objects
            .last_mut()
            .expect("scope stack is never empty")
            .insert(source.to_owned(), binding);
    }

    // ----- types from specifiers and declarators ---------------------------

    fn type_from_specifiers(&mut self, specs: &cabs::DeclSpecifiers) -> DResult<Ctype> {
        use cabs::TypeSpecifier as TS;
        let span = specs.span;
        // Struct/union/enum/typedef specifiers are exclusive of the basic
        // specifier words.
        let mut basic: Vec<&TS> = Vec::new();
        let mut composite: Option<Ctype> = None;
        for ts in &specs.type_specifiers {
            match ts {
                TS::StructOrUnion(sou) => {
                    composite = Some(self.struct_or_union_type(sou, span)?);
                }
                TS::Enum(e) => {
                    self.define_enum(e, span)?;
                    composite = Some(Ctype::integer(IntegerType::Int));
                }
                TS::TypedefName(name) => match self.lookup_typedef(name) {
                    Some(ty) => composite = Some(ty.clone()),
                    None => {
                        return self.violation(format!("unknown type name {name}"), "6.7.8p3", span)
                    }
                },
                other => basic.push(other),
            }
        }
        if let Some(ty) = composite {
            if basic.is_empty() {
                return Ok(ty);
            }
            return self.violation(
                "struct/union/enum/typedef specifier combined with other type specifiers",
                "6.7.2p2",
                span,
            );
        }
        let count = |k: &TS| basic.iter().filter(|t| ***t == *k).count();
        let longs = count(&TS::Long);
        let unsigned = count(&TS::Unsigned) > 0;
        let signed = count(&TS::Signed) > 0;
        if unsigned && signed {
            return self.violation("both signed and unsigned in specifiers", "6.7.2p2", span);
        }
        let has = |k: &TS| count(k) > 0;
        let ty = if has(&TS::Void) {
            Ctype::Void
        } else if has(&TS::Bool) {
            Ctype::integer(IntegerType::Bool)
        } else if has(&TS::Float) || has(&TS::Double) {
            Ctype::Floating
        } else if has(&TS::Char) {
            Ctype::integer(if unsigned {
                IntegerType::UChar
            } else if signed {
                IntegerType::SChar
            } else {
                IntegerType::Char
            })
        } else if has(&TS::Short) {
            Ctype::integer(if unsigned {
                IntegerType::UShort
            } else {
                IntegerType::Short
            })
        } else if longs >= 2 {
            Ctype::integer(if unsigned {
                IntegerType::ULongLong
            } else {
                IntegerType::LongLong
            })
        } else if longs == 1 {
            Ctype::integer(if unsigned {
                IntegerType::ULong
            } else {
                IntegerType::Long
            })
        } else if has(&TS::Int) || signed || unsigned {
            Ctype::integer(if unsigned {
                IntegerType::UInt
            } else {
                IntegerType::Int
            })
        } else if basic.is_empty() {
            // No type specifier at all: implicit int is a constraint violation
            // in C11.
            return self.violation("declaration lacks a type specifier", "6.7.2p2", span);
        } else {
            return self.violation(
                "unsupported combination of type specifiers",
                "6.7.2p2",
                span,
            );
        };
        Ok(ty)
    }

    fn struct_or_union_type(
        &mut self,
        sou: &cabs::StructOrUnionSpecifier,
        span: Span,
    ) -> DResult<Ctype> {
        let kind = if sou.is_union {
            TagKind::Union
        } else {
            TagKind::Struct
        };
        let name = match &sou.name {
            Some(n) => Ident::new(n.clone()),
            None => {
                self.anon_counter += 1;
                Ident::new(format!("__anon{}", self.anon_counter))
            }
        };
        let id = match &sou.members {
            None => self.tags.declare(kind, &name),
            Some(member_decls) => {
                // Reserve the tag first so self-referential members through
                // pointers resolve.
                self.tags.declare(kind, &name);
                let mut members = Vec::new();
                for md in member_decls {
                    let base = self.type_from_specifiers(&md.specifiers)?;
                    for d in &md.declarators {
                        let (mname, mty, _) = self.apply_declarator(d, base.clone(), span)?;
                        let mname = mname.ok_or_else(|| {
                            ConstraintViolation::new(
                                "struct/union member lacks a name",
                                "6.7.2.1p2",
                                span,
                            )
                        })?;
                        members.push(Member {
                            name: Ident::new(mname),
                            ty: mty,
                        });
                    }
                }
                if members.is_empty() {
                    return self.violation(
                        "struct/union definition with no members",
                        "6.7.2.1p8",
                        span,
                    );
                }
                self.tags.define(kind, &name, members)
            }
        };
        Ok(match kind {
            TagKind::Struct => Ctype::Struct(id),
            TagKind::Union => Ctype::Union(id),
        })
    }

    fn define_enum(&mut self, spec: &cabs::EnumSpecifier, span: Span) -> DResult<()> {
        if let Some(items) = &spec.enumerators {
            let mut next = 0i128;
            for (name, value) in items {
                let v = match value {
                    Some(e) => {
                        let ail = self.desugar_expr(e)?;
                        self.const_eval_int(&ail)?
                    }
                    None => next,
                };
                if !self.env.representable(v, IntegerType::Int) {
                    return self.violation(
                        format!("enumerator {name} is not representable as an int"),
                        "6.7.2.2p2",
                        span,
                    );
                }
                self.enum_consts
                    .last_mut()
                    .expect("scope stack is never empty")
                    .insert(name.clone(), v);
                next = v + 1;
            }
        }
        Ok(())
    }

    /// Compute `(declared name, type, function parameters)` for a declarator
    /// applied to a base type (the "declaration mirrors use" rule of 6.7.6).
    #[allow(clippy::type_complexity)]
    fn apply_declarator(
        &mut self,
        d: &cabs::Declarator,
        base: Ctype,
        span: Span,
    ) -> DResult<(
        Option<String>,
        Ctype,
        Option<(Vec<(Option<String>, Ctype)>, bool)>,
    )> {
        match d {
            cabs::Declarator::Abstract => Ok((None, base, None)),
            cabs::Declarator::Ident(name, _) => Ok((Some(name.clone()), base, None)),
            cabs::Declarator::Pointer(q, inner) => {
                self.apply_declarator(inner, Ctype::Pointer(*q, Box::new(base)), span)
            }
            cabs::Declarator::Array(inner, size) => {
                let n = match size {
                    Some(e) => {
                        let ail = self.desugar_expr(e)?;
                        let v = self.const_eval_int(&ail)?;
                        if v <= 0 {
                            return self.violation(
                                "array size must be a positive constant expression",
                                "6.7.6.2p1",
                                span,
                            );
                        }
                        Some(v as u64)
                    }
                    None => None,
                };
                self.apply_declarator(inner, Ctype::Array(Box::new(base), n), span)
            }
            cabs::Declarator::Function(inner, params, variadic) => {
                let mut param_info = Vec::new();
                for p in params {
                    let pbase = self.type_from_specifiers(&p.specifiers)?;
                    let (pname, pty, _) = self.apply_declarator(&p.declarator, pbase, span)?;
                    // Parameter adjustment (6.7.6.3p7-8): arrays and functions
                    // decay to pointers.
                    param_info.push((pname, pty.decay()));
                }
                let param_types: Vec<Ctype> = param_info.iter().map(|(_, t)| t.clone()).collect();
                let fn_ty = Ctype::Function(Box::new(base), param_types, *variadic);
                let direct = matches!(
                    **inner,
                    cabs::Declarator::Ident(..) | cabs::Declarator::Abstract
                );
                let (name, ty, inner_params) = self.apply_declarator(inner, fn_ty, span)?;
                if direct {
                    Ok((name, ty, Some((param_info, *variadic))))
                } else {
                    Ok((name, ty, inner_params))
                }
            }
        }
    }

    fn type_name_to_ctype(&mut self, tn: &cabs::TypeName, span: Span) -> DResult<Ctype> {
        let base = self.type_from_specifiers(&tn.specifiers)?;
        let (_, ty, _) = self.apply_declarator(&tn.declarator, base, span)?;
        Ok(ty)
    }

    // ----- constant expressions --------------------------------------------

    /// Evaluate an integer constant expression (6.6) over the Ail form.
    fn const_eval_int(&self, e: &AilExpr) -> DResult<i128> {
        use AilExprKind::*;
        let err = || {
            ConstraintViolation::new(
                "expression is not an integer constant expression",
                "6.6p6",
                e.span,
            )
        };
        match &e.kind {
            Constant(v) => Ok(*v),
            Unary(UnOp::Minus, inner) => Ok(-self.const_eval_int(inner)?),
            Unary(UnOp::Plus, inner) => self.const_eval_int(inner),
            Unary(UnOp::BitNot, inner) => Ok(!self.const_eval_int(inner)?),
            Unary(UnOp::LogicalNot, inner) => Ok(i128::from(self.const_eval_int(inner)? == 0)),
            Binary(op, l, r) => {
                let a = self.const_eval_int(l)?;
                let b = self.const_eval_int(r)?;
                Ok(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0 {
                            return Err(err());
                        }
                        a / b
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            return Err(err());
                        }
                        a % b
                    }
                    BinOp::Shl => a << (b.clamp(0, 127)),
                    BinOp::Shr => a >> (b.clamp(0, 127)),
                    BinOp::BitAnd => a & b,
                    BinOp::BitOr => a | b,
                    BinOp::BitXor => a ^ b,
                    BinOp::Lt => i128::from(a < b),
                    BinOp::Gt => i128::from(a > b),
                    BinOp::Le => i128::from(a <= b),
                    BinOp::Ge => i128::from(a >= b),
                    BinOp::Eq => i128::from(a == b),
                    BinOp::Ne => i128::from(a != b),
                    BinOp::LogicalAnd => i128::from(a != 0 && b != 0),
                    BinOp::LogicalOr => i128::from(a != 0 || b != 0),
                })
            }
            Conditional(c, t, f) => {
                if self.const_eval_int(c)? != 0 {
                    self.const_eval_int(t)
                } else {
                    self.const_eval_int(f)
                }
            }
            Cast(ty, inner) => {
                let v = self.const_eval_int(inner)?;
                match ty.as_integer() {
                    Some(it) => Ok(self.env.convert_int(v, it)),
                    None => Err(err()),
                }
            }
            _ => Err(err()),
        }
    }

    // ----- expressions ------------------------------------------------------

    fn rvalue_type(&self, e: &AilExpr) -> Ctype {
        e.ty.decay()
    }

    fn require_lvalue(&self, e: &AilExpr, what: &str, clause: &'static str) -> DResult<()> {
        if e.is_lvalue {
            Ok(())
        } else {
            Err(ConstraintViolation::new(
                format!("{what} requires an lvalue"),
                clause,
                e.span,
            ))
        }
    }

    fn member_type(&self, ty: &Ctype, member: &str, span: Span) -> DResult<Ctype> {
        let id = match ty {
            Ctype::Struct(id) | Ctype::Union(id) => *id,
            other => {
                return self.violation(
                    format!("member access on non-struct/union type {other}"),
                    "6.5.2.3p1",
                    span,
                )
            }
        };
        let def = self.tags.get(id).ok_or_else(|| {
            ConstraintViolation::new("member access on incomplete type", "6.5.2.3p1", span)
        })?;
        def.members
            .iter()
            .find(|m| m.name.as_str() == member)
            .map(|m| m.ty.clone())
            .ok_or_else(|| {
                ConstraintViolation::new(format!("no member named {member}"), "6.5.2.3p1", span)
            })
    }

    fn desugar_expr(&mut self, e: &cabs::Expr) -> DResult<AilExpr> {
        use cabs::Expr as CE;
        let span = e.span();
        let mk = |kind, ty, is_lvalue| AilExpr {
            kind,
            ty,
            is_lvalue,
            span,
        };
        match e {
            CE::Ident(name, _) => {
                if let Some(v) = self.lookup_enum_const(name) {
                    return Ok(mk(
                        AilExprKind::Constant(v),
                        Ctype::integer(IntegerType::Int),
                        false,
                    ));
                }
                if let Some(b) = self.lookup_object(name) {
                    return Ok(mk(
                        AilExprKind::Ident(b.unique.clone(), b.kind),
                        b.ty.clone(),
                        b.kind != IdentKind::Function,
                    ));
                }
                if let Some(fty) = self.functions.get(name) {
                    return Ok(mk(
                        AilExprKind::Ident(Ident::new(name.clone()), IdentKind::Function),
                        fty.clone(),
                        false,
                    ));
                }
                self.violation(
                    format!("use of undeclared identifier {name}"),
                    "6.5.1p2",
                    span,
                )
            }
            CE::IntConst(v, suffix, _) => {
                let IntSuffix { unsigned, longs } = *suffix;
                let it = choose_int_const_type(*v, unsigned, longs, self.env);
                Ok(mk(AilExprKind::Constant(*v), Ctype::integer(it), false))
            }
            CE::CharConst(v, _) => Ok(mk(
                AilExprKind::Constant(i128::from(*v)),
                Ctype::integer(IntegerType::Int),
                false,
            )),
            CE::FloatConst(v, _) => Ok(mk(AilExprKind::FloatConstant(*v), Ctype::Floating, false)),
            CE::StringLit(bytes, _) => {
                let len = bytes.len() as u64 + 1;
                Ok(mk(
                    AilExprKind::StringLit(bytes.clone()),
                    Ctype::array(Ctype::integer(IntegerType::Char), len),
                    true,
                ))
            }
            CE::Member(inner, name, _) => {
                let base = self.desugar_expr(inner)?;
                let mty = self.member_type(&base.ty, name, span)?;
                let lv = base.is_lvalue;
                Ok(mk(
                    AilExprKind::Member(Box::new(base), Ident::new(name.clone())),
                    mty,
                    lv,
                ))
            }
            CE::MemberPtr(inner, name, _) => {
                // p->m  ≡  (*p).m   (6.5.2.3p4)
                let base = self.desugar_expr(inner)?;
                let pty = self.rvalue_type(&base);
                let pointee = pty.pointee().cloned().ok_or_else(|| {
                    ConstraintViolation::new("-> applied to a non-pointer", "6.5.2.3p2", span)
                })?;
                let deref = mk(
                    AilExprKind::Unary(UnOp::Deref, Box::new(base)),
                    pointee.clone(),
                    true,
                );
                let mty = self.member_type(&pointee, name, span)?;
                Ok(mk(
                    AilExprKind::Member(Box::new(deref), Ident::new(name.clone())),
                    mty,
                    true,
                ))
            }
            CE::Index(arr, idx, _) => {
                // e1[e2]  ≡  *((e1) + (e2))   (6.5.2.1p2)
                let a = self.desugar_expr(arr)?;
                let i = self.desugar_expr(idx)?;
                let aty = self.rvalue_type(&a);
                let ity = self.rvalue_type(&i);
                let sum_ty = binary_result_type(BinOp::Add, &aty, &ity, self.env, span)?;
                let pointee = sum_ty.pointee().cloned().ok_or_else(|| {
                    ConstraintViolation::new(
                        "subscripted expression is not a pointer or array",
                        "6.5.2.1p1",
                        span,
                    )
                })?;
                let sum = mk(
                    AilExprKind::Binary(BinOp::Add, Box::new(a), Box::new(i)),
                    sum_ty,
                    false,
                );
                Ok(mk(
                    AilExprKind::Unary(UnOp::Deref, Box::new(sum)),
                    pointee,
                    true,
                ))
            }
            CE::Call(callee, args, _) => {
                let f = self.desugar_expr(callee)?;
                let fty = self.rvalue_type(&f);
                let (ret, params, variadic) = match &fty {
                    Ctype::Function(ret, params, variadic) => {
                        ((**ret).clone(), params.clone(), *variadic)
                    }
                    Ctype::Pointer(_, inner) => match &**inner {
                        Ctype::Function(ret, params, variadic) => {
                            ((**ret).clone(), params.clone(), *variadic)
                        }
                        _ => {
                            return self.violation(
                                "called object is not a function or function pointer",
                                "6.5.2.2p1",
                                span,
                            )
                        }
                    },
                    _ => {
                        return self.violation(
                            "called object is not a function or function pointer",
                            "6.5.2.2p1",
                            span,
                        )
                    }
                };
                let mut ail_args = Vec::with_capacity(args.len());
                for a in args {
                    ail_args.push(self.desugar_expr(a)?);
                }
                if (!params.is_empty() || !variadic)
                    && (ail_args.len() < params.len()
                        || (!variadic && ail_args.len() > params.len()))
                {
                    return self.violation(
                        format!(
                            "call supplies {} arguments but the function takes {}",
                            ail_args.len(),
                            params.len()
                        ),
                        "6.5.2.2p2",
                        span,
                    );
                }
                Ok(mk(AilExprKind::Call(Box::new(f), ail_args), ret, false))
            }
            CE::PostIncr(inner, _)
            | CE::PostDecr(inner, _)
            | CE::PreIncr(inner, _)
            | CE::PreDecr(inner, _) => {
                let op = match e {
                    CE::PostIncr(..) => UnOp::PostIncr,
                    CE::PostDecr(..) => UnOp::PostDecr,
                    CE::PreIncr(..) => UnOp::PreIncr,
                    _ => UnOp::PreDecr,
                };
                let operand = self.desugar_expr(inner)?;
                self.require_lvalue(&operand, "increment/decrement", "6.5.2.4p1")?;
                let ty = self.rvalue_type(&operand);
                if !ty.is_scalar() {
                    return self.violation(
                        "increment/decrement requires a scalar operand",
                        "6.5.2.4p1",
                        span,
                    );
                }
                Ok(mk(AilExprKind::Unary(op, Box::new(operand)), ty, false))
            }
            CE::Unary(op, inner, _) => {
                let operand = self.desugar_expr(inner)?;
                match op {
                    cabs::UnaryOp::AddressOf => {
                        if !operand.is_lvalue && !matches!(operand.ty, Ctype::Function(..)) {
                            return self.violation(
                                "& requires an lvalue or function designator",
                                "6.5.3.2p1",
                                span,
                            );
                        }
                        let ty = Ctype::pointer(operand.ty.clone());
                        Ok(mk(
                            AilExprKind::Unary(UnOp::AddressOf, Box::new(operand)),
                            ty,
                            false,
                        ))
                    }
                    cabs::UnaryOp::Deref => {
                        let pty = self.rvalue_type(&operand);
                        let pointee = pty.pointee().cloned().ok_or_else(|| {
                            ConstraintViolation::new(
                                "* applied to a non-pointer operand",
                                "6.5.3.2p2",
                                span,
                            )
                        })?;
                        let is_fn = matches!(pointee, Ctype::Function(..));
                        Ok(mk(
                            AilExprKind::Unary(UnOp::Deref, Box::new(operand)),
                            pointee,
                            !is_fn,
                        ))
                    }
                    cabs::UnaryOp::Plus | cabs::UnaryOp::Minus | cabs::UnaryOp::BitNot => {
                        let ty = self.rvalue_type(&operand);
                        let it = ty.as_integer().ok_or_else(|| {
                            ConstraintViolation::new(
                                "unary arithmetic requires an integer operand",
                                "6.5.3.3p1",
                                span,
                            )
                        })?;
                        let promoted = Ctype::integer(self.env.integer_promotion(it));
                        let un_op = match op {
                            cabs::UnaryOp::Plus => UnOp::Plus,
                            cabs::UnaryOp::Minus => UnOp::Minus,
                            _ => UnOp::BitNot,
                        };
                        Ok(mk(
                            AilExprKind::Unary(un_op, Box::new(operand)),
                            promoted,
                            false,
                        ))
                    }
                    cabs::UnaryOp::LogicalNot => {
                        let ty = self.rvalue_type(&operand);
                        if !ty.is_scalar() {
                            return self.violation(
                                "! requires a scalar operand",
                                "6.5.3.3p1",
                                span,
                            );
                        }
                        Ok(mk(
                            AilExprKind::Unary(UnOp::LogicalNot, Box::new(operand)),
                            Ctype::integer(IntegerType::Int),
                            false,
                        ))
                    }
                }
            }
            CE::SizeofExpr(inner, _) => {
                let operand = self.desugar_expr(inner)?;
                let size = layout::size_of(&operand.ty, self.env, &self.tags).map_err(|_| {
                    ConstraintViolation::new(
                        "sizeof applied to an incomplete or function type",
                        "6.5.3.4p1",
                        span,
                    )
                })?;
                Ok(mk(
                    AilExprKind::Constant(i128::from(size)),
                    Ctype::integer(IntegerType::SizeT),
                    false,
                ))
            }
            CE::SizeofType(tn, _) => {
                let ty = self.type_name_to_ctype(tn, span)?;
                let size = layout::size_of(&ty, self.env, &self.tags).map_err(|_| {
                    ConstraintViolation::new(
                        "sizeof applied to an incomplete or function type",
                        "6.5.3.4p1",
                        span,
                    )
                })?;
                Ok(mk(
                    AilExprKind::Constant(i128::from(size)),
                    Ctype::integer(IntegerType::SizeT),
                    false,
                ))
            }
            CE::AlignofType(tn, _) => {
                let ty = self.type_name_to_ctype(tn, span)?;
                let align = layout::align_of(&ty, self.env, &self.tags).map_err(|_| {
                    ConstraintViolation::new(
                        "_Alignof applied to an incomplete or function type",
                        "6.5.3.4p1",
                        span,
                    )
                })?;
                Ok(mk(
                    AilExprKind::Constant(i128::from(align)),
                    Ctype::integer(IntegerType::SizeT),
                    false,
                ))
            }
            CE::Cast(tn, inner, _) => {
                let ty = self.type_name_to_ctype(tn, span)?;
                let operand = self.desugar_expr(inner)?;
                if !ty.is_scalar() && !matches!(ty, Ctype::Void) {
                    return self.violation(
                        "cast target must be void or a scalar type",
                        "6.5.4p2",
                        span,
                    );
                }
                Ok(mk(
                    AilExprKind::Cast(ty.clone(), Box::new(operand)),
                    ty,
                    false,
                ))
            }
            CE::Binary(op, l, r, _) => {
                let bop = convert_binop(*op);
                let lhs = self.desugar_expr(l)?;
                let rhs = self.desugar_expr(r)?;
                let lty = self.rvalue_type(&lhs);
                let rty = self.rvalue_type(&rhs);
                let ty = binary_result_type(bop, &lty, &rty, self.env, span)?;
                Ok(mk(
                    AilExprKind::Binary(bop, Box::new(lhs), Box::new(rhs)),
                    ty,
                    false,
                ))
            }
            CE::Conditional(c, t, f, _) => {
                let cond = self.desugar_expr(c)?;
                if !self.rvalue_type(&cond).is_scalar() {
                    return self.violation(
                        "the first operand of ?: shall have scalar type",
                        "6.5.15p2",
                        span,
                    );
                }
                let then = self.desugar_expr(t)?;
                let els = self.desugar_expr(f)?;
                let tt = self.rvalue_type(&then);
                let ft = self.rvalue_type(&els);
                let ty = self.conditional_type(&tt, &ft, span)?;
                Ok(mk(
                    AilExprKind::Conditional(Box::new(cond), Box::new(then), Box::new(els)),
                    ty,
                    false,
                ))
            }
            CE::Assign(op, l, r, _) => {
                let lhs = self.desugar_expr(l)?;
                self.require_lvalue(&lhs, "assignment", "6.5.16p2")?;
                let rhs = self.desugar_expr(r)?;
                let lty = lhs.ty.clone();
                match op {
                    None => {
                        let rty = self.rvalue_type(&rhs);
                        if !assignable(&lty.decay(), &rty) {
                            return self.violation(
                                format!("cannot assign a value of type {rty} to an lvalue of type {lty}"),
                                "6.5.16.1p1",
                                span,
                            );
                        }
                        Ok(mk(
                            AilExprKind::Assign(Box::new(lhs), Box::new(rhs)),
                            lty,
                            false,
                        ))
                    }
                    Some(cop) => {
                        let bop = convert_binop(*cop);
                        let lt = self.rvalue_type(&lhs);
                        let rt = self.rvalue_type(&rhs);
                        // The intermediate type must exist; the result type is
                        // the lvalue's type.
                        binary_result_type(bop, &lt, &rt, self.env, span)?;
                        Ok(mk(
                            AilExprKind::CompoundAssign(bop, Box::new(lhs), Box::new(rhs)),
                            lty,
                            false,
                        ))
                    }
                }
            }
            CE::Comma(a, b, _) => {
                let lhs = self.desugar_expr(a)?;
                let rhs = self.desugar_expr(b)?;
                let ty = self.rvalue_type(&rhs);
                Ok(mk(
                    AilExprKind::Comma(Box::new(lhs), Box::new(rhs)),
                    ty,
                    false,
                ))
            }
        }
    }

    fn conditional_type(&self, t: &Ctype, f: &Ctype, span: Span) -> DResult<Ctype> {
        if let (Some(a), Some(b)) = (t.as_integer(), f.as_integer()) {
            return Ok(Ctype::integer(self.env.usual_arithmetic_conversion(a, b)));
        }
        if t == f {
            return Ok(t.clone());
        }
        match (t, f) {
            (Ctype::Pointer(..), i) if i.is_integer() => Ok(t.clone()),
            (i, Ctype::Pointer(..)) if i.is_integer() => Ok(f.clone()),
            (Ctype::Pointer(_, a), Ctype::Pointer(_, b)) => {
                if matches!(**a, Ctype::Void) {
                    Ok(f.clone())
                } else if matches!(**b, Ctype::Void) {
                    Ok(t.clone())
                } else {
                    self.violation("incompatible operand types for ?:", "6.5.15p3", span)
                }
            }
            _ if t.is_arithmetic() && f.is_arithmetic() => Ok(Ctype::Floating),
            _ => self.violation("incompatible operand types for ?:", "6.5.15p3", span),
        }
    }

    // ----- initialisers ------------------------------------------------------

    fn desugar_initializer(&mut self, init: &cabs::Initializer) -> DResult<AilInit> {
        match init {
            cabs::Initializer::Expr(e) => Ok(AilInit::Expr(self.desugar_expr(e)?)),
            cabs::Initializer::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.desugar_initializer(item)?);
                }
                Ok(AilInit::List(out))
            }
        }
    }

    /// Check that a scalar initialiser is assignment-compatible with the
    /// declared type (6.7.9p11: "the same type constraints ... as for simple
    /// assignment apply").
    fn check_init_compatibility(&self, ty: &Ctype, init: &AilInit, span: Span) -> DResult<()> {
        if let (true, AilInit::Expr(e)) = (ty.is_scalar(), init) {
            let from = self.rvalue_type(e);
            if !assignable(ty, &from) {
                return self.violation(
                    format!("cannot initialise an object of type {ty} with a value of type {from}"),
                    "6.7.9p11",
                    span,
                );
            }
        }
        Ok(())
    }

    // ----- declarations ------------------------------------------------------

    fn desugar_block_declaration(&mut self, decl: &cabs::Declaration) -> DResult<Vec<ObjectDecl>> {
        let base = self.type_from_specifiers(&decl.specifiers)?;
        let mut out = Vec::new();
        for init_decl in &decl.declarators {
            let (name, ty, _) =
                self.apply_declarator(&init_decl.declarator, base.clone(), decl.span)?;
            let name = name.ok_or_else(|| {
                ConstraintViolation::new("declarator lacks an identifier", "6.7p2", decl.span)
            })?;
            match decl.specifiers.storage {
                Some(StorageClass::Typedef) => {
                    self.typedefs
                        .last_mut()
                        .expect("scope stack is never empty")
                        .insert(name, ty);
                    continue;
                }
                Some(StorageClass::Static) => {
                    // A static local is an object with static storage duration
                    // under a unique name.
                    let owner = self.current_fn.clone().unwrap_or_default();
                    let unique = Ident::new(format!("{owner}.static.{name}"));
                    let init = match &init_decl.initializer {
                        Some(i) => Some(self.desugar_initializer(i)?),
                        None => None,
                    };
                    self.globals.push(GlobalDef {
                        name: unique.clone(),
                        ty: ty.clone(),
                        init,
                        span: decl.span,
                    });
                    self.bind_object(
                        &name,
                        Binding {
                            unique,
                            ty,
                            kind: IdentKind::Global,
                        },
                    );
                    continue;
                }
                Some(StorageClass::Extern) => {
                    // Reference to an object or function defined elsewhere (in
                    // this single-translation-unit setting, earlier in the
                    // file or a builtin).
                    if matches!(ty, Ctype::Function(..)) {
                        self.functions.insert(name.clone(), ty.clone());
                        self.decls.push(FunctionDecl {
                            name: Ident::new(name),
                            ty,
                        });
                    } else {
                        let unique = Ident::new(name.clone());
                        self.bind_object(
                            &name,
                            Binding {
                                unique,
                                ty,
                                kind: IdentKind::Global,
                            },
                        );
                    }
                    continue;
                }
                _ => {}
            }
            if matches!(ty, Ctype::Function(..)) {
                self.functions.insert(name.clone(), ty.clone());
                self.decls.push(FunctionDecl {
                    name: Ident::new(name),
                    ty,
                });
                continue;
            }
            let unique = self.fresh_local(&name);
            let init = match &init_decl.initializer {
                Some(i) => Some(self.desugar_initializer(i)?),
                None => None,
            };
            if let Some(init) = &init {
                self.check_init_compatibility(&ty, init, decl.span)?;
            }
            self.bind_object(
                &name,
                Binding {
                    unique: unique.clone(),
                    ty: ty.clone(),
                    kind: IdentKind::Local,
                },
            );
            out.push(ObjectDecl {
                name: unique,
                ty,
                init,
                span: decl.span,
            });
        }
        Ok(out)
    }

    fn desugar_file_scope_declaration(&mut self, decl: &cabs::Declaration) -> DResult<()> {
        let base = self.type_from_specifiers(&decl.specifiers)?;
        for init_decl in &decl.declarators {
            let (name, ty, _) =
                self.apply_declarator(&init_decl.declarator, base.clone(), decl.span)?;
            let name = name.ok_or_else(|| {
                ConstraintViolation::new("declarator lacks an identifier", "6.7p2", decl.span)
            })?;
            if decl.specifiers.storage == Some(StorageClass::Typedef) {
                self.typedefs
                    .last_mut()
                    .expect("scope stack is never empty")
                    .insert(name, ty);
                continue;
            }
            if matches!(ty, Ctype::Function(..)) {
                self.functions.insert(name.clone(), ty.clone());
                self.decls.push(FunctionDecl {
                    name: Ident::new(name),
                    ty,
                });
                continue;
            }
            // A file-scope object. `extern` without an initialiser is a
            // declaration only; with our single-translation-unit model we
            // still give it storage so the program can run.
            let unique = Ident::new(name.clone());
            let init = match &init_decl.initializer {
                Some(i) => Some(self.desugar_initializer(i)?),
                None => None,
            };
            if let Some(init) = &init {
                self.check_init_compatibility(&ty, init, decl.span)?;
            }
            let already = self.globals.iter().position(|g| g.name == unique);
            match already {
                Some(idx) => {
                    if init.is_some() {
                        self.globals[idx].init = init;
                    }
                }
                None => {
                    self.globals.push(GlobalDef {
                        name: unique.clone(),
                        ty: ty.clone(),
                        init,
                        span: decl.span,
                    });
                }
            }
            self.bind_object(
                &name,
                Binding {
                    unique,
                    ty,
                    kind: IdentKind::Global,
                },
            );
        }
        Ok(())
    }

    // ----- statements --------------------------------------------------------

    fn desugar_stmt(&mut self, s: &cabs::Statement) -> DResult<AilStmt> {
        use cabs::Statement as CS;
        match s {
            CS::Expr(None, _) => Ok(AilStmt::Skip),
            CS::Expr(Some(e), _) => Ok(AilStmt::Expr(self.desugar_expr(e)?)),
            CS::Compound(items, span) => {
                self.push_scope();
                let mut stmts = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        cabs::BlockItem::Declaration(d) => {
                            let decls = self.desugar_block_declaration(d)?;
                            if !decls.is_empty() {
                                stmts.push(AilStmt::Decl(decls));
                            }
                        }
                        cabs::BlockItem::Statement(st) => stmts.push(self.desugar_stmt(st)?),
                    }
                }
                self.pop_scope();
                Ok(AilStmt::Block(stmts, *span))
            }
            CS::If(c, t, f, _) => {
                let cond = self.desugar_expr(c)?;
                let then = self.desugar_stmt(t)?;
                let els = match f {
                    Some(stmt) => self.desugar_stmt(stmt)?,
                    None => AilStmt::Skip,
                };
                Ok(AilStmt::If(cond, Box::new(then), Box::new(els)))
            }
            CS::While(c, body, _) => {
                let cond = self.desugar_expr(c)?;
                let body = self.desugar_stmt(body)?;
                Ok(AilStmt::While(cond, Box::new(body)))
            }
            CS::DoWhile(body, c, _) => {
                let body = self.desugar_stmt(body)?;
                let cond = self.desugar_expr(c)?;
                Ok(AilStmt::DoWhile(Box::new(body), cond))
            }
            CS::For(init, cond, step, body, _) => {
                self.push_scope();
                let init_stmt = match init {
                    None => AilStmt::Skip,
                    Some(cabs::ForInit::Expr(e)) => AilStmt::Expr(self.desugar_expr(e)?),
                    Some(cabs::ForInit::Declaration(d)) => {
                        let decls = self.desugar_block_declaration(d)?;
                        AilStmt::Decl(decls)
                    }
                };
                let cond = match cond {
                    Some(c) => Some(self.desugar_expr(c)?),
                    None => None,
                };
                let step = match step {
                    Some(s) => Some(self.desugar_expr(s)?),
                    None => None,
                };
                let body = self.desugar_stmt(body)?;
                self.pop_scope();
                Ok(AilStmt::For(
                    Box::new(init_stmt),
                    cond,
                    step,
                    Box::new(body),
                ))
            }
            CS::Switch(e, body, _) => {
                let scrutinee = self.desugar_expr(e)?;
                if !self.rvalue_type(&scrutinee).is_integer() {
                    return self.violation(
                        "the controlling expression of a switch shall have integer type",
                        "6.8.4.2p1",
                        s.span(),
                    );
                }
                let body = self.desugar_stmt(body)?;
                Ok(AilStmt::Switch(scrutinee, Box::new(body)))
            }
            CS::Case(e, stmt, span) => {
                let label = self.desugar_expr(e)?;
                let value = self.const_eval_int(&label).map_err(|_| {
                    ConstraintViolation::new(
                        "case label is not an integer constant expression",
                        "6.8.4.2p3",
                        *span,
                    )
                })?;
                let stmt = self.desugar_stmt(stmt)?;
                Ok(AilStmt::Case(value, Box::new(stmt)))
            }
            CS::Default(stmt, _) => Ok(AilStmt::Default(Box::new(self.desugar_stmt(stmt)?))),
            CS::Break(_) => Ok(AilStmt::Break),
            CS::Continue(_) => Ok(AilStmt::Continue),
            CS::Return(e, _) => {
                let value = match e {
                    Some(e) => Some(self.desugar_expr(e)?),
                    None => None,
                };
                Ok(AilStmt::Return(value))
            }
            CS::Goto(label, _) => Ok(AilStmt::Goto(Ident::new(label.clone()))),
            CS::Labeled(label, stmt, _) => {
                let inner = self.desugar_stmt(stmt)?;
                Ok(AilStmt::Label(Ident::new(label.clone()), Box::new(inner)))
            }
        }
    }

    // ----- external declarations ----------------------------------------------

    fn desugar_function_definition(&mut self, def: &cabs::FunctionDefinition) -> DResult<()> {
        let base = self.type_from_specifiers(&def.specifiers)?;
        let (name, fn_ty, params) = self.apply_declarator(&def.declarator, base, def.span)?;
        let name = name.ok_or_else(|| {
            ConstraintViolation::new("function definition lacks a name", "6.9.1p2", def.span)
        })?;
        let (param_info, variadic) = params.ok_or_else(|| {
            ConstraintViolation::new(
                "function definition declarator is not a function declarator",
                "6.9.1p2",
                def.span,
            )
        })?;
        let return_ty = match &fn_ty {
            Ctype::Function(ret, _, _) => (**ret).clone(),
            _ => {
                return self.violation(
                    "function definition declarator is not a function declarator",
                    "6.9.1p2",
                    def.span,
                )
            }
        };
        self.functions.insert(name.clone(), fn_ty);
        self.current_fn = Some(name.clone());

        self.push_scope();
        let mut ail_params = Vec::with_capacity(param_info.len());
        for (pname, pty) in &param_info {
            let pname = pname.clone().ok_or_else(|| {
                ConstraintViolation::new(
                    "parameter in a function definition lacks a name",
                    "6.9.1p5",
                    def.span,
                )
            })?;
            let unique = self.fresh_local(&pname);
            self.bind_object(
                &pname,
                Binding {
                    unique: unique.clone(),
                    ty: pty.clone(),
                    kind: IdentKind::Local,
                },
            );
            ail_params.push((unique, pty.clone()));
        }
        let body = self.desugar_stmt(&def.body)?;
        self.pop_scope();
        self.current_fn = None;

        self.func_defs.push(FunctionDef {
            name: Ident::new(name),
            return_ty,
            params: ail_params,
            variadic,
            body,
            span: def.span,
        });
        Ok(())
    }

    /// Desugar every external declaration, recovering at declaration
    /// granularity: a violation inside one function or file-scope declaration
    /// is recorded and desugaring resumes at the next external declaration, so
    /// a single pass can report every independently diagnosable violation.
    fn run_all(mut self, tu: &TranslationUnit) -> Result<AilProgram, Vec<ConstraintViolation>> {
        let mut violations = Vec::new();
        for decl in &tu.declarations {
            let result = match decl {
                cabs::ExternalDeclaration::FunctionDefinition(def) => {
                    self.desugar_function_definition(def)
                }
                cabs::ExternalDeclaration::Declaration(d) => {
                    debug_assert!(self.at_file_scope());
                    self.desugar_file_scope_declaration(d)
                }
            };
            if let Err(violation) = result {
                // A failed function definition may have left inner scopes
                // open; drop back to file scope before continuing.
                self.reset_to_file_scope();
                violations.push(violation);
            }
        }
        if violations.is_empty() {
            Ok(AilProgram {
                tags: self.tags,
                globals: self.globals,
                functions: self.func_defs,
                declarations: self.decls,
            })
        } else {
            Err(violations)
        }
    }

    /// Pop any scopes a mid-declaration failure left open, restoring the
    /// file-scope invariant `run_all` relies on between external declarations.
    fn reset_to_file_scope(&mut self) {
        while self.objects.len() > 1 {
            self.objects.pop();
        }
        while self.typedefs.len() > 1 {
            self.typedefs.pop();
        }
        while self.enum_consts.len() > 1 {
            self.enum_consts.pop();
        }
        self.current_fn = None;
    }
}

fn convert_binop(op: cabs::BinaryOp) -> BinOp {
    use cabs::BinaryOp as B;
    match op {
        B::Mul => BinOp::Mul,
        B::Div => BinOp::Div,
        B::Mod => BinOp::Mod,
        B::Add => BinOp::Add,
        B::Sub => BinOp::Sub,
        B::Shl => BinOp::Shl,
        B::Shr => BinOp::Shr,
        B::Lt => BinOp::Lt,
        B::Gt => BinOp::Gt,
        B::Le => BinOp::Le,
        B::Ge => BinOp::Ge,
        B::Eq => BinOp::Eq,
        B::Ne => BinOp::Ne,
        B::BitAnd => BinOp::BitAnd,
        B::BitXor => BinOp::BitXor,
        B::BitOr => BinOp::BitOr,
        B::LogicalAnd => BinOp::LogicalAnd,
        B::LogicalOr => BinOp::LogicalOr,
    }
}

/// Desugar and type-check a parsed translation unit, collecting **all**
/// independently diagnosable constraint violations instead of stopping at the
/// first.
///
/// Recovery is at external-declaration granularity: a violation inside one
/// function or file-scope declaration abandons that declaration and resumes
/// at the next, so one pass reports one violation per broken declaration (in
/// source order). The first violation is the one a pass stopping at the
/// first error would report.
///
/// # Errors
///
/// Returns the non-empty list of violations, in source order.
pub fn desugar_translation_unit_all(
    tu: &TranslationUnit,
    env: &ImplEnv,
) -> Result<AilProgram, Vec<ConstraintViolation>> {
    Desugarer::new(env).run_all(tu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desugar(src: &str) -> Result<AilProgram, Vec<ConstraintViolation>> {
        let tu = cerberus_parser::parse_translation_unit(src).unwrap();
        desugar_translation_unit_all(&tu, &ImplEnv::lp64())
    }

    fn run(src: &str) -> AilProgram {
        desugar(src).unwrap()
    }

    /// The first constraint violation of a source that parses.
    fn run_err(src: &str) -> ConstraintViolation {
        desugar(src).unwrap_err().remove(0)
    }

    #[test]
    fn minimal_program() {
        let p = run("int main(void) { return 0; }");
        assert!(p.has_main());
        assert_eq!(p.functions[0].return_ty, Ctype::integer(IntegerType::Int));
    }

    #[test]
    fn collect_all_reports_every_broken_declaration() {
        let src = "int f(void) { return aa; }\n\
                   int ok(void) { return 1; }\n\
                   int g(void) { return bb; }\n\
                   int main(void) { return ok(); }";
        let tu = cerberus_parser::parse_translation_unit(src).unwrap();
        let violations = desugar_translation_unit_all(&tu, &ImplEnv::lp64()).unwrap_err();
        assert_eq!(violations.len(), 2, "violations: {violations:?}");
        assert!(violations[0].message().contains("aa"));
        assert!(violations[1].message().contains("bb"));
        // In source order.
        assert!(
            violations[0].diagnostic.span.start.line <= violations[1].diagnostic.span.start.line
        );
    }

    #[test]
    fn globals_are_collected_in_order() {
        let p = run("int y = 2, x = 1; int main(void) { return x + y; }");
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[0].name.as_str(), "y");
        assert_eq!(p.globals[1].name.as_str(), "x");
    }

    #[test]
    fn locals_are_renamed_uniquely() {
        let p = run("int main(void) { int x = 1; { int x = 2; x = 3; } return x; }");
        let body = format!("{:?}", p.functions[0].body);
        // Two distinct unique names derived from `x`.
        assert!(body.contains("x.1"));
        assert!(body.contains("x.2"));
    }

    #[test]
    fn enums_become_integer_constants() {
        let p = run("enum colour { RED, GREEN = 5, BLUE }; int main(void) { return BLUE; }");
        let body = format!("{:?}", p.functions[0].body);
        assert!(body.contains("Constant(6)"));
    }

    #[test]
    fn subscripts_are_rewritten_to_deref_of_addition() {
        let p = run("int main(void) { int a[3]; return a[2]; }");
        let body = format!("{:?}", p.functions[0].body);
        assert!(body.contains("Deref"));
        assert!(body.contains("Add"));
    }

    #[test]
    fn arrow_is_rewritten_to_member_of_deref() {
        let p = run("struct s { int v; };\n\
             int get(struct s *p) { return p->v; }");
        let body = format!("{:?}", p.functions[0].body);
        assert!(body.contains("Member"));
        assert!(body.contains("Deref"));
    }

    #[test]
    fn sizeof_is_folded_to_a_size_t_constant() {
        let p = run("int main(void) { return (int)sizeof(long); }");
        let body = format!("{:?}", p.functions[0].body);
        assert!(body.contains("Constant(8)"));
    }

    #[test]
    fn typedefs_resolve() {
        let p = run("typedef unsigned long word; word w = 3; int main(void) { return (int)w; }");
        assert_eq!(p.globals[0].ty, Ctype::integer(IntegerType::ULong));
    }

    #[test]
    fn struct_definitions_enter_the_registry() {
        let p =
            run("struct point { int x; int y; }; struct point origin; int main(void){return 0;}");
        assert_eq!(p.tags.iter().count(), 1);
        let (_, def) = p.tags.iter().next().unwrap();
        assert_eq!(def.members.len(), 2);
    }

    #[test]
    fn static_locals_become_globals() {
        let p = run("int counter(void) { static int n = 0; n = n + 1; return n; } int main(void) { return counter(); }");
        assert!(p
            .globals
            .iter()
            .any(|g| g.name.as_str().contains("static.n")));
    }

    #[test]
    fn builtin_calls_typecheck() {
        run(
            "#include <stdio.h>\n#include <stdlib.h>\n\
             int main(void) { int *p = malloc(sizeof(int)); *p = 3; printf(\"%d\\n\", *p); free(p); return 0; }",
        );
    }

    #[test]
    fn undeclared_identifier_is_a_violation() {
        let c = run_err("int main(void) { return zz; }");
        assert_eq!(c.iso_clause(), "6.5.1p2");
    }

    #[test]
    fn shift_of_pointer_is_a_violation() {
        let c = run_err("int main(void) { int x = 0; int *p = &x; return (int)(p << 1); }");
        assert_eq!(c.iso_clause(), "6.5.7p2");
    }

    #[test]
    fn assignment_to_rvalue_is_a_violation() {
        let c = run_err("int main(void) { 3 = 4; return 0; }");
        assert_eq!(c.iso_clause(), "6.5.16p2");
    }

    #[test]
    fn incompatible_pointer_assignment_is_a_violation() {
        // Initialisation constraints follow those of assignment; we reject at
        // the declaration (6.7.9p11 via 6.5.16.1p1) or assignment clause.
        run_err("int main(void) { int x; char *p = &x; return 0; }");
    }

    #[test]
    fn call_arity_is_checked() {
        let c = run_err("int f(int a) { return a; } int main(void) { return f(1, 2); }");
        assert_eq!(c.iso_clause(), "6.5.2.2p2");
    }

    #[test]
    fn case_labels_fold() {
        let p = run(
            "int main(void) { int x = 2; switch (x) { case 1 + 1: return 1; default: return 0; } }",
        );
        let body = format!("{:?}", p.functions[0].body);
        assert!(body.contains("Case(2"));
    }

    #[test]
    fn string_literals_have_array_type() {
        let p = run("int main(void) { char *s = \"hi\"; return s[0]; }");
        let body = format!("{:?}", p.functions[0].body);
        assert!(body.contains("StringLit"));
    }

    #[test]
    fn provenance_example_desugars() {
        run("#include <stdio.h>\n#include <string.h>\n\
             int y=2, x=1;\n\
             int main() {\n\
               int *p = &x + 1;\n\
               int *q = &y;\n\
               printf(\"Addresses: p=%p q=%p\\n\",(void*)p,(void*)q);\n\
               if (memcmp(&p, &q, sizeof(p)) == 0) {\n\
                 *p = 11;\n\
                 printf(\"x=%d y=%d *p=%d *q=%d\\n\",x,y,*p,*q);\n\
               }\n\
               return 0;\n\
             }");
    }

    #[test]
    fn unsigned_comparison_example_types() {
        // The §5.5 example: -1 < (unsigned int)0 — the comparison is done at
        // unsigned int after the usual arithmetic conversions.
        let p = run("int main(void) { return -1 < (unsigned int)0; }");
        assert!(p.has_main());
    }

    #[test]
    fn function_pointers_desugar() {
        run("int add(int a, int b) { return a + b; }\n\
             int main(void) { int (*f)(int, int) = add; return f(2, 3); }");
    }

    #[test]
    fn for_loop_with_declaration() {
        run("int main(void) { int acc = 0; for (int i = 0; i < 4; i++) acc += i; return acc; }");
    }

    #[test]
    fn goto_and_labels_survive() {
        let p = run("int main(void) { int x = 0; goto done; x = 1; done: return x; }");
        let body = format!("{:?}", p.functions[0].body);
        assert!(body.contains("Goto"));
        assert!(body.contains("Label"));
    }

    #[test]
    fn incompatible_conditional_arms_are_rejected() {
        run_err(
            "struct a { int x; }; struct b { int y; };\n\
             struct a ga; struct b gb;\n\
             int main(void) { int c = 1; return (c ? ga : gb).x; }",
        );
    }

    #[test]
    fn unions_desugar() {
        let p = run("union u { int i; char bytes[4]; };\n\
             int main(void) { union u v; v.i = 258; return v.bytes[0]; }");
        assert_eq!(p.tags.iter().count(), 1);
    }
}
