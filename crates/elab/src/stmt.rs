//! Statement elaboration: blocks and object lifetimes (§5.7), loops, `goto`
//! and `switch` via Core labels (§5.8), and global initialisation.

use cerberus_ail::ail::{AilInit, AilStmt, FunctionDef, GlobalDef, ObjectDecl};
use cerberus_ast::ctype::Ctype;
use cerberus_ast::env::ImplEnv;
use cerberus_ast::ident::Ident;
use cerberus_ast::layout::TagRegistry;
use cerberus_ast::ub::UbKind;
use cerberus_core::syntax::{Expr, MemAction, PExpr, Pattern, Polarity};

/// The elaboration context: the implementation-defined environment, the tag
/// registry (for member offsets and layout queries during elaboration), the
/// string-literal table, and the label stacks for `break`/`continue`.
#[derive(Debug)]
pub struct Elaborator {
    pub(crate) env: ImplEnv,
    pub(crate) tags: TagRegistry,
    string_literals: Vec<(Ident, Vec<u8>)>,
    break_stack: Vec<Ident>,
    continue_stack: Vec<Ident>,
    switch_stack: Vec<u64>,
    switch_counter: u64,
}

impl Elaborator {
    /// A fresh elaborator.
    pub fn new(env: ImplEnv, tags: TagRegistry) -> Self {
        Elaborator {
            env,
            tags,
            string_literals: Vec::new(),
            break_stack: Vec::new(),
            continue_stack: Vec::new(),
            switch_stack: Vec::new(),
            switch_counter: 0,
        }
    }

    /// Take the string-literal objects registered while elaborating.
    pub fn take_string_literals(&mut self) -> Vec<(Ident, Vec<u8>)> {
        std::mem::take(&mut self.string_literals)
    }

    /// Register a string literal and return the symbol its object is bound to.
    pub(crate) fn register_string_literal(&mut self, bytes: &[u8]) -> Ident {
        let name = Ident::fresh("strlit");
        self.string_literals.push((name.clone(), bytes.to_vec()));
        name
    }

    // ----- memory action helpers ---------------------------------------------

    pub(crate) fn action_create(&self, ty: &Ctype) -> Expr {
        Expr::Action(
            Polarity::Positive,
            MemAction::Create {
                align: Box::new(PExpr::Builtin(
                    cerberus_core::syntax::BuiltinFn::AlignOf,
                    vec![PExpr::CtypeConst(ty.clone())],
                )),
                ty: Box::new(PExpr::CtypeConst(ty.clone())),
            },
        )
    }

    pub(crate) fn action_store(&self, ty: &Ctype, ptr: PExpr, value: PExpr) -> Expr {
        Expr::Action(
            Polarity::Positive,
            MemAction::Store {
                ty: Box::new(PExpr::CtypeConst(ty.clone())),
                ptr: Box::new(ptr),
                value: Box::new(value),
            },
        )
    }

    pub(crate) fn action_store_neg(&self, ty: &Ctype, ptr: PExpr, value: PExpr) -> Expr {
        Expr::Action(
            Polarity::Negative,
            MemAction::Store {
                ty: Box::new(PExpr::CtypeConst(ty.clone())),
                ptr: Box::new(ptr),
                value: Box::new(value),
            },
        )
    }

    pub(crate) fn action_load(&self, ty: &Ctype, ptr: PExpr) -> Expr {
        Expr::Action(
            Polarity::Positive,
            MemAction::Load {
                ty: Box::new(PExpr::CtypeConst(ty.clone())),
                ptr: Box::new(ptr),
            },
        )
    }

    pub(crate) fn action_kill(&self, ptr: PExpr) -> Expr {
        Expr::Action(Polarity::Positive, MemAction::Kill(Box::new(ptr)))
    }

    // ----- initialisation -----------------------------------------------------

    /// Elaborate the stores that realise an initialiser for the object at
    /// `ptr` of type `ty`.
    pub(crate) fn elab_init_into(&mut self, ptr: PExpr, ty: &Ctype, init: &AilInit) -> Expr {
        match init {
            AilInit::Expr(e) => {
                let v = Ident::fresh("init");
                let rv = self.elab_rvalue(e);
                let converted = self.convert_loaded(ty, &e.ty.decay(), PExpr::Sym(v.clone()));
                Expr::Sseq(
                    Pattern::Sym(v),
                    Box::new(rv),
                    Box::new(self.action_store(ty, ptr, converted)),
                )
            }
            AilInit::List(items) => match ty {
                Ctype::Array(elem, _) => {
                    let mut stores = Vec::new();
                    for (i, item) in items.iter().enumerate() {
                        let elem_ptr = PExpr::ArrayShift {
                            ptr: Box::new(ptr.clone()),
                            elem_ty: (**elem).clone(),
                            index: Box::new(PExpr::Integer(i as i128)),
                        };
                        stores.push(self.elab_init_into(elem_ptr, elem, item));
                    }
                    Expr::seq_all(stores)
                }
                Ctype::Struct(tag) => {
                    let members: Vec<_> = match self.tags.get(*tag) {
                        Some(def) => def.members.clone(),
                        None => {
                            return Expr::Pure(PExpr::Error("incomplete struct initialiser".into()))
                        }
                    };
                    let mut stores = Vec::new();
                    for (member, item) in members.iter().zip(items.iter()) {
                        let mptr = PExpr::MemberShift {
                            ptr: Box::new(ptr.clone()),
                            tag: *tag,
                            member: member.name.clone(),
                        };
                        stores.push(self.elab_init_into(mptr, &member.ty, item));
                    }
                    Expr::seq_all(stores)
                }
                Ctype::Union(tag) => {
                    let first = match self.tags.get(*tag).and_then(|d| d.members.first().cloned()) {
                        Some(m) => m,
                        None => {
                            return Expr::Pure(PExpr::Error("incomplete union initialiser".into()))
                        }
                    };
                    match items.first() {
                        Some(item) => self.elab_init_into(ptr, &first.ty, item),
                        None => Expr::Skip,
                    }
                }
                // A brace-enclosed initialiser for a scalar: `int x = {3};`.
                _ => match items.first() {
                    Some(item) => self.elab_init_into(ptr, ty, item),
                    None => Expr::Skip,
                },
            },
        }
    }

    /// The initialisation expression of an object with static storage
    /// duration: evaluated before `main`, storing into the global's object
    /// (objects without initialiser are zero-initialised by the memory
    /// engine, so `skip` suffices).
    pub fn elaborate_global_init(&mut self, global: &GlobalDef) -> Expr {
        match &global.init {
            None => Expr::Skip,
            Some(init) => self.elab_init_into(PExpr::Sym(global.name.clone()), &global.ty, init),
        }
    }

    // ----- statements ----------------------------------------------------------

    fn bind_decls(&mut self, decls: &[ObjectDecl], inner: Expr) -> Expr {
        let mut result = inner;
        for decl in decls.iter().rev() {
            let init = match &decl.init {
                Some(init) => self.elab_init_into(PExpr::Sym(decl.name.clone()), &decl.ty, init),
                None => Expr::Skip,
            };
            result = Expr::Sseq(
                Pattern::Sym(decl.name.clone()),
                Box::new(self.action_create(&decl.ty)),
                Box::new(Expr::seq(init, result)),
            );
        }
        result
    }

    fn elab_stmt_list(&mut self, stmts: &[AilStmt]) -> Expr {
        // Collect the block's declarations so their lifetimes can be ended at
        // the end of the block (§5.7).
        let mut kills = Vec::new();
        for s in stmts {
            if let AilStmt::Decl(decls) = s {
                for d in decls {
                    kills.push(self.action_kill(PExpr::Sym(d.name.clone())));
                }
            }
        }
        let mut result = Expr::seq_all(kills);
        for s in stmts.iter().rev() {
            result = match s {
                AilStmt::Decl(decls) => self.bind_decls(decls, result),
                AilStmt::Label(..) | AilStmt::Case(..) | AilStmt::Default(..) => {
                    self.elab_labeled_into(s, result)
                }
                other => Expr::seq(self.elab_stmt(other), result),
            };
        }
        result
    }

    /// Elaborate a labelled statement so that the Core `save` label covers the
    /// *remainder of the block* (`rest`), giving `run label` the semantics of
    /// a C jump to that label: re-execution continues from the labelled
    /// statement through the rest of the block (§5.8).
    fn elab_labeled_into(&mut self, stmt: &AilStmt, rest: Expr) -> Expr {
        match stmt {
            AilStmt::Label(label, inner) => {
                let body = self.elab_labeled_into(inner, rest);
                Expr::Save(Ident::new(format!("label_{label}")), Box::new(body))
            }
            AilStmt::Case(value, inner) => {
                let switch_id = self.switch_stack.last().copied().unwrap_or(0);
                let label = self.switch_case_label(switch_id, *value);
                let body = self.elab_labeled_into(inner, rest);
                Expr::Save(label, Box::new(body))
            }
            AilStmt::Default(inner) => {
                let switch_id = self.switch_stack.last().copied().unwrap_or(0);
                let label = self.switch_default_label(switch_id);
                let body = self.elab_labeled_into(inner, rest);
                Expr::Save(label, Box::new(body))
            }
            other => Expr::seq(self.elab_stmt(other), rest),
        }
    }

    fn switch_case_label(&self, switch_id: u64, value: i128) -> Ident {
        let v = value.to_string().replace('-', "m");
        Ident::new(format!("case_{switch_id}_{v}"))
    }

    fn switch_default_label(&self, switch_id: u64) -> Ident {
        Ident::new(format!("default_{switch_id}"))
    }

    fn collect_cases(stmt: &AilStmt, values: &mut Vec<i128>, has_default: &mut bool) {
        match stmt {
            AilStmt::Case(v, inner) => {
                values.push(*v);
                Self::collect_cases(inner, values, has_default);
            }
            AilStmt::Default(inner) => {
                *has_default = true;
                Self::collect_cases(inner, values, has_default);
            }
            AilStmt::Block(items, _) => {
                for item in items {
                    Self::collect_cases(item, values, has_default);
                }
            }
            AilStmt::Label(_, inner) => Self::collect_cases(inner, values, has_default),
            AilStmt::If(_, t, f) => {
                Self::collect_cases(t, values, has_default);
                Self::collect_cases(f, values, has_default);
            }
            AilStmt::While(_, b) | AilStmt::DoWhile(b, _) | AilStmt::For(_, _, _, b) => {
                Self::collect_cases(b, values, has_default);
            }
            // Nested switches own their case labels.
            AilStmt::Switch(..) => {}
            _ => {}
        }
    }

    /// Elaborate a scalar-condition test: bind the loaded condition value and
    /// branch; an unspecified condition is a daemonic undefined behaviour
    /// (the Fig. 3 treatment of unspecified values in control positions).
    pub(crate) fn elab_condition(
        &mut self,
        cond: &cerberus_ail::ail::AilExpr,
        then: Expr,
        els: Expr,
    ) -> Expr {
        let c = Ident::fresh("cond");
        let v = Ident::fresh("v");
        let rv = self.elab_rvalue(cond);
        let test = self.scalar_is_nonzero(&cond.ty.decay(), PExpr::Sym(v.clone()));
        Expr::Sseq(
            Pattern::Sym(c.clone()),
            Box::new(rv),
            Box::new(Expr::Case(
                PExpr::Sym(c),
                vec![
                    (
                        Pattern::Specified(Box::new(Pattern::Sym(v))),
                        Expr::If(test, Box::new(then), Box::new(els)),
                    ),
                    (
                        Pattern::Wildcard,
                        Expr::Pure(PExpr::Undef(UbKind::IndeterminateValueUse)),
                    ),
                ],
            )),
        )
    }

    /// Elaborate one statement.
    pub fn elab_stmt(&mut self, stmt: &AilStmt) -> Expr {
        match stmt {
            AilStmt::Skip => Expr::Skip,
            AilStmt::Expr(e) => {
                let rv = self.elab_rvalue(e);
                Expr::seq(rv, Expr::Skip)
            }
            AilStmt::Block(items, _) => self.elab_stmt_list(items),
            AilStmt::Decl(decls) => {
                // A declaration outside a block context (e.g. a `for` init
                // clause handled directly): scope it locally.
                self.bind_decls(decls, Expr::Skip)
            }
            AilStmt::If(c, t, f) => {
                let then = self.elab_stmt(t);
                let els = self.elab_stmt(f);
                self.elab_condition(c, then, els)
            }
            AilStmt::While(c, body) => {
                let brk = Ident::fresh("while_break");
                let cont = Ident::fresh("while_continue");
                let head = Ident::fresh("while_head");
                self.break_stack.push(brk.clone());
                self.continue_stack.push(cont.clone());
                let body = self.elab_stmt(body);
                self.break_stack.pop();
                self.continue_stack.pop();
                let iterate = Expr::seq(Expr::Exit(cont, Box::new(body)), Expr::Run(head.clone()));
                let guarded = self.elab_condition(c, iterate, Expr::Skip);
                Expr::Exit(brk, Box::new(Expr::Save(head, Box::new(guarded))))
            }
            AilStmt::DoWhile(body, c) => {
                let brk = Ident::fresh("do_break");
                let cont = Ident::fresh("do_continue");
                let head = Ident::fresh("do_head");
                self.break_stack.push(brk.clone());
                self.continue_stack.push(cont.clone());
                let body = self.elab_stmt(body);
                self.break_stack.pop();
                self.continue_stack.pop();
                let test = self.elab_condition(c, Expr::Run(head.clone()), Expr::Skip);
                let once = Expr::seq(Expr::Exit(cont, Box::new(body)), test);
                Expr::Exit(brk, Box::new(Expr::Save(head, Box::new(once))))
            }
            AilStmt::For(init, cond, step, body) => {
                let brk = Ident::fresh("for_break");
                let cont = Ident::fresh("for_continue");
                let head = Ident::fresh("for_head");
                self.break_stack.push(brk.clone());
                self.continue_stack.push(cont.clone());
                let body = self.elab_stmt(body);
                self.break_stack.pop();
                self.continue_stack.pop();

                let step_expr = match step {
                    Some(e) => Expr::seq(self.elab_rvalue(e), Expr::Skip),
                    None => Expr::Skip,
                };
                let iterate = Expr::seq(
                    Expr::Exit(cont, Box::new(body)),
                    Expr::seq(step_expr, Expr::Run(head.clone())),
                );
                let guarded = match cond {
                    Some(c) => self.elab_condition(c, iterate, Expr::Skip),
                    None => iterate,
                };
                let looped = Expr::Exit(brk, Box::new(Expr::Save(head, Box::new(guarded))));

                // The init clause scopes over the loop; declarations made
                // there are killed after the loop terminates.
                match &**init {
                    AilStmt::Decl(decls) => {
                        let kills: Vec<Expr> = decls
                            .iter()
                            .map(|d| self.action_kill(PExpr::Sym(d.name.clone())))
                            .collect();
                        let with_kills = Expr::seq(looped, Expr::seq_all(kills));
                        self.bind_decls(decls, with_kills)
                    }
                    AilStmt::Skip => looped,
                    other => Expr::seq(self.elab_stmt(other), looped),
                }
            }
            AilStmt::Switch(scrutinee, body) => {
                self.switch_counter += 1;
                let switch_id = self.switch_counter;
                let brk = Ident::fresh("switch_break");
                self.break_stack.push(brk.clone());
                self.switch_stack.push(switch_id);
                let body_core = self.elab_stmt(body);
                self.switch_stack.pop();
                self.break_stack.pop();

                let mut case_values = Vec::new();
                let mut has_default = false;
                Self::collect_cases(body, &mut case_values, &mut has_default);

                let v = Ident::fresh("switch_val");
                let mut dispatch = if has_default {
                    Expr::Run(self.switch_default_label(switch_id))
                } else {
                    Expr::Run(brk.clone())
                };
                for value in case_values.iter().rev() {
                    dispatch = Expr::If(
                        PExpr::Binop(
                            cerberus_core::syntax::Binop::Eq,
                            Box::new(PExpr::Sym(v.clone())),
                            Box::new(PExpr::Integer(*value)),
                        ),
                        Box::new(Expr::Run(self.switch_case_label(switch_id, *value))),
                        Box::new(dispatch),
                    );
                }

                let c = Ident::fresh("switch_cond");
                let rv = self.elab_rvalue(scrutinee);
                let dispatch_and_body = Expr::seq(dispatch, body_core);
                let cased = Expr::Case(
                    PExpr::Sym(c.clone()),
                    vec![
                        (
                            Pattern::Specified(Box::new(Pattern::Sym(v))),
                            dispatch_and_body,
                        ),
                        (
                            Pattern::Wildcard,
                            Expr::Pure(PExpr::Undef(UbKind::IndeterminateValueUse)),
                        ),
                    ],
                );
                Expr::Exit(
                    brk,
                    Box::new(Expr::Sseq(Pattern::Sym(c), Box::new(rv), Box::new(cased))),
                )
            }
            AilStmt::Case(value, inner) => {
                let switch_id = self.switch_stack.last().copied().unwrap_or(0);
                let label = self.switch_case_label(switch_id, *value);
                let inner = self.elab_stmt(inner);
                Expr::Save(label, Box::new(inner))
            }
            AilStmt::Default(inner) => {
                let switch_id = self.switch_stack.last().copied().unwrap_or(0);
                let label = self.switch_default_label(switch_id);
                let inner = self.elab_stmt(inner);
                Expr::Save(label, Box::new(inner))
            }
            AilStmt::Break => match self.break_stack.last() {
                Some(label) => Expr::Run(label.clone()),
                None => Expr::Pure(PExpr::Error("break outside a loop or switch".into())),
            },
            AilStmt::Continue => match self.continue_stack.last() {
                Some(label) => Expr::Run(label.clone()),
                None => Expr::Pure(PExpr::Error("continue outside a loop".into())),
            },
            AilStmt::Return(None) => {
                Expr::Return(Box::new(PExpr::Specified(Box::new(PExpr::Unit))))
            }
            AilStmt::Return(Some(e)) => {
                let v = Ident::fresh("ret");
                let rv = self.elab_rvalue(e);
                Expr::Sseq(
                    Pattern::Sym(v.clone()),
                    Box::new(rv),
                    Box::new(Expr::Return(Box::new(PExpr::Sym(v)))),
                )
            }
            AilStmt::Goto(label) => Expr::Run(Ident::new(format!("label_{label}"))),
            AilStmt::Label(label, inner) => {
                let inner = self.elab_stmt(inner);
                Expr::Save(Ident::new(format!("label_{label}")), Box::new(inner))
            }
        }
    }

    /// Elaborate a function body: the statement body followed by the implicit
    /// return (0 for `main`, 6.9.1p12's unspecified value otherwise, unit for
    /// `void`).
    pub fn elaborate_function_body(&mut self, f: &FunctionDef) -> Expr {
        let body = self.elab_stmt(&f.body);
        let fallthrough = if f.name.as_str() == "main" {
            Expr::Return(Box::new(PExpr::specified_int(0)))
        } else if f.return_ty == Ctype::Void {
            Expr::Return(Box::new(PExpr::Specified(Box::new(PExpr::Unit))))
        } else {
            Expr::Return(Box::new(PExpr::Unspecified(f.return_ty.clone())))
        };
        Expr::seq(body, fallthrough)
    }
}
