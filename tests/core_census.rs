//! Constructor census: Core is exactly what the elaborator emits.
//!
//! Elaborates the fixture corpus, a fixed range of `cerberus-gen` programs
//! and a few inline sources, walks every procedure body and global
//! initialiser, and records which Core constructors appear. Every constructor
//! of `Expr`, `PExpr`, `Pattern`, `MemAction`, `PtrOp`, `BuiltinFn`, `Binop`
//! and `Polarity` must be reached, or sit on `KEEP` with a reason. A variant
//! no C program reaches is dead weight in the interpreter, the analyzer, the
//! validator and the printer, so it is deleted instead.
//!
//! The walker's matches have no `_` arm, and each `visit!` arm also declares
//! its constructor, so a variant added to Core cannot compile without joining
//! the census, and cannot pass it unless some source reaches it.
//!
//! A second census covers the memory model configuration: the concrete
//! engine must consult every semantic field of `ModelConfig` on some
//! source, or rows that the field tells apart would share one execution.

use std::collections::BTreeSet;

use cerberus::pipeline::Session;
use cerberus_core::program::CoreProgram;
use cerberus_core::syntax::{Binop, BuiltinFn, Expr, MemAction, PExpr, Pattern, Polarity, PtrOp};
use cerberus_exec::driver::ExecMode;
use cerberus_gen::{generate, to_c_source, GenConfig};
use cerberus_memory::config::{FieldSet, ModelConfig};
use cerberus_memory::limits::ResourceLimits;

/// Constructors the census may leave unreached, each with the reason it is
/// kept. Empty: every constructor is emitted by the elaborator.
const KEEP: &[(&str, &str)] = &[];

/// Elaborator outputs that no fixture and no generated seed reaches:
/// integer `>`/`>=`, pointer `>=`, `return;` in a `void` function and a
/// `(void)` cast; and a floating constant, which elaborates to
/// `PExpr::Error`.
const INLINE_SOURCES: &[&str] = &[
    "static int hits; void bump(void) { hits++; return; } \
     int main(void) { int a = 5, b = 3; int arr[4]; int *p = &arr[2]; int *q = &arr[1]; \
     bump(); (void)a; \
     return 10*(a > b) + 10*(a >= 5) + 10*(p >= q) + 10*(q >= p) + 11*hits + (b > a); }",
    "int main(void) { double d = 1.5; return 0; }",
];

/// Seeds taken from each of `GenConfig::small()` and `GenConfig::large()`.
const GEN_SEEDS: std::ops::Range<u64> = 0..32;

/// The constructors declared by the walker's arms and those reached.
#[derive(Default)]
struct Census {
    declared: BTreeSet<&'static str>,
    reached: BTreeSet<&'static str>,
}

/// Match `$value` against the arms of `$enum`, recording the constructor of
/// the arm taken. The arm list doubles as the enum's declared constructors,
/// and the match has no `_` arm, so the list is complete.
macro_rules! visit {
    ($census:expr, $value:ident: $enum:ident {
        $($variant:ident $(($($tuple:tt)*))? $({$($fields:tt)*})? $(=> $body:expr)?),* $(,)?
    }) => {{
        $census.declare(&[$(concat!(stringify!($enum), "::", stringify!($variant))),*]);
        match $value {
            $($enum::$variant $(($($tuple)*))? $({$($fields)*})? => {
                $census.reach(concat!(stringify!($enum), "::", stringify!($variant)));
                $($body;)?
            })*
        }
    }};
}

impl Census {
    fn declare(&mut self, names: &[&'static str]) {
        if !self.declared.contains(names[0]) {
            self.declared.extend(names);
        }
    }

    fn reach(&mut self, name: &'static str) {
        self.reached.insert(name);
    }

    fn program(&mut self, core: &CoreProgram) {
        for global in &core.globals {
            self.expr(&global.init);
        }
        for proc in core.procs.values() {
            self.expr(&proc.body);
        }
    }

    fn expr(&mut self, e: &Expr) {
        visit!(self, e: Expr {
            Pure(pe) => self.pexpr(pe),
            Memop(op, args) => {
                self.ptr_op(*op);
                self.pexprs(args);
            },
            Action(polarity, action) => {
                self.polarity(*polarity);
                self.action(action);
            },
            Case(scrutinee, arms) => {
                self.pexpr(scrutinee);
                for (pat, body) in arms {
                    self.pattern(pat);
                    self.expr(body);
                }
            },
            Let(pat, value, body) => {
                self.pattern(pat);
                self.pexpr(value);
                self.expr(body);
            },
            If(c, t, f) => {
                self.pexpr(c);
                self.expr(t);
                self.expr(f);
            },
            Skip,
            Ccall(f, args) => {
                self.pexpr(f);
                self.pexprs(args);
            },
            Unseq(items) => self.exprs(items),
            Wseq(pat, a, b) => {
                self.pattern(pat);
                self.expr(a);
                self.expr(b);
            },
            Sseq(pat, a, b) => {
                self.pattern(pat);
                self.expr(a);
                self.expr(b);
            },
            Indet(body) => self.expr(body),
            Save(_label, body) => self.expr(body),
            Exit(_label, body) => self.expr(body),
            Run(_label),
            Return(value) => self.pexpr(value),
        })
    }

    fn exprs(&mut self, items: &[Expr]) {
        for item in items {
            self.expr(item);
        }
    }

    fn pexpr(&mut self, pe: &PExpr) {
        visit!(self, pe: PExpr {
            Sym(_name),
            Unit,
            Integer(_n),
            CtypeConst(_ty),
            FunctionPtr(_name),
            Undef(_ub),
            Error(_msg),
            Specified(inner) => self.pexpr(inner),
            Unspecified(_ty),
            Tuple(items) => self.pexprs(items),
            Binop(op, a, b) => {
                self.binop(*op);
                self.pexpr(a);
                self.pexpr(b);
            },
            If(c, t, f) => {
                self.pexpr(c);
                self.pexpr(t);
                self.pexpr(f);
            },
            Case(scrutinee, arms) => {
                self.pexpr(scrutinee);
                for (pat, body) in arms {
                    self.pattern(pat);
                    self.pexpr(body);
                }
            },
            Builtin(f, args) => {
                self.builtin(*f);
                self.pexprs(args);
            },
            ArrayShift { ptr, elem_ty: _, index } => {
                self.pexpr(ptr);
                self.pexpr(index);
            },
            MemberShift { ptr, tag: _, member: _ } => self.pexpr(ptr),
        })
    }

    fn pexprs(&mut self, items: &[PExpr]) {
        for item in items {
            self.pexpr(item);
        }
    }

    fn pattern(&mut self, pat: &Pattern) {
        visit!(self, pat: Pattern {
            Wildcard,
            Sym(_name),
            Tuple(items) => {
                for item in items {
                    self.pattern(item);
                }
            },
            Specified(inner) => self.pattern(inner),
        })
    }

    fn action(&mut self, action: &MemAction) {
        visit!(self, action: MemAction {
            Create { align, ty } => {
                self.pexpr(align);
                self.pexpr(ty);
            },
            Kill(ptr) => self.pexpr(ptr),
            Store { ty, ptr, value } => {
                self.pexpr(ty);
                self.pexpr(ptr);
                self.pexpr(value);
            },
            Load { ty, ptr } => {
                self.pexpr(ty);
                self.pexpr(ptr);
            },
        })
    }

    fn ptr_op(&mut self, op: PtrOp) {
        visit!(self, op: PtrOp {
            Eq, Ne, Lt, Gt, Le, Ge, Diff, IntFromPtr, PtrFromInt,
        })
    }

    fn builtin(&mut self, f: BuiltinFn) {
        visit!(self, f: BuiltinFn {
            ConvInt, IsRepresentable, CtypeWidth, AlignOf,
        })
    }

    fn binop(&mut self, op: Binop) {
        visit!(self, op: Binop {
            Add, Sub, Mul, Div, RemT, Exp, BitAnd, BitOr, BitXor, Eq, Ne, Lt, Le, Gt, Ge,
        })
    }

    fn polarity(&mut self, polarity: Polarity) {
        visit!(self, polarity: Polarity { Positive, Negative })
    }
}

/// Every source the census elaborates: the fixture corpus, the generated
/// seeds, then the inline sources.
fn census_sources() -> Vec<(String, String)> {
    let mut sources: Vec<(String, String)> = cerberus_litmus::catalogue()
        .into_iter()
        .map(|test| (test.name, test.source))
        .collect();
    for (label, config) in [("small", GenConfig::small()), ("large", GenConfig::large())] {
        for seed in GEN_SEEDS {
            let source = to_c_source(&generate(seed, config));
            sources.push((format!("gen {label} seed {seed}"), source));
        }
    }
    for (i, source) in INLINE_SOURCES.iter().enumerate() {
        sources.push((format!("inline source {i}"), (*source).to_owned()));
    }
    sources
}

#[test]
fn the_elaborator_reaches_every_core_constructor() {
    let session = Session::default();
    let mut census = Census::default();
    for (name, source) in census_sources() {
        let elaborated = session
            .elaborate(&source)
            .unwrap_or_else(|e| panic!("{name} failed in the front end: {e}"));
        census.program(elaborated.core());
    }
    let kept: BTreeSet<&str> = KEEP.iter().map(|(name, _)| *name).collect();
    let unreached: Vec<&str> = census
        .declared
        .difference(&census.reached)
        .copied()
        .filter(|name| !kept.contains(name))
        .collect();
    assert!(
        unreached.is_empty(),
        "{} Core constructors are never emitted by the elaborator; delete them \
         with their arms or keep them with a reason: {unreached:?}",
        unreached.len()
    );
    let stale: Vec<&str> = kept
        .iter()
        .copied()
        .filter(|name| census.reached.contains(name) || !census.declared.contains(name))
        .collect();
    assert!(stale.is_empty(), "stale keep-list entries: {stale:?}");
}

/// The source that consults `padding`, which no fixture does: padding
/// semantics act only on a whole-struct store. It returns 0 where a member
/// store clobbers padding and 1 where padding is preserved.
const PADDING_SOURCE: &str = "struct s { char c; int i; }; int main(void) { struct s a, b; \
     unsigned char *p = (unsigned char *)&a; b.c = 1; b.i = 2; p[1] = 0xAA; a = b; \
     return p[1] == 0xAA; }";

/// Every semantic field of `ModelConfig`, the placement included, is
/// consulted by the named rows of the fixtures or of `PADDING_SOURCE`, so a
/// field the engine never reads through its recording accessor fails here.
#[test]
fn the_concrete_engine_consults_every_semantic_field() {
    let models = ModelConfig::all_named();
    let mut sources: Vec<String> = cerberus_litmus::catalogue()
        .into_iter()
        .map(|test| test.source)
        .collect();
    sources.push(PADDING_SOURCE.to_owned());
    let session = Session::default();
    // `Driver::run_logged` runs the whole call depth on its caller's thread.
    let consulted = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(ResourceLimits::default().host_stack_bytes())
            .spawn_scoped(scope, || {
                let mut consulted = FieldSet::EMPTY;
                for source in &sources {
                    let program = session.elaborate(source).unwrap();
                    for model in &models {
                        let (_, fields) = program.driver(model).run_logged(ExecMode::default());
                        consulted = consulted | fields;
                    }
                }
                consulted
            })
            .unwrap()
            .join()
            .unwrap()
    });
    assert_eq!(
        consulted,
        FieldSet::ALL,
        "never consulted: {:?}",
        FieldSet::ALL.without(consulted)
    );

    let program = session.elaborate(PADDING_SOURCE).unwrap();
    for (name, expected) in [
        ("block", 0),
        ("tis-interpreter", 0),
        ("de-facto", 1),
        ("kcc", 1),
    ] {
        let model = ModelConfig::by_name(name).unwrap();
        assert_eq!(
            program.run_under(&model).exit_value(),
            Some(expected),
            "{name}"
        );
    }
}
