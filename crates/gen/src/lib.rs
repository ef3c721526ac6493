//! `csmith-lite`: a random well-defined C program generator, a reference
//! evaluator, and the differential-testing harness used to reproduce the §6
//! validation experiments.
//!
//! The paper validates Cerberus by running Csmith-generated programs and
//! comparing against GCC. Neither Csmith nor GCC is available to this
//! reproduction, so (per the substitution policy in DESIGN.md) this crate
//! provides the closest synthetic equivalent: a generator of random programs
//! drawn from a fragment in which every execution is defined (all arithmetic
//! at `unsigned long`, guarded `%`, bounded loops), an independent reference
//! evaluator for that fragment (playing GCC's role as the oracle), and a
//! harness that runs each program through the full Cerberus pipeline and
//! compares the printed checksum and exit status.

use std::collections::HashMap;
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cerberus::exec::driver::ExecResult;
use cerberus::memory::config::ModelConfig;
use cerberus::memory::limits::ResourceLimits;
use cerberus::pipeline::Session;
use cerberus::{DifferentialRunner, ModelRun, OutcomeMatrix};
use cerberus_queue::{Job, JobOutcome, JobQueue};

/// Binary operators of the generated fragment (all defined at `unsigned
/// long`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise XOR.
    Xor,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
}

impl GOp {
    fn c_symbol(self) -> &'static str {
        match self {
            GOp::Add => "+",
            GOp::Sub => "-",
            GOp::Mul => "*",
            GOp::Xor => "^",
            GOp::And => "&",
            GOp::Or => "|",
        }
    }

    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            GOp::Add => a.wrapping_add(b),
            GOp::Sub => a.wrapping_sub(b),
            GOp::Mul => a.wrapping_mul(b),
            GOp::Xor => a ^ b,
            GOp::And => a & b,
            GOp::Or => a | b,
        }
    }
}

/// Expressions of the generated fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum GExpr {
    /// An unsigned constant.
    Const(u64),
    /// A variable use.
    Var(String),
    /// A binary operation.
    Bin(GOp, Box<GExpr>, Box<GExpr>),
    /// `expr % k` with a non-zero literal `k` (always defined).
    ModConst(Box<GExpr>, u64),
    /// A call to one of the generated helper functions.
    Call(String, Vec<GExpr>),
}

/// Statements of the generated fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum GStmt {
    /// `var = expr;`.
    Assign(String, GExpr),
    /// `if (expr % 2) { … } else { … }`.
    If(GExpr, Vec<GStmt>, Vec<GStmt>),
    /// `for (i = 0; i < n; i++) { … }` over a dedicated counter variable.
    For(u64, Vec<GStmt>),
}

/// A generated helper function: parameters, body, and the returned
/// expression.
#[derive(Debug, Clone, PartialEq)]
pub struct GFunc {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body statements (assignments to locals mirroring the parameters).
    pub body: Vec<GStmt>,
    /// The returned expression.
    pub ret: GExpr,
}

/// A generated program.
#[derive(Debug, Clone, PartialEq)]
pub struct GenProgram {
    /// Global variables with their initial values.
    pub globals: Vec<(String, u64)>,
    /// Helper functions.
    pub funcs: Vec<GFunc>,
    /// The body of `main` before the checksum is computed.
    pub body: Vec<GStmt>,
    /// The seed it was generated from.
    pub seed: u64,
}

/// Tuning knobs for the generator (the small/large split of §6).
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of global variables.
    pub globals: usize,
    /// Number of helper functions.
    pub functions: usize,
    /// Number of top-level statements in `main`.
    pub statements: usize,
    /// Maximum statement nesting depth.
    pub max_depth: usize,
    /// Maximum loop trip count.
    pub max_loop: u64,
}

impl GenConfig {
    /// Small programs (the 561-test validation set analogue).
    pub fn small() -> Self {
        GenConfig {
            globals: 4,
            functions: 1,
            statements: 6,
            max_depth: 2,
            max_loop: 4,
        }
    }

    /// Larger programs (the 400-test, 40–600 line analogue).
    pub fn large() -> Self {
        GenConfig {
            globals: 8,
            functions: 3,
            statements: 20,
            max_depth: 3,
            max_loop: 8,
        }
    }
}

struct Generator {
    rng: StdRng,
    config: GenConfig,
    globals: Vec<String>,
    funcs: Vec<(String, usize)>,
}

impl Generator {
    fn expr(&mut self, depth: usize, locals: &[String]) -> GExpr {
        let choice = self.rng.gen_range(0..10);
        if depth == 0 || choice < 3 {
            if self.rng.gen_bool(0.5) || (self.globals.is_empty() && locals.is_empty()) {
                GExpr::Const(self.rng.gen_range(0..1000))
            } else {
                let pool: Vec<&String> = self.globals.iter().chain(locals.iter()).collect();
                let idx = self.rng.gen_range(0..pool.len());
                GExpr::Var(pool[idx].clone())
            }
        } else if choice < 8 {
            let op = match self.rng.gen_range(0..6) {
                0 => GOp::Add,
                1 => GOp::Sub,
                2 => GOp::Mul,
                3 => GOp::Xor,
                4 => GOp::And,
                _ => GOp::Or,
            };
            GExpr::Bin(
                op,
                Box::new(self.expr(depth - 1, locals)),
                Box::new(self.expr(depth - 1, locals)),
            )
        } else if choice == 8 || self.funcs.is_empty() {
            GExpr::ModConst(
                Box::new(self.expr(depth - 1, locals)),
                self.rng.gen_range(1..17),
            )
        } else {
            let idx = self.rng.gen_range(0..self.funcs.len());
            let (name, arity) = self.funcs[idx].clone();
            let args = (0..arity).map(|_| self.expr(depth - 1, locals)).collect();
            GExpr::Call(name, args)
        }
    }

    fn stmt(&mut self, depth: usize) -> GStmt {
        let choice = self.rng.gen_range(0..10);
        if depth == 0 || choice < 6 {
            let idx = self.rng.gen_range(0..self.globals.len());
            let target = self.globals[idx].clone();
            GStmt::Assign(target, self.expr(2, &[]))
        } else if choice < 8 {
            let then_len = self.rng.gen_range(1..3);
            let else_len = self.rng.gen_range(0..2);
            GStmt::If(
                self.expr(1, &[]),
                (0..then_len).map(|_| self.stmt(depth - 1)).collect(),
                (0..else_len).map(|_| self.stmt(depth - 1)).collect(),
            )
        } else {
            let n = self.rng.gen_range(1..=self.config.max_loop);
            let len = self.rng.gen_range(1..3);
            GStmt::For(n, (0..len).map(|_| self.stmt(depth - 1)).collect())
        }
    }
}

/// Generate a random well-defined program from a seed.
pub fn generate(seed: u64, config: GenConfig) -> GenProgram {
    let mut g = Generator {
        rng: StdRng::seed_from_u64(seed),
        config,
        globals: (0..config.globals).map(|i| format!("g{i}")).collect(),
        funcs: Vec::new(),
    };
    let globals: Vec<(String, u64)> = g
        .globals
        .clone()
        .into_iter()
        .map(|name| (name, g.rng.gen_range(0..100)))
        .collect();

    let mut funcs = Vec::new();
    for i in 0..config.functions {
        let name = format!("fn{i}");
        let params: Vec<String> = (0..2).map(|j| format!("p{j}")).collect();
        let ret = g.expr(2, &params);
        funcs.push(GFunc {
            name: name.clone(),
            params,
            body: Vec::new(),
            ret,
        });
        g.funcs.push((name, 2));
    }

    let body: Vec<GStmt> = (0..config.statements)
        .map(|_| g.stmt(config.max_depth))
        .collect();
    GenProgram {
        globals,
        funcs,
        body,
        seed,
    }
}

// ----- C source rendering ---------------------------------------------------

fn expr_to_c(e: &GExpr, out: &mut String) {
    match e {
        GExpr::Const(v) => {
            let _ = write!(out, "{v}ul");
        }
        GExpr::Var(name) => out.push_str(name),
        GExpr::Bin(op, a, b) => {
            out.push('(');
            expr_to_c(a, out);
            let _ = write!(out, " {} ", op.c_symbol());
            expr_to_c(b, out);
            out.push(')');
        }
        GExpr::ModConst(a, k) => {
            out.push('(');
            expr_to_c(a, out);
            let _ = write!(out, " % {k}ul)");
        }
        GExpr::Call(name, args) => {
            let _ = write!(out, "{name}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr_to_c(a, out);
            }
            out.push(')');
        }
    }
}

fn stmt_to_c(s: &GStmt, indent: usize, counter: &mut usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match s {
        GStmt::Assign(target, e) => {
            let _ = write!(out, "{pad}{target} = ");
            expr_to_c(e, out);
            out.push_str(";\n");
        }
        GStmt::If(cond, then, els) => {
            let _ = write!(out, "{pad}if ((");
            expr_to_c(cond, out);
            out.push_str(") % 2ul) {\n");
            for s in then {
                stmt_to_c(s, indent + 1, counter, out);
            }
            if els.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for s in els {
                    stmt_to_c(s, indent + 1, counter, out);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        GStmt::For(n, body) => {
            *counter += 1;
            let var = format!("i{counter}");
            let _ = writeln!(
                out,
                "{pad}for (unsigned long {var} = 0ul; {var} < {n}ul; {var}++) {{"
            );
            for s in body {
                stmt_to_c(s, indent + 1, counter, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

/// Render a generated program as C source.
pub fn to_c_source(p: &GenProgram) -> String {
    let mut out = String::new();
    out.push_str("#include <stdio.h>\n\n");
    for (name, value) in &p.globals {
        let _ = writeln!(out, "unsigned long {name} = {value}ul;");
    }
    out.push('\n');
    for f in &p.funcs {
        let params: Vec<String> = f
            .params
            .iter()
            .map(|p| format!("unsigned long {p}"))
            .collect();
        let _ = writeln!(out, "unsigned long {}({}) {{", f.name, params.join(", "));
        out.push_str("  return ");
        expr_to_c(&f.ret, &mut out);
        out.push_str(";\n}\n\n");
    }
    out.push_str("int main(void) {\n");
    let mut counter = 0usize;
    for s in &p.body {
        stmt_to_c(s, 1, &mut counter, &mut out);
    }
    out.push_str("  unsigned long checksum = 0ul;\n");
    for (name, _) in &p.globals {
        let _ = writeln!(out, "  checksum = (checksum * 31ul) ^ {name};");
    }
    out.push_str("  printf(\"checksum=%lu\\n\", checksum);\n");
    out.push_str("  return (int)(checksum % 128ul);\n}\n");
    out
}

// ----- the reference evaluator (the "GCC oracle" substitute) ------------------

/// The reference evaluation result: the checksum and the process exit value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// The checksum `main` prints.
    pub checksum: u64,
    /// The value `main` returns.
    pub exit: i128,
}

fn ref_expr(
    e: &GExpr,
    globals: &HashMap<String, u64>,
    locals: &HashMap<String, u64>,
    funcs: &[GFunc],
) -> u64 {
    match e {
        GExpr::Const(v) => *v,
        GExpr::Var(name) => *locals.get(name).or_else(|| globals.get(name)).unwrap_or(&0),
        GExpr::Bin(op, a, b) => op.apply(
            ref_expr(a, globals, locals, funcs),
            ref_expr(b, globals, locals, funcs),
        ),
        GExpr::ModConst(a, k) => ref_expr(a, globals, locals, funcs) % k,
        GExpr::Call(name, args) => {
            let f = funcs
                .iter()
                .find(|f| &f.name == name)
                .expect("generated call target exists");
            let mut frame = HashMap::new();
            for (p, a) in f.params.iter().zip(args.iter()) {
                frame.insert(p.clone(), ref_expr(a, globals, locals, funcs));
            }
            ref_expr(&f.ret, globals, &frame, funcs)
        }
    }
}

fn ref_stmt(s: &GStmt, globals: &mut HashMap<String, u64>, funcs: &[GFunc]) {
    match s {
        GStmt::Assign(target, e) => {
            let v = ref_expr(e, globals, &HashMap::new(), funcs);
            globals.insert(target.clone(), v);
        }
        GStmt::If(cond, then, els) => {
            let v = ref_expr(cond, globals, &HashMap::new(), funcs);
            let branch = if v % 2 == 1 { then } else { els };
            for s in branch {
                ref_stmt(s, globals, funcs);
            }
        }
        GStmt::For(n, body) => {
            for _ in 0..*n {
                for s in body {
                    ref_stmt(s, globals, funcs);
                }
            }
        }
    }
}

/// Evaluate a generated program with the independent reference semantics.
pub fn reference_eval(p: &GenProgram) -> Reference {
    let mut globals: HashMap<String, u64> = p.globals.iter().cloned().collect();
    for s in &p.body {
        ref_stmt(s, &mut globals, &p.funcs);
    }
    let mut checksum = 0u64;
    for (name, _) in &p.globals {
        checksum = checksum.wrapping_mul(31) ^ globals[name];
    }
    Reference {
        checksum,
        exit: (checksum % 128) as i128,
    }
}

// ----- differential testing ----------------------------------------------------

/// The outcome of differentially testing one program. It agrees only when
/// every row of its matrix does; otherwise the first row that disagrees,
/// fails or faults decides, and failing that a row that ran out of a budget
/// makes it a [`DiffOutcome::Timeout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffOutcome {
    /// The pipeline agrees with the reference evaluator.
    Agree,
    /// The pipeline produced a different result.
    Disagree {
        /// The model whose row differs.
        model: &'static str,
        /// What the reference computed.
        expected: String,
        /// What the pipeline produced.
        observed: String,
    },
    /// The pipeline exhausted a resource budget — the step or wall-clock
    /// timeout, or an allocation/call-depth bound (the §6-style timeout).
    Timeout,
    /// The pipeline rejected or failed on the program.
    Failure(String),
    /// The engine panicked; the panic was contained and its payload captured.
    Fault(String),
}

/// Aggregate results of a differential run (the §6 validation table shape).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffSummary {
    /// Programs where both sides agree.
    pub agree: usize,
    /// Programs with differing results.
    pub disagree: usize,
    /// Programs that timed out in the pipeline.
    pub timeout: usize,
    /// Programs the pipeline failed on.
    pub failed: usize,
    /// Programs on which the engine panicked (the panic was contained).
    pub faulted: usize,
    /// Total number of programs.
    pub total: usize,
    /// Every seed that did not agree, with its outcome, in seed order.
    pub not_agreed: Vec<(u64, DiffOutcome)>,
}

/// Differentially test one generated program: elaborate it with a throwaway
/// session and run it as a one-row concrete matrix under a `step_limit` step
/// budget. The runner contains an engine defect as a fault row, so it tallies
/// as [`DiffOutcome::Fault`] instead of unwinding.
pub fn diff_one(p: &GenProgram, step_limit: u64) -> DiffOutcome {
    let program = match Session::default().elaborate(&to_c_source(p)) {
        Ok(program) => program,
        Err(e) => return DiffOutcome::Failure(e.to_string()),
    };
    let matrix = DifferentialRunner::new(vec![ModelConfig::concrete()])
        .with_limits(ResourceLimits::with_steps(step_limit))
        .run(&program);
    classify(&reference_eval(p), &matrix)
}

/// Compare every row of a matrix against the reference result — the single
/// [`DiffOutcome`] classifier shared by the single-program harness and the
/// queued batch. A contained engine panic arrives as an
/// [`ExecResult::EngineFault`] row and tallies as [`DiffOutcome::Fault`]
/// with its payload.
fn classify(reference: &Reference, matrix: &OutcomeMatrix) -> DiffOutcome {
    let mut verdict = DiffOutcome::Agree;
    for row in matrix.rows() {
        match classify_row(reference, row) {
            DiffOutcome::Agree => {}
            DiffOutcome::Timeout => verdict = DiffOutcome::Timeout,
            bad => return bad,
        }
    }
    verdict
}

fn classify_row(reference: &Reference, row: &ModelRun) -> DiffOutcome {
    let Some(first) = row.outcome.outcomes.first() else {
        return DiffOutcome::Failure(format!("{}: no outcome produced", row.model));
    };
    match &first.result {
        ExecResult::Return(v) => {
            let expected_stdout = format!("checksum={}\n", reference.checksum);
            if *v == reference.exit && first.stdout == expected_stdout {
                DiffOutcome::Agree
            } else {
                DiffOutcome::Disagree {
                    model: row.model,
                    expected: format!("exit {} stdout {expected_stdout:?}", reference.exit),
                    observed: format!("exit {v} stdout {:?}", first.stdout),
                }
            }
        }
        ExecResult::Timeout(_) | ExecResult::ResourceExhausted(_) => DiffOutcome::Timeout,
        ExecResult::EngineFault { payload, .. } => DiffOutcome::Fault(payload.clone()),
        other => DiffOutcome::Failure(format!("{}: {other}", row.model)),
    }
}

fn tally(summary: &mut DiffSummary, seed: u64, outcome: DiffOutcome) {
    let count = match &outcome {
        DiffOutcome::Agree => &mut summary.agree,
        DiffOutcome::Disagree { .. } => &mut summary.disagree,
        DiffOutcome::Timeout => &mut summary.timeout,
        DiffOutcome::Failure(_) => &mut summary.failed,
        DiffOutcome::Fault(_) => &mut summary.faulted,
    };
    *count += 1;
    if outcome != DiffOutcome::Agree {
        summary.not_agreed.push((seed, outcome));
    }
}

/// Run the differential harness over `count` programs generated from
/// consecutive seeds, as one batch on a [`JobQueue`]: the §6 fuzz harness.
///
/// Each seed becomes one job over `models` under `limits`, and agrees only
/// when every row matches the reference ([`DiffOutcome`]). Engine panics
/// arrive as contained [`ExecResult::EngineFault`] rows and tally as
/// [`DiffSummary::faulted`]; front-end rejections (impossible for the
/// generated fragment, possible for hand-fed programs) tally as
/// [`DiffSummary::failed`]. Every seed that does not agree is listed in
/// [`DiffSummary::not_agreed`].
///
/// # Panics
/// Panics if the queue has been shut down.
pub fn run_differential(
    queue: &JobQueue,
    count: usize,
    config: GenConfig,
    limits: &ResourceLimits,
    models: &[ModelConfig],
) -> DiffSummary {
    let programs: Vec<GenProgram> = (0..count as u64).map(|s| generate(s, config)).collect();
    let outcomes = queue
        .run_batch(
            programs
                .iter()
                .map(|p| Job::new(to_c_source(p), models.to_vec()).with_limits(limits.clone())),
        )
        .expect("the fuzz batch's job queue is running");
    let mut summary = DiffSummary {
        total: count,
        ..DiffSummary::default()
    };
    for (seed, (program, outcome)) in (0u64..).zip(programs.iter().zip(outcomes)) {
        let reference = reference_eval(program);
        let diff = match outcome {
            JobOutcome::Matrix(matrix) => classify(&reference, &matrix),
            JobOutcome::Rejected(e) => DiffOutcome::Failure(e.to_string()),
            JobOutcome::FrontendFault(payload) => DiffOutcome::Fault(payload),
        };
        tally(&mut summary, seed, diff);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(7, GenConfig::small());
        let b = generate(7, GenConfig::small());
        let c = generate(8, GenConfig::small());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_source_parses_and_runs() {
        let p = generate(1, GenConfig::small());
        let src = to_c_source(&p);
        assert!(src.contains("int main(void)"));
        let out = cerberus::pipeline::run_with_model(&src, ModelConfig::concrete()).unwrap();
        assert!(
            matches!(out.outcomes[0].result, ExecResult::Return(_)),
            "{:?}",
            out.outcomes[0]
        );
    }

    #[test]
    fn reference_and_pipeline_agree_on_small_programs() {
        for seed in 0..8 {
            let p = generate(seed, GenConfig::small());
            let outcome = diff_one(&p, 2_000_000);
            assert_eq!(outcome, DiffOutcome::Agree, "seed {seed}: {outcome:?}");
        }
    }

    #[test]
    fn a_seed_agrees_only_when_every_row_does() {
        let p = generate(2, GenConfig::small());
        let program = Session::default().elaborate(&to_c_source(&p)).unwrap();
        let matrix = DifferentialRunner::all_named().run(&program);
        let reference = reference_eval(&p);
        assert_eq!(classify(&reference, &matrix), DiffOutcome::Agree);
        let mut rows = matrix.rows().to_vec();
        rows[3].outcome.outcomes[0].result = ExecResult::Return(reference.exit + 1);
        match classify(&reference, &OutcomeMatrix::new(rows)) {
            DiffOutcome::Disagree { model, .. } => assert_eq!(model, "gcc-like"),
            other => panic!("expected a disagreement, got {other:?}"),
        }
    }

    #[test]
    fn differential_summary_counts_add_up() {
        let limits = ResourceLimits::with_steps(2_000_000);
        let models = [ModelConfig::concrete()];
        let summary =
            run_differential(&JobQueue::start(2), 6, GenConfig::small(), &limits, &models);
        assert_eq!(summary.total, 6);
        assert_eq!(
            summary.agree + summary.disagree + summary.timeout + summary.failed + summary.faulted,
            summary.total
        );
        assert!(summary.agree >= summary.total - 1, "{summary:?}");
    }

    #[test]
    fn tiny_step_limits_register_as_timeouts() {
        let p = generate(3, GenConfig::large());
        let outcome = diff_one(&p, 50);
        assert_eq!(outcome, DiffOutcome::Timeout);
    }

    #[test]
    fn reference_eval_is_pure() {
        let p = generate(5, GenConfig::small());
        assert_eq!(reference_eval(&p), reference_eval(&p));
    }

    #[test]
    fn starved_batches_register_as_timeouts() {
        let limits = ResourceLimits::with_steps(50);
        let models = [ModelConfig::concrete()];
        let summary =
            run_differential(&JobQueue::start(2), 4, GenConfig::large(), &limits, &models);
        assert_eq!(summary.total, 4);
        assert_eq!(summary.timeout, summary.total, "{summary:?}");
        let starved: Vec<_> = (0..4).map(|seed| (seed, DiffOutcome::Timeout)).collect();
        assert_eq!(summary.not_agreed, starved);
    }
}
