//! The in-process workloads, `litmus` and `csmith_large`: each program goes
//! through the whole product path on one thread, through public entry
//! points only:
//!
//! `Session::parse` -> `Parsed::desugar` -> `Desugared::elaborate` ->
//! `analyze_with_solver` (what `Session::analyze` runs after elaborating) ->
//! `Elaborated::execute_bounded` under every `ModelConfig::all_named()` model
//! -> `render::matrix_to_json`.
//!
//! A fresh `Session` and solver serve each pass of [`PASS`] programs, so the
//! memo tables never answer for the front end or analysis across passes.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::rc::Rc;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cerberus::analysis::solver::Solver;
use cerberus::analysis::{AnalysisConfig, AnalysisReport, FindingSeverity};
use cerberus::ast::ub::UbKind;
use cerberus::core_lang::pretty::expr_to_string;
use cerberus::core_lang::program::CoreProgram;
use cerberus::exec::driver::{ExecMode, ExecResult, ProgramOutcome};
use cerberus::memory::{ModelConfig, ResourceLimits};
use cerberus::{Config, Elaborated, ModelRun, OutcomeMatrix, RunOutcome, Session};
use cerberus_gen::GenConfig;
use cerberus_litmus::fixtures::{diff_expectations, discover, expectation_document};
use cerberus_wire::json::Json;

use crate::layers::{self, Counters};
use crate::trace::{Accounting, SpanId, Tracer, ROOT};
use crate::{stats, timed_setup, Args, Outcome, Rng};

pub const WORKLOADS: [&str; 2] = ["litmus", "csmith_large"];

/// Programs per `Session`: the size of the fixture corpus, so a litmus pass
/// is one session.
const PASS: u64 = 96;

/// Generated programs run to warm up during set-up, outside the timed set.
const CSMITH_WARMUP: u64 = 8;

/// The warm-up programs' seeds count down from here, far from the timed
/// ranges `seed << 32 ..` of any practical benchmark seed.
pub const WARMUP_SEED: u64 = u64::MAX;

/// What a program's outputs must equal.
#[derive(Debug, Clone)]
pub enum Oracle {
    /// A golden fixture: its `.expect` document.
    Expect(Json),
    /// A generated program: `reference_eval`'s exit value and the line
    /// `main` prints.
    Reference { exit: i128, stdout: String },
}

#[derive(Debug, Clone)]
pub struct Input {
    pub label: String,
    pub source: String,
    pub oracle: Oracle,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The golden fixture corpus under `tests/fixtures` (the benchmark runs from
/// the repository root).
pub fn fixtures() -> Result<Vec<Input>, String> {
    let root = Path::new("tests/fixtures");
    if !root.is_dir() {
        return Err("tests/fixtures not found: run from the repository root".into());
    }
    discover(root)
        .into_iter()
        .map(|entry| {
            let expect = Json::parse(&read(&entry.expect_path)?)
                .map_err(|e| format!("{}: {e}", entry.expect_path.display()))?;
            Ok(Input {
                label: format!("{}/{}", entry.group, entry.name),
                source: read(&entry.source_path)?,
                oracle: Oracle::Expect(expect),
            })
        })
        .collect()
}

/// A fresh generated program with its reference result.
pub fn generated(seed: u64, config: GenConfig) -> Input {
    let program = cerberus_gen::generate(seed, config);
    let reference = cerberus_gen::reference_eval(&program);
    Input {
        label: format!("gen:{seed}"),
        source: cerberus_gen::to_c_source(&program),
        oracle: Oracle::Reference {
            exit: reference.exit,
            stdout: format!("checksum={}\n", reference.checksum),
        },
    }
}

/// The session state one pass of programs shares.
struct Pipeline {
    session: Session,
    solver: Solver,
    models: Vec<ModelConfig>,
    config: Config,
}

/// One program's product-path results.
struct Produced {
    elaborated: Elaborated,
    report: AnalysisReport,
    matrix: OutcomeMatrix,
    document: String,
    ack: Duration,
    latency: Duration,
    analysis_span: SpanId,
    execution_spans: Vec<SpanId>,
}

impl Pipeline {
    fn fresh() -> Self {
        Pipeline {
            session: Session::default(),
            solver: Solver::default(),
            models: ModelConfig::all_named(),
            config: Config::default(),
        }
    }

    /// Source in -> rendered verdict matrix and static report out.
    fn run(&self, input: &Input, id: u64, tr: &mut Tracer) -> Result<Produced, String> {
        let start = Instant::now();
        let root = tr.open(ROOT, "", None, id);
        let result = self.stages(input, id, root, tr, start);
        tr.close(root);
        result
    }

    fn stages(
        &self,
        input: &Input,
        id: u64,
        root: SpanId,
        tr: &mut Tracer,
        start: Instant,
    ) -> Result<Produced, String> {
        let (parsed, _) = tr.span("parser.parse", "", root, id, || {
            self.session.parse(&input.source)
        });
        let parsed = parsed.map_err(|e| format!("rejected by the parser: {e}"))?;
        let (desugared, _) = tr.span("ail.desugar", "", root, id, || parsed.desugar());
        let desugared = desugared.map_err(|e| format!("rejected by the front end: {e}"))?;
        let (elaborated, _) = tr.span("elab.elaborate", "", root, id, || desugared.elaborate());
        let (report, analysis_span) = tr.span("analysis.interp", "", root, id, || {
            cerberus::analysis::analyze_with_solver(
                elaborated.core(),
                elaborated.impl_env(),
                AnalysisConfig::default(),
                &self.solver,
            )
        });
        let ack = start.elapsed();

        let mut rows = Vec::with_capacity(self.models.len());
        let mut execution_spans = Vec::with_capacity(self.models.len());
        for model in &self.models {
            let (result, span) = tr.span("pipeline.execute_bounded", model.name, root, id, || {
                catch_unwind(AssertUnwindSafe(|| {
                    elaborated.execute_bounded(model, self.config.mode, &self.config.limits)
                }))
            });
            let outcome = result.unwrap_or_else(|panic| RunOutcome {
                outcomes: vec![ProgramOutcome {
                    result: ExecResult::EngineFault {
                        model: model.name.to_owned(),
                        payload: cerberus::panic_payload(&*panic),
                    },
                    stdout: String::new(),
                }],
            });
            rows.push(ModelRun {
                model: model.name,
                outcome,
            });
            execution_spans.push(span);
        }
        let matrix = OutcomeMatrix::new(rows);
        let (document, _) = tr.span("wire.render", "", root, id, || {
            cerberus_server::render::matrix_to_json(&matrix).encode()
        });
        Ok(Produced {
            elaborated,
            report,
            matrix,
            document,
            ack,
            latency: start.elapsed(),
            analysis_span,
            execution_spans,
        })
    }

    /// Traced runs only: replay the validator and every execution on the
    /// same inputs (see `trace.rs`), and require identical results.
    fn replay(
        &self,
        produced: &Produced,
        id: u64,
        tr: &mut Tracer,
        exec: &ExecThread,
    ) -> Result<(), String> {
        let start = Instant::now();
        let violations = produced.elaborated.validate();
        tr.record(
            "analysis.validate",
            "",
            Some(produced.analysis_span),
            id,
            start,
            Instant::now(),
        );
        if violations != produced.report.violations {
            return Err("Elaborated::validate disagrees with the analysis report".into());
        }
        let executions = self.models.iter().zip(produced.matrix.rows());
        for ((model, row), span) in executions.zip(&produced.execution_spans) {
            let (outcomes, start, end) = exec.run(
                produced.elaborated.clone(),
                model.clone(),
                self.config.mode,
                self.config.limits.clone(),
            )?;
            tr.record("exec.run", model.name, Some(*span), id, start, end);
            if outcomes != row.outcome.outcomes {
                return Err(format!(
                    "Driver::run and execute_bounded disagree under {}",
                    model.name
                ));
            }
        }
        Ok(())
    }
}

/// Compare one program's outputs with its oracle.
fn check(input: &Input, produced: &Produced) -> Result<(), String> {
    let report = &produced.report;
    if let Some(message) = &report.aborted {
        return Err(format!("analysis aborted: {message}"));
    }
    if !report.violations.is_empty() {
        return Err(format!("{} Core violations", report.violations.len()));
    }
    match &input.oracle {
        Oracle::Expect(expect) => {
            let diffs = diff_expectations(expect, &expectation_document(&produced.matrix));
            if let Some(diff) = diffs.first() {
                return Err(format!(
                    "{} cells differ from .expect, first {diff}",
                    diffs.len()
                ));
            }
            // Soundness: every UB kind observed dynamically is reported
            // statically (the contract's allowlist is empty).
            let dynamic: BTreeSet<UbKind> = produced
                .matrix
                .rows()
                .iter()
                .flat_map(|row| &row.outcome.outcomes)
                .filter_map(|o| o.result.ub_kind())
                .collect();
            let reported = report.ub_kinds();
            let missing: Vec<_> = dynamic.difference(&reported).collect();
            if !missing.is_empty() {
                return Err(format!("UB {missing:?} not in the static report"));
            }
        }
        Oracle::Reference { exit, stdout } => {
            for row in produced.matrix.rows() {
                match row.outcome.outcomes.as_slice() {
                    [o] if o.result == ExecResult::Return(*exit) && o.stdout == *stdout => {}
                    other => {
                        return Err(format!(
                            "{}: expected return {exit} printing {stdout:?}, got {other:?}",
                            row.model
                        ))
                    }
                }
            }
            if let Some(f) = report
                .findings
                .iter()
                .find(|f| f.severity == FindingSeverity::Must)
            {
                return Err(format!("Must finding on a UB-free program: {f}"));
            }
        }
    }
    Ok(())
}

/// Pretty-printed size of a Core program.
fn core_bytes(core: &CoreProgram) -> usize {
    let procs: usize = core
        .procs
        .values()
        .map(|p| expr_to_string(&p.body).len())
        .sum();
    let globals: usize = core
        .globals
        .iter()
        .map(|g| expr_to_string(&g.init).len())
        .sum();
    procs + globals
}

/// A thread spawned once with `ResourceLimits::host_stack_bytes()` of stack,
/// running `Driver::run` on request: the execution work of
/// `execute_bounded` without its per-execution thread.
struct ExecThread {
    jobs: Option<mpsc::Sender<ExecJob>>,
    done: mpsc::Receiver<ExecDone>,
    handle: Option<std::thread::JoinHandle<()>>,
}

type ExecJob = (Elaborated, ModelConfig, ExecMode, ResourceLimits);
type ExecDone = (Vec<ProgramOutcome>, Instant, Instant);

impl ExecThread {
    fn spawn(limits: &ResourceLimits) -> Result<Self, String> {
        let (jobs, inbox) = mpsc::channel::<ExecJob>();
        let (outbox, done) = mpsc::channel::<ExecDone>();
        let handle = std::thread::Builder::new()
            .name("perfbench-exec".into())
            .stack_size(limits.host_stack_bytes())
            .spawn(move || {
                for (program, model, mode, limits) in inbox {
                    let start = Instant::now();
                    let outcomes = program.driver(&model).with_limits(limits).run(mode);
                    if outbox.send((outcomes, start, Instant::now())).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| format!("cannot spawn the execution thread: {e}"))?;
        Ok(ExecThread {
            jobs: Some(jobs),
            done,
            handle: Some(handle),
        })
    }

    fn run(
        &self,
        program: Elaborated,
        model: ModelConfig,
        mode: ExecMode,
        limits: ResourceLimits,
    ) -> Result<ExecDone, String> {
        let lost = |_| "the execution thread died (Driver::run panicked)".to_owned();
        self.jobs
            .as_ref()
            .expect("jobs sender lives until drop")
            .send((program, model, mode, limits))
            .map_err(|e| lost(e.to_string()))?;
        self.done.recv().map_err(|e| lost(e.to_string()))
    }
}

impl Drop for ExecThread {
    fn drop(&mut self) {
        self.jobs.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The stream of programs a run consumes.
enum Feed {
    /// The fixture corpus, reshuffled every pass.
    Corpus {
        inputs: Vec<Rc<Input>>,
        order: Vec<usize>,
        next: usize,
        rng: Rng,
    },
    /// Fresh generated programs from consecutive seeds, never repeated,
    /// made as the run consumes them (outside any program's latency).
    Fresh { next_seed: u64 },
}

impl Feed {
    fn next(&mut self) -> Rc<Input> {
        match self {
            Feed::Corpus {
                inputs,
                order,
                next,
                rng,
            } => {
                if *next == order.len() {
                    rng.shuffle(order);
                    *next = 0;
                }
                *next += 1;
                Rc::clone(&inputs[order[*next - 1]])
            }
            Feed::Fresh { next_seed } => {
                *next_seed += 1;
                Rc::new(generated(*next_seed - 1, GenConfig::large()))
            }
        }
    }
}

/// Set up a run: load or generate its inputs, then warm up on programs
/// outside the timed set.
fn setup(args: &Args) -> Result<Feed, String> {
    let mut warm = Vec::new();
    let feed = if args.workload == "litmus" {
        let inputs: Vec<Rc<Input>> = fixtures()?.into_iter().map(Rc::new).collect();
        warm.extend(inputs.iter().cloned());
        let mut rng = Rng::new(args.seed);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        rng.shuffle(&mut order);
        Feed::Corpus {
            inputs,
            order,
            next: 0,
            rng,
        }
    } else {
        // Timed programs come from seeds `seed << 32 ..`; the warm-up set is
        // the same for every benchmark seed, so set-up time does not vary
        // with it.
        warm.extend(
            (0..CSMITH_WARMUP).map(|i| Rc::new(generated(WARMUP_SEED - i, GenConfig::large()))),
        );
        Feed::Fresh {
            next_seed: args.seed << 32,
        }
    };
    let pipeline = Pipeline::fresh();
    let mut off = Tracer::new(false, Instant::now());
    for input in &warm {
        let produced = pipeline.run(input, 0, &mut off)?;
        check(input, &produced).map_err(|e| format!("warm-up {}: {e}", input.label))?;
    }
    Ok(feed)
}

/// What one timed loop measured.
#[derive(Default)]
struct Loop {
    /// Untraced loops: the per-slice record of the window.
    timeline: Option<stats::Timeline>,
    /// Traced loops: the latency of each program's untraced twin run.
    untraced_ms: Vec<f64>,
    counters: Counters,
}

fn count(c: &mut Counters, input: &Input, produced: &Produced) {
    let report = &produced.report;
    c.source_bytes += input.source.len() as u64;
    c.core_bytes += core_bytes(produced.elaborated.core()) as u64;
    c.paths_explored += report.paths_explored as u64;
    c.paths_pruned += report.paths_pruned as u64;
    c.steps_used += report.steps_used as u64;
    c.solver_queries += report.solver_queries;
    c.solver_memo_hits += report.solver_memo_hits;
    c.result_bytes += produced.document.len() as u64;
    c.budget_exhausted += produced
        .matrix
        .rows()
        .iter()
        .filter(|row| row.outcome.any_budget_exhaustion())
        .count() as u64;
}

/// Run programs from `feed` until `duration` has passed, checking each.
///
/// Traced, every program runs twice, once traced and once not, each on its
/// own session so neither sees the other's memo; the order alternates. The
/// untraced twins give the tracing overhead on identical work.
fn measure(
    feed: &mut Feed,
    duration: Duration,
    mut traced: Option<(&mut Tracer, &ExecThread)>,
    outcome: &mut Outcome,
) -> Result<Loop, String> {
    let mut out = Loop::default();
    let start = Instant::now();
    if traced.is_none() {
        out.timeline = Some(stats::Timeline::new(start, stats::read_and_reset("self")?));
    }
    let mut off = Tracer::new(false, start);
    let (mut plain, mut twin) = (Pipeline::fresh(), Pipeline::fresh());
    for id in 0u64.. {
        let now = Instant::now();
        if let Some(timeline) = out.timeline.as_mut() {
            if timeline.due(now) || now.duration_since(start) >= duration {
                timeline.boundary(now, stats::read_and_reset("self")?);
            }
        }
        if now.duration_since(start) >= duration {
            break;
        }
        if id % PASS == 0 {
            (plain, twin) = (Pipeline::fresh(), Pipeline::fresh());
        }
        let input = feed.next();
        let mut untraced = || {
            let produced = plain.run(&input, id, &mut off)?;
            check(&input, &produced)?;
            Ok::<_, String>(produced)
        };
        let verdict = match traced.as_mut() {
            None => untraced().map(|produced| {
                let timeline = out
                    .timeline
                    .as_mut()
                    .expect("untraced loops keep a timeline");
                timeline.program(Instant::now(), produced.latency, produced.ack);
            }),
            Some((tr, exec)) => {
                let mut twin_run = || {
                    let produced = untraced()?;
                    out.untraced_ms.push(stats::ms(produced.latency));
                    Ok::<_, String>(())
                };
                let first = id.is_multiple_of(2);
                let before = if first { twin_run() } else { Ok(()) };
                let traced_run = twin.run(&input, id, tr).and_then(|produced| {
                    count(&mut out.counters, &input, &produced);
                    twin.replay(&produced, id, tr, exec)?;
                    check(&input, &produced)
                });
                let after = if first { Ok(()) } else { twin_run() };
                before.and(traced_run).and(after)
            }
        };
        outcome.check(&input.label, verdict);
    }
    Ok(out)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut feed, setup_s) = timed_setup(|| setup(args))?;
    let mut outcome = Outcome::default();
    if !args.trace {
        let timed = measure(&mut feed, args.seconds, None, &mut outcome)?;
        let timeline = timed.timeline.expect("untraced loops keep a timeline");
        crate::report_end_to_end(&args.workload, setup_s, &timeline, &mut outcome.metrics);
        return Ok(outcome);
    }

    let exec = ExecThread::spawn(&Config::default().limits)?;
    let mut tracer = Tracer::new(true, Instant::now());
    let traced = measure(
        &mut feed,
        args.seconds,
        Some((&mut tracer, &exec)),
        &mut outcome,
    )?;
    drop(exec);
    let mut counters = traced.counters;
    counters.untraced_programs_per_s =
        traced.untraced_ms.len() as f64 / (traced.untraced_ms.iter().sum::<f64>() / 1e3);
    counters.error_ratio = outcome.error_ratio();
    let accounting = Accounting::of(tracer.spans());
    layers::report(
        &accounting,
        &counters,
        tracer.spans().len(),
        &mut outcome.metrics,
    );
    let path = crate::spans_path(args);
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("cerberus-perfbench: spans written to {}", path.display());
    Ok(outcome)
}
