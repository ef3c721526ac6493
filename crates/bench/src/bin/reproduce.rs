//! `reproduce`: regenerate every table, figure and quantitative claim of the
//! paper's evaluation (the experiment index E1–E18 of DESIGN.md), printing
//! paper-reported values next to the values measured from this
//! reimplementation.
//!
//! Usage: `cargo run -p cerberus-bench --bin reproduce [--quick]
//! [--models name,name,...] [--fuzz N] [--analyze] [--json]`
//!
//! `--models` restricts the per-model experiments (E11/E17) to the named
//! configurations of `ModelConfig::all_named()` — e.g.
//! `--models concrete,symbolic` pits packed placement against the region
//! placement of the symbolic provenance model.
//!
//! `--fuzz N` skips the experiments and instead runs N generated seeds
//! through the full pipeline under a wall-clock-bounded resource budget (the
//! CI fuzz smoke job): every seed must end in a structured verdict — agree
//! or budget exhaustion — and any disagreement, pipeline failure or
//! contained engine fault makes the run exit nonzero.
//!
//! `--analyze` skips the experiments and instead runs the static UB analyzer
//! over the litmus catalogue, printing per-test Must/May finding counts and
//! the UB kinds reported — the static half of the soundness cross-validation
//! in `tests/analysis_soundness.rs`.
//!
//! `--json` emits the executable experiments (E5, E11/E17, E15/E16) as one
//! JSON document on stdout, using the same encoder the UB-oracle service's
//! API responses use, plus the job-queue statistics of the run.
//!
//! The litmus and differential experiments run as batches on the
//! [`cerberus_queue::JobQueue`], the worker pool the service runs on: one
//! multi-model job per litmus test, one job per generated seed. The
//! UB-oracle HTTP service itself is the `cerberus-serve` binary.

use cerberus::core_lang::pretty::expr_to_string;
use cerberus::pipeline::Session;
use cerberus::DifferentialRunner;
use cerberus_ast::questions::{Question, QuestionCategory};
use cerberus_gen::{run_differential, DiffOutcome, DiffSummary, GenConfig};
use cerberus_litmus::{catalogue, run_suite};
use cerberus_memory::cheri;
use cerberus_memory::config::{ModelConfig, ToolProfile};
use cerberus_memory::limits::ResourceLimits;
use cerberus_memory::value::Provenance;
use cerberus_queue::JobQueue;
use cerberus_server::render;
use cerberus_survey as survey;
use cerberus_wire::json::Json;

fn heading(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Render every diagnostic of a front-end failure (the desugarer collects all
/// independently diagnosable constraint violations, not just the first) and
/// exit with the usage-error code.
fn frontend_failure(context: &str, e: &cerberus::PipelineError) -> ! {
    eprintln!(
        "error: {context} failed in the front end with {} diagnostic(s):",
        e.diagnostic_count()
    );
    for diagnostic in e.diagnostics() {
        eprintln!("  {diagnostic}");
    }
    std::process::exit(2);
}

/// The models the per-model experiments run under: all of them by default, or
/// the `--models a,b,c` selection. An unknown name, a missing value, or an
/// empty selection is a hard error — a smoke run that silently executed zero
/// models would still exit 0 and turn the CI gate green.
fn selected_models(args: &[String]) -> Vec<ModelConfig> {
    let mut names: Option<String> = None;
    for (i, arg) in args.iter().enumerate() {
        if let Some(list) = arg.strip_prefix("--models=") {
            names = Some(list.to_owned());
        } else if arg == "--models" {
            match args.get(i + 1) {
                Some(value) if !value.starts_with("--") => names = Some(value.clone()),
                _ => {
                    eprintln!("error: --models requires a comma-separated list of model names");
                    std::process::exit(2);
                }
            }
        }
    }
    let Some(list) = names else {
        return ModelConfig::all_named();
    };
    let models: Vec<ModelConfig> = list
        .split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(|name| {
            ModelConfig::by_name(name).unwrap_or_else(|| {
                let known: Vec<&str> = ModelConfig::all_named().iter().map(|m| m.name).collect();
                eprintln!(
                    "error: unknown model '{name}' (known models: {})",
                    known.join(", ")
                );
                std::process::exit(2);
            })
        })
        .collect();
    if models.is_empty() {
        eprintln!("error: --models selected no models");
        std::process::exit(2);
    }
    models
}

/// The `--fuzz N` seed count, if the flag is present. A malformed count is a
/// hard error for the same reason an empty `--models` selection is.
fn fuzz_count(args: &[String]) -> Option<usize> {
    for (i, arg) in args.iter().enumerate() {
        let value = match arg.strip_prefix("--fuzz=") {
            Some(value) => Some(value.to_owned()),
            None if arg == "--fuzz" => args.get(i + 1).cloned(),
            None => continue,
        };
        match value.and_then(|v| v.parse::<usize>().ok()) {
            Some(count) if count > 0 => return Some(count),
            _ => {
                eprintln!("error: --fuzz requires a positive seed count");
                std::process::exit(2);
            }
        }
    }
    None
}

/// The CI fuzz smoke run: `count` generated seeds through the full pipeline,
/// as one batch of ten-model jobs on `queue`, under a wall-clock-bounded
/// resource budget. Every seed must end in a structured verdict, and every
/// named model's row must match the reference; disagreements (naming the
/// model), pipeline failures and contained engine faults are reported and
/// make the run exit nonzero.
fn fuzz_smoke(queue: &JobQueue, count: usize) -> ! {
    let limits = ResourceLimits::default().with_wall_clock_ms(5_000);
    let models = ModelConfig::all_named();
    let summary = run_differential(queue, count, GenConfig::small(), &limits, &models);
    queue.shutdown();
    for (seed, outcome) in &summary.not_agreed {
        match outcome {
            DiffOutcome::Agree | DiffOutcome::Timeout => {}
            DiffOutcome::Disagree {
                model,
                expected,
                observed,
            } => {
                eprintln!(
                    "seed {seed}: DISAGREE under {model}: expected {expected}, observed {observed}"
                );
            }
            DiffOutcome::Failure(e) => eprintln!("seed {seed}: pipeline failure: {e}"),
            DiffOutcome::Fault(payload) => {
                eprintln!("seed {seed}: contained engine fault: {payload}");
            }
        }
    }
    let bad = summary.disagree + summary.failed + summary.faulted;
    println!(
        "fuzz smoke: {count} seeds — {} agree, {} budget-exhausted, {bad} bad",
        summary.agree, summary.timeout
    );
    std::process::exit(if bad > 0 { 1 } else { 0 });
}

/// The `--analyze` mode: run the static UB analyzer (validator + abstract
/// interpretation) over every litmus test and print one row per test — the
/// Must/May finding counts, the abstract step cost, the UB kinds reported
/// and the strongest finding's witness (the satisfying assignment realising
/// a Must finding, or the residual constraint under which a May finding
/// fires). The static column is what the soundness harness
/// (`tests/analysis_soundness.rs`) cross-validates against the dynamic
/// matrices; this mode is the human-readable view of the same pass. An
/// aborted analysis (an interpreter panic downgraded to a structured report)
/// exits nonzero: the analyzer is expected to be total.
fn analyze_corpus() -> ! {
    use cerberus::analysis::FindingSeverity;

    let session = Session::default();
    let suite = catalogue();
    println!(
        "{:<44} {:>4} {:>4} {:>8}  {:<36} ub kinds",
        "test", "must", "may", "steps", "witness"
    );
    let mut aborted = 0usize;
    for test in &suite {
        match session.analyze(&test.source) {
            Ok(report) => {
                if report.aborted.is_some() {
                    aborted += 1;
                }
                let musts = report
                    .findings
                    .iter()
                    .filter(|f| f.severity == FindingSeverity::Must)
                    .count();
                let mays = report.findings.len() - musts;
                let kinds: Vec<&str> = report.ub_kinds().iter().map(|k| k.core_name()).collect();
                // The strongest finding's evidence: Must sorts before May,
                // so this is a realising assignment whenever one exists.
                let witness = report
                    .findings
                    .iter()
                    .min_by_key(|f| f.severity)
                    .map(|f| f.witness.to_string())
                    .unwrap_or_else(|| "-".to_owned());
                println!(
                    "{:<44} {:>4} {:>4} {:>8}{} {:<36} {}",
                    test.name,
                    musts,
                    mays,
                    report.steps_used,
                    if report.budget_exhausted { "!" } else { " " },
                    witness,
                    kinds.join(", ")
                );
            }
            Err(e) => println!(
                "{:<44} front-end rejection ({} diagnostic(s))",
                test.name,
                e.diagnostic_count()
            ),
        }
    }
    let solver = session.cache_stats().solver;
    println!(
        "\n{} tests analyzed ('!' marks an exhausted step budget); {} aborted; \
         solver memo {}/{} hits",
        suite.len(),
        aborted,
        solver.hits,
        solver.lookups(),
    );
    std::process::exit(if aborted > 0 { 1 } else { 0 });
}

fn diff_summary_to_json(summary: &DiffSummary) -> Json {
    Json::obj([
        ("agree", Json::Int(summary.agree as i128)),
        ("disagree", Json::Int(summary.disagree as i128)),
        ("timeout", Json::Int(summary.timeout as i128)),
        ("failed", Json::Int(summary.failed as i128)),
        ("faulted", Json::Int(summary.faulted as i128)),
        ("total", Json::Int(summary.total as i128)),
    ])
}

/// The `--json` report: the executable experiments rendered with the same
/// encoder the service's API uses, plus the queue statistics of this run.
/// Returns the document and the number of contained engine faults (the
/// exit-status signal, matching the text mode).
fn json_report(queue: &JobQueue, models: &[ModelConfig], quick: bool) -> (Json, usize) {
    let mut engine_faults = 0usize;
    let suite = catalogue();
    let dr260 = suite
        .iter()
        .find(|t| t.name == "provenance_basic_global_xy")
        .expect("test exists");
    let matrix = DifferentialRunner::new(vec![
        ModelConfig::concrete(),
        ModelConfig::de_facto(),
        ModelConfig::gcc_like(),
    ])
    .run(&cerberus_litmus::elaborate(dr260));

    let litmus: Vec<Json> = run_suite(queue, &suite, models)
        .iter()
        .map(|summary| {
            engine_faults += summary.faulted;
            render::suite_summary_to_json(summary)
        })
        .collect();

    let (small_n, large_n) = if quick { (25, 5) } else { (200, 40) };
    let small = run_differential(
        queue,
        small_n,
        GenConfig::small(),
        &ResourceLimits::with_steps(2_000_000),
        &[ModelConfig::concrete()],
    );
    let large = run_differential(
        queue,
        large_n,
        GenConfig::large(),
        &ResourceLimits::with_steps(if quick { 200_000 } else { 1_000_000 }),
        &[ModelConfig::concrete()],
    );
    engine_faults += small.faulted + large.faulted;

    let document = Json::obj([
        ("e5_dr260", render::matrix_to_json(&matrix)),
        ("e11_e17_litmus", Json::Arr(litmus)),
        ("e15_small", diff_summary_to_json(&small)),
        ("e16_large", diff_summary_to_json(&large)),
        ("queue", render::queue_stats_to_json(&queue.stats())),
    ]);
    (document, engine_faults)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // The worker pool shared by the queued runs (the fuzz smoke, E11/E17,
    // E15/E16).
    let queue = JobQueue::start(
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2),
    );
    if let Some(count) = fuzz_count(&args) {
        fuzz_smoke(&queue, count);
    }
    if args.iter().any(|a| a == "--analyze") {
        analyze_corpus();
    }
    let quick = args.iter().any(|a| a == "--quick");
    let models = selected_models(&args);

    if args.iter().any(|a| a == "--json") {
        let (document, engine_faults) = json_report(&queue, &models, quick);
        println!("{}", document.encode());
        queue.shutdown();
        std::process::exit(if engine_faults > 0 { 1 } else { 0 });
    }

    // E1 — survey respondent expertise.
    heading("E1", "survey respondent expertise (paper §2 table)");
    for row in survey::respondent_expertise() {
        println!("  {:<42} {}", row.category, row.count);
    }
    println!("  total responses: {}", survey::TOTAL_RESPONSES);

    // E2 — question categories.
    heading("E2", "design-space question categories (paper §2)");
    for &cat in QuestionCategory::all() {
        println!("  {:<55} {}", cat.label(), cat.paper_count());
    }
    println!(
        "  categories: {}, questions: {}",
        QuestionCategory::all().len(),
        QuestionCategory::total_questions()
    );

    // E3 — clarity aggregates.
    heading("E3", "ISO vs de facto clarity (paper: 38 / 28 / 26 of 85)");
    let agg = Question::paper_aggregates();
    println!(
        "  paper:    total {} | ISO unclear {} | de facto unclear {} | differ {}",
        agg.total, agg.iso_unclear, agg.de_facto_unclear, agg.iso_de_facto_differ
    );
    let discussed = Question::discussed();
    let iso_unclear = discussed
        .iter()
        .filter(|q| q.iso == cerberus_ast::questions::Clarity::Unclear)
        .count();
    let differ = discussed.iter().filter(|q| q.differs).count();
    println!(
        "  encoded subset ({} questions discussed in the paper body): ISO unclear {}, differ {}",
        discussed.len(),
        iso_unclear,
        differ
    );

    // E4, E6–E10 — survey splits.
    heading(
        "E4/E6-E10",
        "published survey splits (percentages recomputed from counts)",
    );
    for q in survey::published_questions() {
        println!("  [{}/15] {}", q.index, q.statement);
        for a in &q.answers {
            println!(
                "      {:<45} {:>3}  ({:>2}%)",
                a.answer,
                a.count,
                a.percentage()
            );
        }
    }

    // E5 — the DR260 provenance example under three models.
    heading(
        "E5",
        "provenance_basic_global_xy under concrete / de facto / GCC-like models",
    );
    let suite = catalogue();
    let dr260 = suite
        .iter()
        .find(|t| t.name == "provenance_basic_global_xy")
        .expect("test exists");
    // One elaboration, three models: the differential-runner fast path.
    let matrix = DifferentialRunner::new(vec![
        ModelConfig::concrete(),
        ModelConfig::de_facto(),
        ModelConfig::gcc_like(),
    ])
    .run(&cerberus_litmus::elaborate(dr260));
    for row in matrix.rows() {
        let first = &row.outcome.outcomes[0];
        println!(
            "  {:<10} -> {} {}",
            row.model,
            first.result,
            if first.stdout.is_empty() {
                String::new()
            } else {
                format!("stdout: {:?}", first.stdout)
            }
        );
    }
    println!("  paper: concrete x=1 y=11 *p=11 *q=11; GCC x=1 y=2 *p=11 *q=2; candidate model: UB");

    // E11 / E17 — the litmus suite under every model and tool profile.
    heading(
        "E11/E17",
        "litmus suite verdicts per memory model / tool profile",
    );
    println!(
        "  {:<16} {:>8} {:>8} {:>14} {:>8} {:>8}",
        "model", "flagged", "passed", "as-expected", "skipped", "faulted"
    );
    // One batch, one job per test: the selected models plus de-facto, whose
    // column feeds the intended-behaviour line below but is printed only
    // when selected.
    let mut batch = models.clone();
    if !models.iter().any(|m| m.name == "de-facto") {
        batch.push(ModelConfig::de_facto());
    }
    let summaries = run_suite(&queue, &suite, &batch);
    let mut engine_faults = 0usize;
    for summary in &summaries[..models.len()] {
        engine_faults += summary.faulted;
        println!(
            "  {:<16} {:>8} {:>8} {:>9}/{:<4} {:>8} {:>8}",
            summary.model,
            summary.flagged,
            summary.passed,
            summary.as_expected,
            summary.with_expectation,
            summary.skipped_expectations.len(),
            summary.faulted
        );
        if !summary.skipped_expectations.is_empty() {
            println!(
                "  !! expectation holes under '{}': {}",
                summary.model,
                summary.skipped_expectations.join(", ")
            );
        }
        if summary.faulted > 0 {
            println!(
                "  !! engine fault: {} of {} tests panicked inside model '{}' (contained)",
                summary.faulted, summary.total, summary.model
            );
        }
    }
    println!("  paper (§3): sanitisers flag few unspecified/padding tests; tis-interpreter is strict; KCC mixed");
    let de_facto = summaries
        .iter()
        .find(|s| s.model == "de-facto")
        .expect("de-facto is in the batch");
    println!(
        "  candidate de facto model has the intended behaviour on {} of {} encoded tests (paper reports 9 of its much larger suite at submission time)",
        de_facto.as_expected, de_facto.total
    );

    // E12 — CHERI findings.
    heading("E12", "CHERI C findings (§4)");
    let a = cheri::Capability {
        base: 0x1_0000,
        length: 4,
        offset: 4,
        tag: true,
        prov: Provenance::Alloc(1),
    };
    let b = cheri::Capability {
        base: 0x1_0004,
        length: 4,
        offset: 0,
        tag: true,
        prov: Provenance::Alloc(2),
    };
    println!(
        "  pointer equality: by-address {} vs exact-equals {} (paper: CHERI added a compare-exactly-equal instruction)",
        cheri::eq_by_address(&a, &b),
        cheri::eq_exact(&a, &b)
    );
    let i = cheri::Capability {
        base: 0x1_0000,
        length: 64,
        offset: 8,
        tag: true,
        prov: Provenance::Alloc(1),
    };
    println!(
        "  (i & 3u) with address semantics = {} ; with CHERI offset semantics = {} (paper: the defensive alignment check fails)",
        cheri::uintptr_bitand_address_semantics(&i, 3),
        cheri::uintptr_bitand_offset_semantics(&i, 3)
    );
    println!(
        "  arithmetic provenance is inherited from the left operand: {:?}",
        cheri::arithmetic_provenance(Provenance::Alloc(1), Provenance::Alloc(2))
    );

    // E13 — architecture LOS counts (Fig. 1 analogue).
    heading(
        "E13",
        "architecture phases (Fig. 1; paper LOS counts vs this repository's crates)",
    );
    let paper = [
        ("parsing", 2600),
        ("Cabs", 600),
        ("Cabs_to_Ail", 2800),
        ("Ail", 1100),
        ("type inference/checking", 2800),
        ("elaboration", 1700),
        ("Core", 1400),
        ("Core-to-Core transformation", 600),
        ("Core operational semantics", 3100),
        ("memory object model", 1500),
    ];
    for (phase, los) in paper {
        println!("  paper {:<32} {:>6} LOS", phase, los);
    }
    println!("  this repository: crates parser / ail / core / elab / exec / memory (see `tokei`-style counts in EXPERIMENTS.md)");

    // E14 — the Fig. 3 left-shift elaboration.
    heading("E14", "elaboration of e1 << e2 (Fig. 3)");
    let program = Session::default()
        .elaborate("int shift(int a, int b) { return a << b; }")
        .unwrap_or_else(|e| frontend_failure("the Fig. 3 shift example", &e));
    let body = expr_to_string(&program.core().proc("shift").expect("proc").body);
    let interesting: Vec<&str> = body
        .lines()
        .filter(|l| l.contains("undef(") || l.contains("let weak") || l.contains("unseq("))
        .collect();
    for line in &interesting {
        println!("  {}", line.trim_start());
    }
    println!("  (full elaboration: {} lines of Core; the undef(Negative_shift) / undef(Shift_too_large) / undef(Exceptional_condition) tests of Fig. 3 are present)", body.lines().count());

    // E15/E16 — differential validation.
    let (small_n, large_n) = if quick { (25, 5) } else { (200, 40) };
    heading(
        "E15",
        "differential validation on small generated programs (§6: 556/561 agree, 5 time out)",
    );
    let small = run_differential(
        &queue,
        small_n,
        GenConfig::small(),
        &ResourceLimits::with_steps(2_000_000),
        &[ModelConfig::concrete()],
    );
    println!(
        "  measured: {}/{} agree, {} disagree, {} timeout, {} failed, {} faulted",
        small.agree, small.total, small.disagree, small.timeout, small.failed, small.faulted
    );
    heading("E16", "differential validation on larger generated programs (§6: 316 agree, 56 time out, 6 fail of 400)");
    let large = run_differential(
        &queue,
        large_n,
        GenConfig::large(),
        &ResourceLimits::with_steps(if quick { 200_000 } else { 1_000_000 }),
        &[ModelConfig::concrete()],
    );
    println!(
        "  measured: {}/{} agree, {} disagree, {} timeout, {} failed, {} faulted",
        large.agree, large.total, large.disagree, large.timeout, large.failed, large.faulted
    );
    engine_faults += small.faulted + large.faulted;

    // E18 — translation validation.
    heading("E18", "tvc translation validation of trivial programs (§6)");
    let programs = [
        "int main(void) { return 1 + 2 * 3; }",
        "int main(void) { int a = 6; int b = 7; return a * b; }",
        "int main(void) { int a = 10; int b = 4; int c = a - b; return c * c; }",
        "int main(void) { int x = 0; if (x) return 1; return 0; }",
    ];
    let mut validated = 0;
    let mut unsupported = 0;
    for p in programs {
        match cerberus::tvc::validate(p).expect("validator runs") {
            cerberus::tvc::TvcVerdict::Validated { .. } => validated += 1,
            cerberus::tvc::TvcVerdict::Unsupported(_) => unsupported += 1,
            cerberus::tvc::TvcVerdict::Mismatch { .. } => println!("  MISMATCH on {p}"),
        }
    }
    println!("  {validated} validated, {unsupported} outside the supported fragment (paper: tvc supports only extremely simple single-function programs)");

    // Reference the tool profiles so the dependency is exercised even in
    // quick mode.
    let _ = ModelConfig::tool(ToolProfile::Kcc);

    queue.shutdown();
    if engine_faults > 0 {
        println!(
            "\n{engine_faults} contained engine fault(s) across the experiments — the runs \
             completed, but at least one memory model panicked. See the per-suite fault \
             counts above."
        );
        std::process::exit(1);
    }
    println!("\nAll experiments regenerated. See EXPERIMENTS.md for the recorded comparison.");
}
