//! Property-based tests over the whole stack: front-end robustness, the
//! implementation-defined arithmetic rules, provenance preservation, and
//! generator/pipeline agreement.

use proptest::prelude::*;

use cerberus::pipeline::run_with_model;
use cerberus_ast::ctype::IntegerType;
use cerberus_ast::env::ImplEnv;
use cerberus_exec::driver::ExecResult;
use cerberus_gen::{diff_one, generate, DiffOutcome, GenConfig};
use cerberus_memory::config::ModelConfig;
use cerberus_memory::model::MemoryModel;
use cerberus_memory::state::{AllocKind, MemState};
use cerberus_memory::value::MemValue;
use cerberus_parser::lexer::lex;
use cerberus_parser::preprocess::preprocess;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lexer never panics on arbitrary printable input (it may reject it).
    #[test]
    fn lexer_is_total_on_printable_ascii(s in "[ -~\n\t]{0,200}") {
        let _ = lex(&s);
    }

    /// The preprocessor never panics and strips comments without losing
    /// newline structure entirely.
    #[test]
    fn preprocessor_is_total(s in "[ -~\n]{0,200}") {
        let _ = preprocess(&s);
    }

    /// Integer conversion to an unsigned type is always in range and is a
    /// ring homomorphism modulo 2^width (6.3.1.3p2).
    #[test]
    fn unsigned_conversion_is_modular(v in any::<i64>(), w in any::<i64>()) {
        let env = ImplEnv::lp64();
        for &ty in &[IntegerType::UChar, IntegerType::UShort, IntegerType::UInt, IntegerType::ULong] {
            let cv = env.convert_int(i128::from(v), ty);
            prop_assert!(cv >= 0 && cv <= env.int_max(ty));
            let sum_then_convert = env.convert_int(i128::from(v).wrapping_add(i128::from(w)), ty);
            let convert_then_sum =
                env.convert_int(env.convert_int(i128::from(v), ty) + env.convert_int(i128::from(w), ty), ty);
            prop_assert_eq!(sum_then_convert, convert_then_sum);
        }
    }

    /// Signed conversion agrees with two's-complement truncation.
    #[test]
    fn signed_conversion_matches_twos_complement(v in any::<i64>()) {
        let env = ImplEnv::lp64();
        prop_assert_eq!(env.convert_int(i128::from(v), IntegerType::Int), i128::from(v as i32));
        prop_assert_eq!(env.convert_int(i128::from(v), IntegerType::Short), i128::from(v as i16));
        prop_assert_eq!(env.convert_int(i128::from(v), IntegerType::SChar), i128::from(v as i8));
    }

    /// Storing an integer and loading it back through the memory engine is
    /// the identity on representable values, for every named model.
    #[test]
    fn memory_store_load_round_trips(v in any::<i32>()) {
        for config in [ModelConfig::concrete(), ModelConfig::de_facto(), ModelConfig::strict_iso()] {
            let mut mem = MemState::new(config, ImplEnv::lp64(), Default::default());
            let ty = cerberus_ast::ctype::Ctype::integer(IntegerType::Int);
            let p = mem.create(&ty, AllocKind::Automatic, None).unwrap();
            mem.store(&ty, &p, &MemValue::int(IntegerType::Int, i128::from(v))).unwrap();
            prop_assert_eq!(mem.load(&ty, &p).unwrap().as_int(), Some(i128::from(v)));
        }
    }

    /// Bytewise copies of stored pointers preserve their provenance (Q13).
    #[test]
    fn bytewise_pointer_copies_preserve_provenance(offset in 0u64..4) {
        let mut mem = MemState::new(ModelConfig::de_facto(), ImplEnv::lp64(), Default::default());
        let int = cerberus_ast::ctype::Ctype::integer(IntegerType::Int);
        let arr = cerberus_ast::ctype::Ctype::array(int.clone(), 4);
        let target = mem.create(&arr, AllocKind::Automatic, None).unwrap();
        let elem = mem.array_shift(&target, &int, i128::from(offset)).unwrap();
        mem.store(&int, &elem, &MemValue::int(IntegerType::Int, 7)).unwrap();
        let pty = cerberus_ast::ctype::Ctype::pointer(int.clone());
        let a = mem.create(&pty, AllocKind::Automatic, None).unwrap();
        let b = mem.create(&pty, AllocKind::Automatic, None).unwrap();
        mem.store(&pty, &a, &MemValue::Pointer(int.clone(), elem.clone())).unwrap();
        mem.copy_bytes(&b, &a, 8).unwrap();
        let copied = mem.load(&pty, &b).unwrap();
        prop_assert_eq!(copied.as_pointer().unwrap().prov, elem.prov);
    }

    /// Simple arithmetic programs computed by the pipeline agree with Rust's
    /// own wrapping arithmetic at `unsigned int`.
    #[test]
    fn pipeline_matches_native_unsigned_arithmetic(a in any::<u32>(), b in any::<u32>()) {
        let src = format!(
            "int main(void) {{ unsigned x = {a}u; unsigned y = {b}u; unsigned z = x * 3u + y; return (int)(z % 97u); }}"
        );
        let expected = i128::from((a.wrapping_mul(3).wrapping_add(b)) % 97);
        let out = run_with_model(&src, ModelConfig::de_facto()).unwrap();
        prop_assert!(matches!(out.outcomes[0].result, ExecResult::Return(v) if v == expected),
            "{:?} vs {}", out.outcomes[0], expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated well-defined programs never trigger undefined behaviour and
    /// always agree with the reference evaluator (the §6 validation as a
    /// property).
    #[test]
    fn generated_programs_agree_with_the_reference(seed in 0u64..2000) {
        let program = generate(seed, GenConfig::small());
        let outcome = diff_one(&program, 2_000_000);
        prop_assert!(
            matches!(outcome, DiffOutcome::Agree | DiffOutcome::Timeout),
            "seed {seed}: {outcome:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Totality of the bounded executor: every generated program, under every
    /// named model and a tight resource budget, yields a structured
    /// `ExecResult` — no panic escapes the run and no budget overrun aborts
    /// it. Budget exhaustion must surface as `Timeout`/`ResourceExhausted`,
    /// and an `EngineFault` can never be produced by the driver itself.
    /// Totality over the fixture corpus: every golden-file litmus program,
    /// under every named model and the same tight budget, produces a
    /// structured result — adding a fixture can never smuggle in a program
    /// that panics the engine or escapes the resource accounting. The seed
    /// picks which fixture to probe so the whole corpus is covered across
    /// runs without re-elaborating all of it per case, and the search runs up
    /// to eight evaluation orders, so schedules other than the first are
    /// covered too.
    #[test]
    fn every_fixture_is_total_under_tight_budgets(seed in 0u64..500) {
        use cerberus::pipeline::Session;
        use cerberus_exec::driver::ExecMode;
        use cerberus_memory::limits::ResourceLimits;

        let suite = cerberus_litmus::catalogue();
        let test = &suite[(seed as usize) % suite.len()];
        let session = Session::default();
        let artifact = session
            .elaborate(&test.source)
            .unwrap_or_else(|e| panic!("fixture {} failed in the front end: {e}", test.name));
        let limits = ResourceLimits::with_steps(200_000)
            .with_wall_clock_ms(10_000)
            .with_heap_bytes(1 << 20)
            .with_max_live_allocations(4 << 10)
            .with_call_depth(128);
        for model in ModelConfig::all_named() {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                artifact.execute_bounded(&model, ExecMode { max_executions: 8 }, &limits)
            }));
            let outcome = run.unwrap_or_else(|_| {
                panic!(
                    "fixture {}: model {} panicked instead of returning a structured result",
                    test.name, model.name
                )
            });
            prop_assert!(
                !outcome.outcomes.is_empty(),
                "fixture {}: model {} produced no outcome",
                test.name,
                model.name
            );
            prop_assert!(
                !outcome.is_fault(),
                "fixture {}: the driver fabricated an EngineFault under {}",
                test.name,
                model.name
            );
        }
    }

    /// Totality of the static analyzer: every generated seed and every
    /// golden fixture analyzes to a structured [`AnalysisReport`] under a
    /// tight step budget — the pass never panics (`aborted` stays unset) and
    /// budget exhaustion surfaces as `budget_exhausted`, not as an abort.
    /// Even seeds probe the generator corpus, odd seeds the fixture corpus.
    #[test]
    fn the_static_analyzer_is_total(seed in 0u64..500) {
        use cerberus::analysis::AnalysisConfig;
        use cerberus::pipeline::Session;

        let session = Session::default();
        let (label, source) = if seed % 2 == 0 {
            let program = generate(seed / 2, GenConfig::small());
            (format!("seed {seed}"), cerberus_gen::to_c_source(&program))
        } else {
            let suite = cerberus_litmus::catalogue();
            let test = &suite[(seed as usize / 2) % suite.len()];
            (format!("fixture {}", test.name), test.source.clone())
        };
        let report = session
            .analyze_with(&source, AnalysisConfig::tight())
            .unwrap_or_else(|e| panic!("{label} failed in the front end: {e}"));
        prop_assert!(
            report.aborted.is_none(),
            "{}: the analyzer aborted: {:?}",
            label,
            report.aborted
        );
        prop_assert!(
            report.violations.is_empty(),
            "{}: elaborated Core failed the well-formedness validator: {:?}",
            label,
            report.violations
        );
    }

    /// Path sensitivity is a *refinement* of the flow-join baseline: pruning
    /// infeasible paths and tracking constraints may drop findings or sharpen
    /// May into Must, but must never surface a UB kind the join analysis
    /// proves absent.
    #[test]
    fn path_sensitive_analysis_refines_the_flow_baseline(seed in 0u64..500) {
        use cerberus::analysis::AnalysisConfig;
        use cerberus::pipeline::Session;

        let session = Session::default();
        let (label, source) = if seed % 2 == 0 {
            let program = generate(seed / 2, GenConfig::small());
            (format!("seed {seed}"), cerberus_gen::to_c_source(&program))
        } else {
            let suite = cerberus_litmus::catalogue();
            let test = &suite[(seed as usize / 2) % suite.len()];
            (format!("fixture {}", test.name), test.source.clone())
        };
        let path = session
            .analyze_with(&source, AnalysisConfig::tight())
            .unwrap_or_else(|e| panic!("{label} failed in the front end: {e}"));
        let flow = session
            .analyze_with(&source, AnalysisConfig::tight().flow_baseline())
            .unwrap_or_else(|e| panic!("{label} failed in the front end: {e}"));
        // Budget exhaustion truncates the explored portion of the program,
        // and the two modes spend steps differently; only compare complete
        // analyses.
        if !path.budget_exhausted && !flow.budget_exhausted {
            let extra: Vec<_> = path.ub_kinds().difference(&flow.ub_kinds()).copied().collect();
            prop_assert!(
                extra.is_empty(),
                "{}: path-sensitive mode reported kinds the flow baseline excludes: {:?}",
                label,
                extra
            );
        }
    }

    #[test]
    fn every_named_model_is_total_under_tight_budgets(seed in 0u64..500) {
        use cerberus::pipeline::Session;
        use cerberus_exec::driver::ExecMode;
        use cerberus_memory::limits::ResourceLimits;

        let program = generate(seed, GenConfig::small());
        let source = cerberus_gen::to_c_source(&program);
        let session = Session::default();
        let artifact = session
            .elaborate(&source)
            .expect("generated programs are well-formed");
        let limits = ResourceLimits::with_steps(200_000)
            .with_wall_clock_ms(10_000)
            .with_heap_bytes(1 << 20)
            .with_max_live_allocations(4 << 10)
            .with_call_depth(128);
        for model in ModelConfig::all_named() {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                artifact.execute_bounded(&model, ExecMode::default(), &limits)
            }));
            let outcome = run.unwrap_or_else(|_| {
                panic!(
                    "seed {seed}: model {} panicked instead of returning a structured result",
                    model.name
                )
            });
            prop_assert!(
                !outcome.outcomes.is_empty(),
                "seed {seed}: model {} produced no outcome",
                model.name
            );
            prop_assert!(
                !outcome.is_fault(),
                "seed {seed}: the driver fabricated an EngineFault under {}",
                model.name
            );
        }
    }
}

/// Require `run` to cost linearly in its input: the best of 3 timings of a
/// short and a long input, interleaved so both run on the same host load,
/// whose sizes differ eightfold. The bound is a ratio and not a time: the
/// long input must cost less than twenty times as much as the short one.
fn assert_linear<P>(what: &str, inputs: [(usize, P); 2], mut run: impl FnMut(&P)) {
    use std::time::{Duration, Instant};

    let mut best = [Duration::MAX; 2];
    for _ in 0..3 {
        for ((_, input), best) in inputs.iter().zip(&mut best) {
            let start = Instant::now();
            run(input);
            *best = (*best).min(start.elapsed());
        }
    }
    let [(short_n, _), (long_n, _)] = &inputs;
    let [short, long] = best;
    assert!(
        long < short * 20,
        "{what}: {short_n} took {short:?}, {long_n} took {long:?}"
    );
}

/// The analyzer's cost is linear in the length of straight-line code: a
/// `case` with one certain arm binds its names in place, so no statement
/// copies the environment that the statements before it built.
#[test]
fn analysis_cost_is_linear_in_straight_line_code() {
    use cerberus::analysis::analyze;
    use cerberus::pipeline::Session;

    let session = Session::default();
    let inputs = [250, 2_000].map(|n| {
        let body = "x = x + 1; ".repeat(n);
        let source = format!("int main(void) {{ int x = 0; {body}return x; }}");
        let program = session
            .elaborate(&source)
            .expect("straight-line code elaborates");
        (n, program)
    });
    assert_linear("analysing statements", inputs, |program| {
        let report = analyze(program.core(), program.impl_env());
        assert!(
            report.aborted.is_none() && !report.budget_exhausted,
            "the analysis did not complete: {:?}",
            report.aborted
        );
    });
}

/// Validation is linear in a body's declarations: a name lookup is one hash
/// probe, not a scan of every binding in scope.
#[test]
fn validation_cost_is_linear_in_declarations() {
    use cerberus::pipeline::Session;

    let session = Session::default();
    let inputs = [2_500, 20_000].map(|n| {
        let decls: String = (0..n).map(|i| format!("int v{i} = {i}; ")).collect();
        let program = session
            .elaborate(&format!("int main(void) {{ {decls}return 0; }}"))
            .expect("declarations elaborate");
        (n, program)
    });
    assert_linear("validating declarations", inputs, |program| {
        let violations = program.validate();
        assert!(violations.is_empty(), "{violations:?}");
    });
}
