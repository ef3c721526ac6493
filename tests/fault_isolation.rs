//! Fault isolation and resource budgets, end to end.
//!
//! The acceptance bar for the robustness work: a differential run over the
//! *full* litmus catalogue with one deliberately panicking engine injected
//! must complete, report exactly that engine's rows as contained faults, and
//! leave every other row bit-identical to a run without the faulty engine.
//! Separately, the budgets (wall clock, call depth, heap bytes, live
//! allocations, output) must stop runaway programs with structured verdicts
//! under every model instead of hanging or aborting the process, and an
//! execution must fit a default-sized thread whatever its C frames cost in
//! host stack.

use std::time::{Duration, Instant};

use cerberus::pipeline::{Config, Session};
use cerberus::DifferentialRunner;
use cerberus_ast::ub::UbKind;
use cerberus_exec::driver::{ExecMode, ExecResult};
use cerberus_exec::eval::OUTPUT_BYTES;
use cerberus_memory::config::{ModelConfig, ToolProfile};
use cerberus_memory::fault::FAULT_MESSAGE;
use cerberus_memory::limits::{ResourceKind, ResourceLimits, TimeoutKind};

/// The full catalogue under every named model plus an injected
/// always-panicking engine: the run completes, exactly the injected model's
/// rows fault (with its payload), and every healthy row is identical to a
/// run that never saw the faulty engine. Each run has an artifact of its
/// own, so neither answers a row from the other's executions.
#[test]
fn an_injected_fault_is_invisible_to_every_healthy_row_of_the_catalogue() {
    let mut poisoned_models = ModelConfig::all_named();
    poisoned_models.push(ModelConfig::panicking());
    let poisoned = DifferentialRunner::new(poisoned_models);
    let healthy = DifferentialRunner::all_named();

    let session = Session::default();
    for test in cerberus_litmus::catalogue() {
        let elaborate = || {
            session
                .elaborate_uncached(&test.source)
                .unwrap_or_else(|e| {
                    panic!("litmus test {} failed in the front end: {e}", test.name)
                })
        };

        let with_fault = poisoned.run(&elaborate());
        assert_eq!(
            with_fault.faulted_models(),
            vec!["panicking"],
            "{}: exactly the injected model must fault",
            test.name
        );
        match &with_fault.outcome_for("panicking").unwrap().outcomes[0].result {
            ExecResult::EngineFault { model, payload } => {
                assert_eq!(model, "panicking", "{}", test.name);
                assert_eq!(payload, FAULT_MESSAGE, "{}", test.name);
            }
            other => panic!("{}: expected an engine fault, got {other}", test.name),
        }

        let without_fault = healthy.run(&elaborate());
        assert!(!without_fault.any_fault(), "{}", test.name);
        for row in without_fault.rows() {
            assert_eq!(
                with_fault.outcome_for(row.model),
                Some(&row.outcome),
                "{}: row {} changed when a faulty engine joined the matrix",
                test.name,
                row.model
            );
        }
    }
}

/// An unbounded loop is stopped by the wall-clock watchdog — with a step
/// budget far too large to fire first — well within the configured budget.
/// The clock is not part of the program, so such a run is never shared:
/// `concrete` and `de-facto`, which this loop cannot tell apart, each run.
#[test]
fn the_wall_clock_watchdog_stops_an_unbounded_loop() {
    let program = Session::default()
        .elaborate("int main(void) { while (1); return 0; }")
        .unwrap();
    let limits = ResourceLimits::with_steps(u64::MAX).with_wall_clock_ms(200);
    for model in [ModelConfig::concrete(), ModelConfig::de_facto()] {
        let started = Instant::now();
        let outcome = program.execute_bounded(&model, ExecMode::default(), &limits);
        let elapsed = started.elapsed();
        assert!(
            matches!(
                outcome.outcomes[0].result,
                ExecResult::Timeout(TimeoutKind::WallClock)
            ),
            "expected a wall-clock timeout under {}, got {:?}",
            model.name,
            outcome.outcomes[0].result
        );
        // Generous slack over the 200ms budget: the deadline is polled every
        // 4096 steps, so the overshoot is bounded by one polling interval.
        assert!(
            elapsed < Duration::from_secs(10),
            "watchdog took {elapsed:?} to fire on a 200ms budget"
        );
        assert!(outcome.any_budget_exhaustion());
    }
    let stats = program.execution_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 0));
}

/// A faulting row is neither answered from the table nor tabled, and the
/// rows after it run and share as they would without it: `sanitizer`
/// shares `concrete`'s execution, whose semantics it repeats, across the
/// panic between them.
#[test]
fn a_faulting_row_is_never_shared() {
    let dr260 = cerberus_litmus::catalogue()
        .into_iter()
        .find(|test| test.name == "provenance_basic_global_xy")
        .expect("the DR260 fixture exists");
    let session = Session::default();
    let with_fault = session.elaborate_uncached(&dr260.source).unwrap();
    let matrix = DifferentialRunner::new(vec![
        ModelConfig::concrete(),
        ModelConfig::panicking(),
        ModelConfig::de_facto(),
        ModelConfig::tool(ToolProfile::Sanitizer),
    ])
    .run(&with_fault);
    assert_eq!(matrix.faulted_models(), vec!["panicking"]);
    let stats = with_fault.execution_stats();
    // `concrete`, `panicking` and `de-facto` executed; only the sanitizer
    // row was shared, and the panicking row was never tabled.
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 2));

    let healthy = DifferentialRunner::new(vec![
        ModelConfig::concrete(),
        ModelConfig::de_facto(),
        ModelConfig::tool(ToolProfile::Sanitizer),
    ])
    .run(&session.elaborate_uncached(&dr260.source).unwrap());
    for model in ["concrete", "de-facto", "sanitizer"] {
        assert_eq!(
            matrix.outcome_for(model),
            healthy.outcome_for(model),
            "{model}"
        );
    }
    assert_eq!(
        matrix.outcome_for("sanitizer"),
        matrix.outcome_for("concrete")
    );
}

/// Unbounded recursion exhausts the call-depth budget instead of blowing the
/// host stack.
#[test]
fn runaway_recursion_exhausts_the_call_depth_budget() {
    let program = Session::default()
        .elaborate("int f(int n) { return f(n + 1); } int main(void) { return f(0); }")
        .unwrap();
    let limits = ResourceLimits::with_steps(10_000_000).with_call_depth(64);
    let outcome = program.execute_bounded(&ModelConfig::de_facto(), ExecMode::default(), &limits);
    assert!(
        matches!(
            outcome.outcomes[0].result,
            ExecResult::ResourceExhausted(ResourceKind::CallDepth)
        ),
        "expected call-depth exhaustion, got {:?}",
        outcome.outcomes[0].result
    );
}

/// A recursive function with twenty locals: 409 bytes of C whose frames
/// outgrow the per-frame estimate behind `ResourceLimits::host_stack_bytes`.
fn fat_recursion() -> String {
    let locals: String = (0..20).map(|i| format!("int x{i} = n + {i}; ")).collect();
    format!("int f(int n) {{ {locals}return f(n + 1) + 1; }} int main(void) {{ return f(0); }}")
}

const LEAN_RECURSION: &str =
    "int f(int n) { return f(n + 1) + 1; } int main(void) { return f(0); }";

/// A legal recursion 64 C frames deep: deeper than an execution may go on
/// the caller's thread, well within the default call-depth budget.
const DEEP_RECURSION: &str = "int f(int n) { int a = n; int b = a - 1; if (a == 0) return 0; \
                              return f(b) + 1; } int main(void) { return f(63); }";

const CALL_DEPTH_EXHAUSTED: ExecResult = ExecResult::ResourceExhausted(ResourceKind::CallDepth);

fn run(source: &str, model: &ModelConfig, limits: &ResourceLimits) -> ExecResult {
    let program = Session::default().elaborate(source).unwrap();
    let outcome = program.execute_bounded(model, ExecMode::default(), limits);
    outcome.outcomes[0].result.clone()
}

fn on_a_default_sized_thread<T: Send>(work: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(scope, work)
            .unwrap()
            .join()
            .unwrap()
    })
}

/// Runaway recursion at the default budget stops with the call-depth
/// budget under both placements, even when its frames are larger than the
/// budget's per-frame estimate and even in an unoptimised build, instead of
/// overflowing the host stack and aborting the process.
#[test]
fn runaway_recursion_at_the_default_budget_exhausts_the_call_depth_budget() {
    let fat = fat_recursion();
    assert_eq!(fat.len(), 409);
    for source in [LEAN_RECURSION, &fat] {
        for model in [ModelConfig::de_facto(), ModelConfig::symbolic()] {
            assert_eq!(
                run(source, &model, &ResourceLimits::default()),
                CALL_DEPTH_EXHAUSTED,
                "{} on {source}",
                model.name
            );
        }
    }
}

/// Executions fit a default-sized Rust thread: shallow programs run there,
/// and runaway recursion ends in a structured result.
#[test]
fn executions_fit_a_default_sized_thread() {
    let fat = fat_recursion();
    let results = on_a_default_sized_thread(|| {
        [
            "int main(void) { int x = 40; return x + 2; }",
            LEAN_RECURSION,
            &fat,
        ]
        .map(|source| run(source, &ModelConfig::de_facto(), &ResourceLimits::default()))
    });
    assert_eq!(
        results,
        [
            ExecResult::Return(42),
            CALL_DEPTH_EXHAUSTED,
            CALL_DEPTH_EXHAUSTED
        ]
    );
}

/// A legal recursion deeper than the caller's thread hosts completes under
/// every named model, both on the test thread and on a default-sized one,
/// and its rows still share: the ten models execute once, with its rerun on
/// a larger stack.
#[test]
fn a_legal_deep_recursion_completes_under_every_model() {
    let program = Session::default().elaborate(DEEP_RECURSION).unwrap();
    let runner = DifferentialRunner::all_named();
    for matrix in [
        runner.run(&program),
        on_a_default_sized_thread(|| runner.run(&program)),
    ] {
        assert_eq!(matrix.rows().len(), ModelConfig::all_named().len());
        for row in matrix.rows() {
            assert_eq!(
                row.outcome.outcomes[0].result,
                ExecResult::Return(63),
                "{}",
                row.model
            );
        }
    }
    // The first matrix executed one row, `concrete`, and shared nine: every
    // access stays within its provenance's bounds, so no row reads `cheri`,
    // and no address is observed, so none reads the placement. The second
    // found all ten rows tabled.
    let stats = program.execution_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (19, 1, 1));
}

/// An access whose end would pass 2^64 is out of bounds under every model,
/// not an engine panic: a load at the top of the address space, a `memcpy`
/// and a `memset` of `(unsigned long)-1` bytes. `block` forgets the
/// provenance of the integer the first pointer is cast from.
#[test]
fn an_access_that_wraps_the_address_space_is_undefined_under_every_model() {
    let cases = [
        "int main(void) { long x = 5; unsigned long a = (unsigned long)&x; \
         long *p = (long *)(a + (0UL - a - 4UL)); return (int)*p; }",
        "#include <string.h>\n\
         int main(void) { char a[4] = {1, 2, 3, 4}; char b[4]; \
         memcpy(b, a, (unsigned long)-1); return 0; }",
        "#include <string.h>\n\
         int main(void) { char b[4]; memset(b + 2, 0, (unsigned long)-1); return 0; }",
    ];
    let session = Session::default();
    for (case, source) in cases.iter().enumerate() {
        let matrix = DifferentialRunner::all_named().run(&session.elaborate(source).unwrap());
        for row in matrix.rows() {
            let expected = if case == 0 && row.model == "block" {
                UbKind::AccessWithoutProvenance
            } else {
                UbKind::OutOfBoundsAccess
            };
            let result = &row.outcome.outcomes[0].result;
            assert_eq!(
                result.ub_kind(),
                Some(expected),
                "{} under {source}: {result}",
                row.model
            );
        }
    }
}

/// Runs `source` under every named model and checks that each row returns 1.
fn returns_one_under_every_model(source: &str) {
    let program = Session::default().elaborate(source).unwrap();
    let matrix = DifferentialRunner::all_named().run(&program);
    assert_eq!(matrix.rows().len(), ModelConfig::all_named().len());
    for row in matrix.rows() {
        assert_eq!(
            row.outcome.outcomes[0].result,
            ExecResult::Return(1),
            "{}",
            row.model
        );
    }
}

/// A member pointer computed from an address near the top of the address
/// space wraps, as pointer arithmetic does, under every model: the layout
/// code the models share neither overflows nor faults.
#[test]
fn a_member_address_past_the_top_of_the_address_space_wraps_under_every_model() {
    returns_one_under_every_model(
        "struct S { int a; int b; }; \
         int main(void) { struct S *p = (struct S *)(0UL - 2UL); int *q = &p->b; \
         return q != 0; }",
    );
}

/// An element pointer stepped past the top of the address space wraps too:
/// a step of 2^64 - 1 elements of 2^64 - 1 bytes neither overflows nor
/// faults under any model.
#[test]
fn an_element_address_past_the_top_of_the_address_space_wraps_under_every_model() {
    returns_one_under_every_model(
        "int main(void) { char (*p)[0xffffffffffffffffUL] = 0; \
         p = p + 0xffffffffffffffffUL; return p != 0; }",
    );
}

/// A rerun on a larger stack joins what it consulted to what the run on the
/// caller's thread did. Here only the rerun reaches the uninitialised read,
/// 20 frames down, so `strict-iso` must not share `concrete`'s run.
#[test]
fn a_field_only_the_rerun_consults_splits_the_rows() {
    let program = Session::default()
        .elaborate(
            "int f(int n) { int x; if (n == 0) return x; return f(n - 1); } \
             int main(void) { f(20); return 0; }",
        )
        .unwrap();
    let matrix = DifferentialRunner::all_named().run(&program);
    assert_eq!(
        matrix.outcome_for("concrete").unwrap().outcomes[0].result,
        ExecResult::Return(0)
    );
    assert_eq!(
        matrix.outcome_for("strict-iso").unwrap().outcomes[0]
            .result
            .ub_kind(),
        Some(UbKind::IndeterminateValueUse)
    );
}

/// A call depth of 0 lets `main` run and stops its first call.
#[test]
fn a_zero_call_depth_runs_main_but_no_call() {
    let limits = ResourceLimits::default().with_call_depth(0);
    let de_facto = ModelConfig::de_facto();
    assert_eq!(
        run(
            "int main(void) { int x = 1; return x + 1; }",
            &de_facto,
            &limits
        ),
        ExecResult::Return(2)
    );
    assert_eq!(
        run(
            "int g(void) { return 1; } int main(void) { return g(); }",
            &de_facto,
            &limits
        ),
        CALL_DEPTH_EXHAUSTED
    );
}

/// The allocation and output budgets stop every named model, the symbolic
/// engine included: a heap program, a leak loop and a `printf` flood each end
/// in resource exhaustion of the matching kind, and the flood's row keeps the
/// output printed before the call that would have crossed the budget.
#[test]
fn allocation_and_output_budgets_stop_every_model() {
    let limits = ResourceLimits::with_steps(10_000_000)
        .with_heap_bytes(1 << 10)
        .with_max_live_allocations(16);
    let cases = [
        (
            "#include <stdlib.h>\n\
             int main(void) { for (int i = 0; i < 100; i++) malloc(400); return 0; }",
            ResourceKind::HeapBytes,
        ),
        (
            "#include <stdlib.h>\n\
             int main(void) { while (1) { void *p = malloc(1); if (!p) return 1; } return 0; }",
            ResourceKind::LiveAllocations,
        ),
        (
            "#include <stdio.h>\n\
             int main(void) { while (1) printf(\"flood\\n\"); return 0; }",
            ResourceKind::Output,
        ),
    ];
    let session = Session::default();
    for (source, kind) in cases {
        let program = session.elaborate(source).unwrap();
        for model in ModelConfig::all_named() {
            let outcome = &program
                .execute_bounded(&model, ExecMode::default(), &limits)
                .outcomes[0];
            assert_eq!(
                outcome.result,
                ExecResult::ResourceExhausted(kind),
                "{} under {source}",
                model.name
            );
            let printed = if kind == ResourceKind::Output {
                OUTPUT_BYTES / 6 * 6
            } else {
                0
            };
            assert_eq!(outcome.stdout.len(), printed, "{}", model.name);
        }
    }
}

/// Program length costs no host stack. On a thread the size of a service
/// handler's, a `main` of 20,000 statements and one of 20,000 declarations
/// are elaborated, analyzed, run under both placements and freed. A function
/// of 200 statements recursing 100 deep stays within the default budget.
#[test]
fn long_programs_run_on_a_default_sized_thread() {
    let statements = format!(
        "int main(void) {{ int x = 0; {}return x; }}",
        "x = x + 1; ".repeat(20_000)
    );
    let declarations: String = (0..20_000).map(|n| format!("int v{n} = {n}; ")).collect();
    let declarations = format!("int main(void) {{ {declarations}return 0; }}");
    on_a_default_sized_thread(|| {
        for (source, expected) in [(&statements, 20_000), (&declarations, 0)] {
            let session = Session::default();
            let program = session.elaborate(source).unwrap();
            let report = session.analyze(source).unwrap();
            assert_eq!(report.aborted, None);
            for model in [ModelConfig::de_facto(), ModelConfig::symbolic()] {
                assert_eq!(
                    program.run_under(&model).outcomes[0].result,
                    ExecResult::Return(expected),
                    "{}",
                    model.name
                );
            }
        }
    });
    let increments = "x = x + 1; ".repeat(197);
    let recursion = format!(
        "int f(int n) {{ int x = 0; {increments}if (n > 0) return f(n - 1); return x; }} \
         int main(void) {{ return f(100); }}"
    );
    let session = Session::new(Config::default());
    assert_eq!(
        session.run_source(&recursion).unwrap().outcomes[0].result,
        ExecResult::Return(197)
    );
}
