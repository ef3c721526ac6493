//! Integration tests: realistic C programs run end-to-end through the whole
//! pipeline (parser → Ail → Core → evaluator → memory model).

use std::collections::BTreeSet;

use cerberus::analysis::{AnalysisConfig, FindingSeverity};
use cerberus::pipeline::{run, run_with_model, Config, Session};
use cerberus_ast::ub::UbKind;
use cerberus_exec::driver::ExecResult;
use cerberus_memory::config::ModelConfig;

fn exit_of(src: &str) -> i128 {
    let out = run(src).expect("program is well-formed");
    match &out.outcomes[0].result {
        ExecResult::Return(v) | ExecResult::Exit(v) => *v,
        other => panic!(
            "expected normal termination, got {other} ({:?})",
            out.outcomes[0]
        ),
    }
}

fn stdout_of(src: &str) -> String {
    run(src).expect("program is well-formed").outcomes[0]
        .stdout
        .clone()
}

#[test]
fn insertion_sort_over_an_array() {
    let src = r#"
        int main(void) {
            int a[8] = {7, 3, 5, 1, 8, 2, 6, 4};
            for (int i = 1; i < 8; i++) {
                int key = a[i];
                int j = i - 1;
                while (j >= 0 && a[j] > key) { a[j + 1] = a[j]; j--; }
                a[j + 1] = key;
            }
            int sorted = 1;
            for (int i = 1; i < 8; i++) if (a[i - 1] > a[i]) sorted = 0;
            return sorted * 100 + a[0] * 10 + a[7];
        }
    "#;
    assert_eq!(exit_of(src), 118);
}

#[test]
fn linked_list_with_malloc() {
    let src = r#"
        #include <stdlib.h>
        struct node { int value; struct node *next; };
        int main(void) {
            struct node *head = 0;
            for (int i = 1; i <= 5; i++) {
                struct node *n = malloc(sizeof(struct node));
                n->value = i;
                n->next = head;
                head = n;
            }
            int sum = 0;
            struct node *cur = head;
            while (cur) { sum += cur->value; cur = cur->next; }
            while (head) { struct node *next = head->next; free(head); head = next; }
            return sum;
        }
    "#;
    assert_eq!(exit_of(src), 15);
}

#[test]
fn string_manipulation_with_the_builtin_library() {
    let src = r#"
        #include <string.h>
        #include <stdio.h>
        int main(void) {
            char buf[16];
            strcpy(buf, "hello");
            buf[0] = 'H';
            printf("%s %d\n", buf, (int)strlen(buf));
            return strcmp(buf, "Hello") == 0;
        }
    "#;
    let out = run(src).unwrap();
    assert_eq!(out.outcomes[0].stdout, "Hello 5\n");
    assert!(matches!(out.outcomes[0].result, ExecResult::Return(1)));
}

#[test]
fn matrix_multiplication_with_nested_loops() {
    // 3×3 matrices kept in flattened arrays; a[i][k] = 3i+k, b[k][j] = k%3…
    // giving column j of b equal to [j, j, j], so c[i][j] = j·(9i+3) and the
    // total is (3+12+21)·(0+1+2) = 108.
    let flat = r#"
        int main(void) {
            int a[9], b[9], c[9];
            for (int i = 0; i < 9; i++) { a[i] = i; b[i] = i % 3; c[i] = 0; }
            for (int i = 0; i < 3; i++)
                for (int j = 0; j < 3; j++)
                    for (int k = 0; k < 3; k++)
                        c[i * 3 + j] += a[i * 3 + k] * b[k * 3 + j];
            int sum = 0;
            for (int i = 0; i < 9; i++) sum += c[i];
            return sum;
        }
    "#;
    assert_eq!(exit_of(flat), 108);
}

#[test]
fn function_pointer_dispatch_table() {
    let src = r#"
        int add(int a, int b) { return a + b; }
        int sub(int a, int b) { return a - b; }
        int mul(int a, int b) { return a * b; }
        int apply(int (*op)(int, int), int a, int b) { return op(a, b); }
        int main(void) {
            int (*table[3])(int, int);
            table[0] = add; table[1] = sub; table[2] = mul;
            int acc = 0;
            for (int i = 0; i < 3; i++) acc += apply(table[i], 10, 3);
            return acc;
        }
    "#;
    assert_eq!(exit_of(src), 13 + 7 + 30);
}

#[test]
fn recursive_struct_algorithms() {
    let src = r#"
        struct pair { int lo; int hi; };
        struct pair minmax(int *a, int n) {
            struct pair p;
            p.lo = a[0]; p.hi = a[0];
            for (int i = 1; i < n; i++) {
                if (a[i] < p.lo) p.lo = a[i];
                if (a[i] > p.hi) p.hi = a[i];
            }
            return p;
        }
        int main(void) {
            int xs[6] = {4, -2, 9, 0, 7, 3};
            struct pair p = minmax(xs, 6);
            return p.hi * 10 + (p.lo + 2);
        }
    "#;
    assert_eq!(exit_of(src), 90);
}

#[test]
fn printf_formats_and_loops() {
    let src = r#"
        #include <stdio.h>
        int main(void) {
            unsigned long total = 0ul;
            for (int i = 1; i <= 5; i++) { total += (unsigned long)i * i; }
            printf("sum of squares = %lu, hex %x, char %c\n", total, 255, 'A');
            return 0;
        }
    "#;
    assert_eq!(stdout_of(src), "sum of squares = 55, hex ff, char A\n");
}

#[test]
fn the_same_program_can_be_checked_under_every_model() {
    let cases = [
        (
            "int main(void) { int x = 3; int *p = &x; return *p + 39; }",
            42,
        ),
        // Integer `>`/`>=`, pointer `>=`, `return;` in a `void` function and a
        // `(void)` cast, which no fixture exercises.
        (
            "static int hits; void bump(void) { hits++; return; } \
             int main(void) { int a = 5, b = 3; int arr[4]; int *p = &arr[2]; \
             int *q = &arr[1]; bump(); (void)a; \
             return 10*(a > b) + 10*(a >= 5) + 10*(p >= q) + 10*(q >= p) + 11*hits + (b > a); }",
            41,
        ),
    ];
    for (src, expected) in cases.into_iter().chain(JUMPS) {
        for model in ModelConfig::all_named() {
            let out = run_with_model(src, model.clone()).unwrap();
            assert_eq!(
                out.outcomes[0].result,
                ExecResult::Return(expected),
                "model {}: {src}",
                model.name
            );
        }
    }
}

#[test]
fn a_deterministic_program_has_one_behaviour_at_every_bound() {
    let src = "int sq(int x) { return x * x; } int main(void) { int acc = 0; for (int i = 0; i < 5; i++) acc += sq(i); return acc; }";
    let first = Session::new(Config::default()).run_source(src).unwrap();
    assert_eq!(first.outcomes.len(), 1);
    for bound in [0, 32] {
        let searched = Session::new(Config::default().exhaustive(bound))
            .run_source(src)
            .unwrap();
        assert_eq!(searched.outcomes, first.outcomes, "bound {bound}");
    }
    // Thousands of choice points on one path: the search keeps at most one
    // prefix per execution it may run, not one per choice point.
    let src = "int main(void) { unsigned s = 0; \
               for (unsigned i = 0; i < 4000u; i++) s = s + i * 3u; return (int)(s % 128u); }";
    let searched = Session::new(Config::default().exhaustive(2))
        .run_source(src)
        .unwrap();
    assert_eq!(searched.outcomes.len(), 1, "{:?}", searched.outcomes);
}

/// Both analyzer contracts on one program: every UB kind a named model
/// reports at the default bound is in the static report (soundness), and
/// every Must kind is realised by some model (precision).
fn assert_report_agrees_with_every_model(session: &Session, src: &str) {
    let report = session.analyze(src).unwrap();
    let mut dynamic = BTreeSet::new();
    for model in ModelConfig::all_named() {
        let out = run_with_model(src, model.clone()).unwrap();
        for ub in out.outcomes.iter().filter_map(|o| o.result.ub_kind()) {
            assert!(
                report.ub_kinds().contains(&ub),
                "{src}: {} reports {ub}, the static report does not",
                model.name
            );
            dynamic.insert(ub);
        }
    }
    for finding in &report.findings {
        if finding.severity == FindingSeverity::Must {
            assert!(
                dynamic.contains(&finding.ub),
                "{src}: Must {} is realised by no model",
                finding.ub
            );
        }
    }
}

/// The static report and the default verdicts agree on evaluation order:
/// both walk unsequenced siblings left to right. Every UB kind a model
/// reports is in the static report, and every Must kind is realised by some
/// model. The search finds both orders' behaviours.
#[test]
fn the_default_verdict_agrees_with_the_static_report() {
    let prelude = "int y = 3; int *p = &y; \
                   int f(void) { p = 0; return 0; } int g(void) { return *p; }";
    let session = Session::default();
    for body in ["f() + g()", "g() + f()"] {
        let src = format!("{prelude} int main(void) {{ return {body}; }}");
        assert_report_agrees_with_every_model(&session, &src);
        let searched = Session::new(Config::default().exhaustive(8))
            .run_source(&src)
            .unwrap();
        let results: Vec<&ExecResult> = searched.outcomes.iter().map(|o| &o.result).collect();
        assert!(
            results.contains(&&ExecResult::Return(3))
                && results
                    .iter()
                    .any(|r| r.ub_kind() == Some(UbKind::NullPointerDeref)),
            "{body}: {results:?}"
        );
    }
}

/// Programs that jump with `goto` and `switch`, and the value gcc -O0 makes
/// each return (checked under every model above).
const JUMPS: [(&str, i128); 14] = [
    (
        "int main(void) { int i = 0; { L: i++; } if (i < 3) goto L; return i; }",
        3,
    ),
    (
        "int main(void) { int i = 0; if (1) { L: i++; } if (i < 3) goto L; return i + 10; }",
        13,
    ),
    (
        "int main(void) { int i = 0; L: i++; if (i < 3) goto L; return i; }",
        3,
    ),
    (
        "int main(void) { int x = 0; goto done; x = 100; done: return x + 1; }",
        1,
    ),
    (
        "int main(void) { int n = 0; for (int i = 0; i < 10; i++) { if (i == 4) goto out; \
         n += i; } out: return n; }",
        6,
    ),
    (
        "int main(void) { int n = 0; goto inside; while (n < 5) { inside: n += 2; } return n; }",
        6,
    ),
    (
        "int main(void) { int n = 7, c = 0; switch (n % 4) { case 0: do { c++; case 3: c++; \
         case 2: c++; case 1: c++; } while ((n -= 4) > 0); } return c; }",
        7,
    ),
    (
        "int main(void) { int acc = 0; for (int i = 0; i < 6; i++) { switch (i % 3) { \
         case 0: acc += 1; break; case 1: acc += 10; continue; default: acc += 100; } \
         acc += 1000; } return acc % 256; }",
        126,
    ),
    (
        "int f(int x) { int r = 0; again: r++; if (r < x) { goto again; } return r; } \
         int main(void) { return f(5) + f(1); }",
        6,
    ),
    (
        "int main(void) { int i = 0, s = 0; top: { if (i >= 4) goto end; s += i; i++; } \
         goto top; end: return s; }",
        6,
    ),
    (
        "int main(void) { int s = 0; int i = 0; { goto mid; s = 50; { mid: s += 1; } } \
         s += 2; return s; }",
        3,
    ),
    (
        "int main(void) { int *p = 0; goto skip; *p = 1; skip: return 0; }",
        0,
    ),
    (
        "int g(int k) { int i = 0; int s = 0; top: { s += i; i++; } if (i < k) goto top; \
         return s; } int main(void) { return g(3); }",
        3,
    ),
    (
        "int main(void) { int acc = 0; for (int i = 0; i < 4; i++) { switch (i) { \
         case 0: acc += 1; case 1: acc += 2; break; case 3: goto done; default: acc += 4; } } \
         done: return acc; }",
        9,
    ),
];

/// Programs whose jumps reach undefined behaviour, some of it only on a
/// second pass through a label, some only through a jump the analyzer
/// takes under a branch it cannot decide (the `for` loops and the last two
/// label loops outlast its loop bound).
const JUMPS_TO_UB: [&str; 11] = [
    "int f(int x) { int a[2] = {1, 2}; switch (x) { case 0: return a[5]; case 1: return 1; \
     default: return 0; } } int main(void) { return f(0); }",
    "int main(void) { int n = 0; int *p = 0; { L: if (n == 1) *p = 1; n++; } \
     if (n < 2) goto L; return 0; }",
    "int main(void) { int n = 0; int x; { L: n++; } if (n < 2) goto L; return x; }",
    "int main(void) { int i = 0; int a[3] = {0, 0, 0}; { again: a[i] = i; i++; } \
     if (i <= 3) goto again; return a[0]; }",
    "int h(int v) { switch (v) { case 1: { int *q = 0; return *q; } default: break; } \
     return 7; } int main(void) { return h(2) + h(1); }",
    "int main(void) { int a = 0; { int k = 1; { M: a += k; } } if (a < 5) goto M; return a; }",
    "int main(void) { int x; for (int i = 0; i < 10; i++) { if (i == 9) x = 0; } \
     switch (x) { case 0: { int *p = 0; return *p; } } return 1; }",
    "int main(void) { int x = 0; for (int i = 0; i < 10; i++) x += i; int *p = 0; \
     switch (x) { case 1: return 0; default: *p = 1; } return 0; }",
    "int main(void) { int n = 0; int *p = 0; for (int i = 0; i < 5; i++) n += i; \
     if (n) { goto L; n = 1; L: *p = 1; } return 0; }",
    "int main(void) { int n = 0; { L: n++; } if (n < 5) goto L; int *p = 0; return *p; }",
    "int main(void) { int k = 0, n = 0; int *p = 0; for (int i = 0; i < 5; i++) k += i; \
     { again: n++; } if (k) goto out; if (n < 5) goto again; return 0; out: return *p; }",
];

#[test]
fn the_static_report_agrees_with_every_model_on_goto_and_switch() {
    let session = Session::default();
    for src in JUMPS.iter().map(|(src, _)| *src).chain(JUMPS_TO_UB) {
        assert_report_agrees_with_every_model(&session, src);
    }
}

/// The flow baseline reports every kind the path-sensitive analysis does on
/// the programs above and on a `switch` over a parameter, whose value the
/// standalone analysis of its function cannot know.
#[test]
fn the_flow_baseline_covers_the_path_report_on_goto_and_switch() {
    let over_a_parameter = "int f(int x) { int *p = 0; switch (x) { case 0: return *p; } \
                            return 0; } int main(void) { return f(1); }";
    let session = Session::default();
    let flow_of = |src| {
        session
            .analyze_with(src, AnalysisConfig::default().flow_baseline())
            .unwrap()
    };
    let jumps = JUMPS.iter().map(|(src, _)| *src).chain(JUMPS_TO_UB);
    for src in jumps.chain([over_a_parameter]) {
        let path = session.analyze(src).unwrap();
        let flow = flow_of(src);
        assert!(!path.budget_exhausted && !flow.budget_exhausted, "{src}");
        let missing: Vec<_> = path
            .ub_kinds()
            .difference(&flow.ub_kinds())
            .copied()
            .collect();
        assert!(
            missing.is_empty(),
            "{src}: the flow baseline misses {missing:?}"
        );
    }
    assert!(flow_of(over_a_parameter)
        .ub_kinds()
        .contains(&UbKind::NullPointerDeref));
}

/// A `goto` from one arm of an `if` into its sibling skips the sibling's
/// declarations, so the analyzer must not see the bindings that the sibling
/// made when it ran as an arm of its own. In the first program the load of
/// `y` goes through an unbound name, which reads as an unknown pointer; in
/// the second, `y`'s slot is never created on the jumping path.
#[test]
fn a_branch_arm_never_sees_its_siblings_bindings() {
    let session = Session::default();
    let unbound = session
        .analyze("int g; int main(void) { if (g) { int y = 1; L: return y; } else { goto L; } }")
        .unwrap();
    for ub in [
        UbKind::OutOfBoundsAccess,
        UbKind::NullPointerDeref,
        UbKind::AccessWithoutProvenance,
    ] {
        let finding = unbound.findings.iter().find(|f| f.ub == ub);
        assert!(
            finding.is_some_and(|f| f.severity == FindingSeverity::May
                && f.proc == "main"
                && f.detail.starts_with("load through")),
            "no May {ub} on the load of `y`: {unbound:#?}"
        );
    }
    let clean = session
        .analyze(
            "int g; int main(void) { int r = 0; if (g) { int y = 1; r = y; L: r = r + 1; } \
             else { goto L; } return r; }",
        )
        .unwrap();
    assert!(
        clean.aborted.is_none() && clean.findings.is_empty(),
        "{clean:#?}"
    );
}

/// Each procedure's standalone analysis mints its own base-address symbols,
/// so a witness names the allocations of the procedure it was found in.
#[test]
fn a_witness_names_its_own_procedures_allocations() {
    let src = "int f(int a, int b) { int *p = &a + 1; if (p == &b) return *p; return 0; } \
               int g(int c, int d) { int *q = &c + 1; if (q == &d) return *q; return 0; } \
               int main(void) { return f(1, 2) + g(3, 4); }";
    let report = Session::default().analyze(src).unwrap();
    let residual = |proc: &str| {
        let finding = report
            .findings
            .iter()
            .find(|f| f.proc == proc && f.ub == UbKind::OutOfBoundsAccess)
            .unwrap_or_else(|| panic!("no Out_of_bounds_access in {proc}: {report:#?}"));
        finding.witness.to_string()
    };
    for (proc, own, other) in [("f", ["a", "b"], ["c", "d"]), ("g", ["c", "d"], ["a", "b"])] {
        let witness = residual(proc);
        for name in own {
            assert!(
                witness.contains(&format!("base({name}")),
                "{proc}: {witness}"
            );
        }
        for name in other {
            assert!(
                !witness.contains(&format!("base({name}")),
                "{proc}: {witness}"
            );
        }
    }
}

#[test]
fn ilp32_environment_changes_long_width() {
    let src = "int main(void) { return (int)sizeof(long); }";
    let config = Config {
        impl_env: cerberus_ast::env::ImplEnv::ilp32(),
        ..Config::default()
    };
    let out = Session::new(config).run_source(src).unwrap();
    assert!(matches!(out.outcomes[0].result, ExecResult::Return(4)));
    assert_eq!(exit_of(src), 8, "LP64 default");
}
