//! End-to-end drill of `reproduce --json`: run the built binary on the quick
//! corpus under two models and check the JSON report it prints, queue
//! statistics included.

use std::process::Command;

use cerberus_wire::json::Json;

fn int(document: &Json, member: &str) -> i128 {
    document
        .get(member)
        .and_then(Json::as_int)
        .unwrap_or_else(|| panic!("integer member {member:?} in {document:?}"))
}

#[test]
fn reproduce_json_reports_every_experiment_and_the_queue_counters() {
    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--quick", "--json", "--models", "concrete,symbolic"])
        .output()
        .expect("reproduce --json runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let report = Json::parse(stdout.trim()).expect("stdout is one JSON document");

    // E11/E17: the whole catalogue, as expected under both models.
    let litmus = report
        .get("e11_e17_litmus")
        .and_then(Json::as_array)
        .expect("e11_e17_litmus array");
    let models: Vec<_> = litmus
        .iter()
        .map(|summary| summary.get("model").and_then(Json::as_str))
        .collect();
    assert_eq!(models, [Some("concrete"), Some("symbolic")]);
    for summary in litmus {
        for member in ["as_expected", "with_expectation", "total"] {
            assert_eq!(int(summary, member), 96, "{member} in {summary:?}");
        }
        assert_eq!(int(summary, "faulted"), 0, "{summary:?}");
        assert_eq!(
            summary.get("skipped_expectations").and_then(Json::as_array),
            Some(&[][..]),
            "{summary:?}"
        );
    }

    // E15/E16: the quick fuzz batches agree with the reference evaluator.
    for (experiment, total) in [("e15_small", 25), ("e16_large", 5)] {
        let summary = report.get(experiment).expect(experiment);
        assert_eq!(int(summary, "total"), total, "{summary:?}");
        for member in ["disagree", "failed", "faulted"] {
            assert_eq!(int(summary, member), 0, "{member} in {summary:?}");
        }
    }

    // Every queued job (96 two-model suite jobs + 25 + 5 fuzz jobs) ran once.
    let queue = report.get("queue").expect("queue statistics");
    assert_eq!(int(queue, "submitted"), 126, "{queue:?}");
    assert_eq!(int(queue, "completed"), 126, "{queue:?}");
    assert_eq!(int(queue, "depth"), 0, "{queue:?}");
    let workers = queue
        .get("workers")
        .and_then(Json::as_array)
        .expect("workers array");
    assert!(!workers.is_empty());
    let executed: i128 = workers.iter().map(|worker| int(worker, "executed")).sum();
    assert_eq!(executed, 126, "{queue:?}");
    for worker in workers {
        assert!(worker.get("stolen").is_none(), "{worker:?}");
    }
    // Every cache reports in the one shape.
    for cache in ["elaboration_cache", "analysis_cache", "solver_memo"] {
        let Some(Json::Obj(members)) = queue.get(cache) else {
            panic!("{cache} is not an object in {queue:?}");
        };
        let names: Vec<_> = members.keys().map(String::as_str).collect();
        assert_eq!(names, ["entries", "hits", "misses"], "{cache} in {queue:?}");
    }
}
