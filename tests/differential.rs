//! Integration test: the §6-style differential validation in miniature — the
//! pipeline must agree with the independent reference evaluator on randomly
//! generated well-defined programs.

use cerberus_gen::{diff_one, generate, run_differential, DiffOutcome, GenConfig};
use cerberus_memory::limits::ResourceLimits;
use cerberus_queue::JobQueue;

#[test]
fn small_generated_programs_agree_with_the_reference_oracle() {
    let limits = ResourceLimits::with_steps(2_000_000);
    let summary = run_differential(&JobQueue::start(2), 20, GenConfig::small(), &limits);
    assert_eq!(summary.total, 20);
    assert_eq!(summary.disagree, 0, "{summary:?}");
    assert_eq!(summary.failed, 0, "{summary:?}");
    assert!(summary.agree >= 19, "{summary:?}");
}

#[test]
fn larger_generated_programs_mostly_agree_with_a_timeout_tail() {
    let limits = ResourceLimits::with_steps(1_000_000);
    let summary = run_differential(&JobQueue::start(2), 8, GenConfig::large(), &limits);
    assert_eq!(summary.total, 8);
    assert_eq!(summary.disagree, 0, "{summary:?}");
    // Like the paper's larger Csmith runs, a (small) timeout tail is allowed.
    assert!(summary.agree + summary.timeout == 8, "{summary:?}");
    assert!(summary.agree >= 5, "{summary:?}");
}

#[test]
fn step_budget_exhaustion_is_reported_as_a_timeout() {
    let program = generate(11, GenConfig::large());
    assert_eq!(diff_one(&program, 10), DiffOutcome::Timeout);
}
