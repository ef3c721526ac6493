//! A program-level job queue for differential UB exploration.
//!
//! The differential runner executes the rows of *one* outcome matrix on the
//! calling thread; real workloads — the litmus catalogue, `cerberus-gen` fuzz
//! corpora, HTTP submissions from many users — are many *(program ×
//! model-set)* pairs. This crate is the one place work runs concurrently: it
//! turns each pair into a [`Job`] and runs whole suites on a pool of worker
//! threads that take jobs from one FIFO in submission order
//! ([`JobQueue::start`]):
//!
//! * **one elaboration per source** — workers share one memoising
//!   [`Session`], so every model row (and every re-submission) of a source
//!   reuses the same `Arc`-shared `Elaborated` artifact, whose table of
//!   runs answers a repeated row without executing it;
//! * **fault containment and resource budgets per job** — every row executes
//!   under the job's [`ResourceLimits`] with engine panics contained to
//!   [`ExecResult::EngineFault`](cerberus_exec::driver::ExecResult) rows and
//!   front-end panics contained to [`JobOutcome::FrontendFault`], so a
//!   hostile submission can never take down the pool;
//! * **deterministic results** — outcomes are recorded per [`JobId`], so a
//!   batch read back in submission order is bit-identical to running the
//!   jobs sequentially, whichever workers ran them.
//!
//! ```
//! use cerberus_queue::{Job, JobQueue};
//!
//! let queue = JobQueue::start(2);
//! let id = queue
//!     .submit(Job::differential("int main(void) { return 42; }"))
//!     .expect("the queue is running");
//! let matrix = queue.wait(id).into_matrix().expect("well-formed program");
//! assert!(matrix.all_agree());
//! queue.shutdown();
//! ```
//!
//! The HTTP service in `cerberus-server` exposes this queue over versioned
//! routes; `cerberus-litmus` (`run_suite`, one multi-model job per test) and
//! `cerberus-gen` (`run_differential`, one job per seed) run their corpora
//! only through it.

use cerberus::pipeline::{CacheStats, Config, Session};
use cerberus::{DifferentialRunner, OutcomeMatrix, PipelineError};
use cerberus_memory::config::ModelConfig;
use cerberus_memory::limits::ResourceLimits;

mod pool;

pub use pool::JobQueue;

/// Identifier of a submitted job, unique within one [`JobQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One unit of work: run one C program under a set of memory models with a
/// per-execution resource budget. Every row runs at the default bound of one
/// execution, like [`DifferentialRunner::new`].
#[derive(Debug, Clone)]
pub struct Job {
    /// The C source to run.
    pub source: String,
    /// The memory models to execute under (one matrix row each).
    pub models: Vec<ModelConfig>,
    /// The per-execution resource budget for every row.
    pub limits: ResourceLimits,
}

impl Job {
    /// A job over the given models, with the resource budget of
    /// [`Config::default`] — the same parameters [`DifferentialRunner::new`]
    /// and the single-program helpers use, so a queued row is bit-identical
    /// to running the program directly.
    pub fn new(source: impl Into<String>, models: Vec<ModelConfig>) -> Self {
        Job {
            source: source.into(),
            models,
            limits: Config::default().limits,
        }
    }

    /// A job over every named model ([`ModelConfig::all_named`]).
    pub fn differential(source: impl Into<String>) -> Self {
        Job::new(source, ModelConfig::all_named())
    }

    /// Replace the per-execution resource budget.
    pub fn with_limits(mut self, limits: ResourceLimits) -> Self {
        self.limits = limits;
        self
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// Picked up by a worker and executing.
    Running,
    /// Finished with an outcome matrix ([`JobOutcome::Matrix`]).
    Completed,
    /// Finished without a matrix: the front end rejected the program
    /// ([`JobOutcome::Rejected`]) or panicked ([`JobOutcome::FrontendFault`]).
    Failed,
}

impl JobStatus {
    /// Whether the job has finished (successfully or not).
    pub fn is_finished(self) -> bool {
        matches!(self, JobStatus::Completed | JobStatus::Failed)
    }

    /// The lowercase wire label used by the HTTP service.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
        }
    }
}

/// The result of a finished job.
///
/// Program-level verdicts — undefined behaviour, budget exhaustion, even
/// contained *engine* panics — all live inside the
/// [`OutcomeMatrix`] rows of the `Matrix` variant; the other variants are
/// reserved for programs that never reached execution.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The program elaborated and every model row executed (row outcomes may
    /// still be UB verdicts, timeouts, or contained engine faults).
    Matrix(OutcomeMatrix),
    /// The front end rejected the program with structured diagnostics.
    Rejected(PipelineError),
    /// The front end panicked (a pipeline defect, not a program verdict);
    /// the panic was contained and its payload captured.
    FrontendFault(String),
}

impl JobOutcome {
    /// The status this outcome implies.
    pub fn status(&self) -> JobStatus {
        match self {
            JobOutcome::Matrix(_) => JobStatus::Completed,
            JobOutcome::Rejected(_) | JobOutcome::FrontendFault(_) => JobStatus::Failed,
        }
    }

    /// The outcome matrix, if the job completed.
    pub fn into_matrix(self) -> Option<OutcomeMatrix> {
        match self {
            JobOutcome::Matrix(matrix) => Some(matrix),
            _ => None,
        }
    }

    /// The outcome matrix, if the job completed (by reference).
    pub fn matrix(&self) -> Option<&OutcomeMatrix> {
        match self {
            JobOutcome::Matrix(matrix) => Some(matrix),
            _ => None,
        }
    }
}

/// Activity counters of one pool worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker finished.
    pub executed: u64,
}

/// The error [`JobQueue::submit`] returns once the queue has been shut down:
/// the job was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueClosed;

impl std::fmt::Display for QueueClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the job queue has been shut down")
    }
}

impl std::error::Error for QueueClosed {}

/// A point-in-time snapshot of the queue, exposed over `GET /api/v0/stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs queued and not yet picked up by a worker.
    pub depth: usize,
    /// Jobs ever submitted.
    pub submitted: u64,
    /// Jobs ever finished (completed or failed).
    pub completed: u64,
    /// The shared session's (source → artifact) elaboration memo.
    pub elaboration_cache: CacheStats,
    /// The shared session's (source → report) analysis memo, which answers
    /// the service's acknowledgements.
    pub analysis_cache: CacheStats,
    /// The shared session's constraint-solver memo.
    pub solver_memo: CacheStats,
    /// Per-worker counters, in worker order.
    pub workers: Vec<WorkerStats>,
}

/// Run one job to its outcome on the calling thread: elaborate through the
/// shared session (memoised per source), then execute every model row
/// sequentially — pool parallelism comes from running many *jobs* at once,
/// and keeping a job's rows on one worker keeps the per-job work footprint
/// predictable. Front-end panics are contained here; engine panics are
/// contained per row by the differential runner.
pub(crate) fn run_job(session: &Session, job: &Job) -> JobOutcome {
    let elaborated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.elaborate(&job.source)
    }));
    let elaborated = match elaborated {
        Ok(Ok(program)) => program,
        Ok(Err(error)) => return JobOutcome::Rejected(error),
        Err(panic) => return JobOutcome::FrontendFault(cerberus::panic_payload(&*panic)),
    };
    let runner = DifferentialRunner::new(job.models.clone()).with_limits(job.limits.clone());
    JobOutcome::Matrix(runner.run(&elaborated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerberus_exec::driver::ExecResult;

    fn return_n(n: u32) -> String {
        format!("int main(void) {{ return {n}; }}")
    }

    #[test]
    fn jobs_carry_the_sequential_defaults() {
        let job = Job::new(return_n(0), vec![ModelConfig::concrete()]);
        assert_eq!(job.limits, Config::default().limits);
        assert_eq!(Job::differential(return_n(0)).models.len(), 10);
    }

    #[test]
    fn run_job_produces_a_matrix_in_model_order() {
        let session = Session::default();
        let job = Job::new(
            return_n(42),
            vec![ModelConfig::concrete(), ModelConfig::symbolic()],
        );
        let outcome = run_job(&session, &job);
        assert_eq!(outcome.status(), JobStatus::Completed);
        let matrix = outcome.into_matrix().unwrap();
        let names: Vec<_> = matrix.rows().iter().map(|r| r.model).collect();
        assert_eq!(names, vec!["concrete", "symbolic"]);
        assert_eq!(
            matrix.outcome_for("concrete").unwrap().exit_value(),
            Some(42)
        );
    }

    #[test]
    fn run_job_reports_frontend_rejection_with_diagnostics() {
        let session = Session::default();
        let job = Job::new(
            "int main(void) { return zz; }",
            vec![ModelConfig::concrete()],
        );
        let outcome = run_job(&session, &job);
        assert_eq!(outcome.status(), JobStatus::Failed);
        match outcome {
            JobOutcome::Rejected(error) => assert!(error.diagnostic_count() >= 1),
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn run_job_contains_engine_panics_as_fault_rows() {
        let session = Session::default();
        let job = Job::new(
            return_n(1),
            vec![ModelConfig::panicking(), ModelConfig::concrete()],
        );
        let outcome = run_job(&session, &job);
        // An engine fault is still a *completed* job: the matrix carries the
        // structured fault row next to the healthy rows.
        assert_eq!(outcome.status(), JobStatus::Completed);
        let matrix = outcome.into_matrix().unwrap();
        assert_eq!(matrix.faulted_models(), vec!["panicking"]);
        assert_eq!(
            matrix.outcome_for("concrete").unwrap().exit_value(),
            Some(1)
        );
    }

    #[test]
    fn run_job_surfaces_budget_exhaustion_as_structured_rows() {
        let session = Session::default();
        let job = Job::new(
            "int main(void) { int i = 0; while (i < 100000) i++; return 0; }",
            vec![ModelConfig::concrete()],
        )
        .with_limits(ResourceLimits::with_steps(64));
        let matrix = run_job(&session, &job).into_matrix().unwrap();
        let row = matrix.outcome_for("concrete").unwrap();
        assert!(matches!(row.outcomes[0].result, ExecResult::Timeout(_)));
    }
}
