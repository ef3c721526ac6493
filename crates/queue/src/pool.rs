//! The worker pool: threads pulling jobs from the work-stealing scheduler,
//! executing them through the shared session, and recording outcomes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use cerberus::pipeline::Session;

use crate::scheduler::Scheduler;
use crate::{
    Job, JobEntry, JobId, JobOutcome, JobStatus, JobTable, QueueStats, ResultCache, WorkerStats,
};

/// State shared between the [`JobQueue`] handle and its worker threads.
#[derive(Debug)]
struct Inner {
    scheduler: Scheduler,
    table: JobTable,
    cache: ResultCache,
    session: Session,
    /// Parking lot for idle workers: submissions notify `wake` under `sleep`.
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
}

impl Inner {
    /// Execute one job on worker `w`: answer from the result cache when the
    /// exact (source × models × mode × budget) has been run before, otherwise
    /// run it and memoise the outcome.
    fn execute(&self, w: usize, id: JobId) {
        let job = {
            let mut entries = self.table.entries.lock().expect("job table");
            let entry = entries.get_mut(&id).expect("taken job is in the table");
            entry.status = JobStatus::Running;
            Arc::clone(&entry.job)
        };
        let key = job.cache_key();
        let outcome = match self.cache.lookup(&key) {
            Some(hit) => hit,
            None => {
                let outcome = crate::run_job(&self.session, &job);
                self.cache.insert(key, outcome.clone());
                outcome
            }
        };
        {
            let mut entries = self.table.entries.lock().expect("job table");
            let entry = entries.get_mut(&id).expect("running job is in the table");
            entry.status = outcome.status();
            entry.outcome = Some(outcome);
        }
        self.scheduler.counters[w]
            .executed
            .fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.table.finished.notify_all();
    }

    /// The worker loop: drain the scheduler; when it runs dry either exit (a
    /// draining shutdown leaves nothing behind) or park until the next
    /// submission. The park re-checks emptiness under the sleep mutex — and
    /// submitters notify under it — so a wakeup can never be lost; the
    /// timeout is only a belt-and-braces backstop.
    fn worker_loop(&self, w: usize) {
        loop {
            match self.scheduler.take(w) {
                Some(id) => self.execute(w, id),
                None => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    let guard = self.sleep.lock().expect("sleep mutex");
                    if self.scheduler.depth() == 0 && !self.shutdown.load(Ordering::SeqCst) {
                        let _ = self
                            .wake
                            .wait_timeout(guard, Duration::from_millis(50))
                            .expect("sleep mutex");
                    }
                }
            }
        }
    }

    /// Register a job as queued and return its id (the caller still has to
    /// place the id on a queue and wake a worker).
    fn admit(&self, job: Job) -> JobId {
        assert!(
            !self.shutdown.load(Ordering::SeqCst),
            "submit on a shut-down JobQueue"
        );
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.table.entries.lock().expect("job table").insert(
            id,
            JobEntry {
                job: Arc::new(job),
                status: JobStatus::Queued,
                outcome: None,
            },
        );
        self.submitted.fetch_add(1, Ordering::Relaxed);
        id
    }

    fn notify_workers(&self) {
        let _guard = self.sleep.lock().expect("sleep mutex");
        self.wake.notify_all();
    }
}

/// A running job queue: a work-stealing scheduler plus a pool of worker
/// threads executing submitted [`Job`]s (see the crate docs for the full
/// contract). Cheap to share: the handle is a thin wrapper over `Arc`-shared
/// state, and all methods take `&self`.
///
/// Dropping the handle (or calling [`JobQueue::shutdown`]) drains the queue —
/// every job submitted before the shutdown still runs to completion — and
/// joins the workers.
#[derive(Debug)]
pub struct JobQueue {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl JobQueue {
    /// Start a pool of `workers` threads (at least one) that elaborate
    /// through one shared [`Session`].
    pub fn start(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            scheduler: Scheduler::new(workers),
            table: JobTable::default(),
            cache: ResultCache::default(),
            session: Session::default(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("cerberus-job-worker-{w}"))
                    .spawn(move || inner.worker_loop(w))
                    .expect("spawning a job-queue worker")
            })
            .collect();
        JobQueue {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// The number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.inner.scheduler.counters.len()
    }

    /// The session the workers elaborate through (its artifact memo is shared
    /// across all jobs).
    pub fn session(&self) -> &Session {
        &self.inner.session
    }

    /// Submit one job on the shared injector queue; any worker picks it up.
    ///
    /// # Panics
    /// Panics if the queue has been shut down.
    pub fn submit(&self, job: Job) -> JobId {
        let id = self.inner.admit(job);
        self.inner.scheduler.inject(id);
        self.inner.notify_workers();
        id
    }

    /// Submit a batch, dealing the jobs round-robin onto the per-worker
    /// deques: the batch starts out evenly spread, and idle workers steal
    /// from any worker that falls behind a slow job. Returns the ids in
    /// submission order.
    ///
    /// # Panics
    /// Panics if the queue has been shut down.
    pub fn submit_batch(&self, jobs: impl IntoIterator<Item = Job>) -> Vec<JobId> {
        let ids: Vec<JobId> = jobs
            .into_iter()
            .map(|job| {
                let id = self.inner.admit(job);
                self.inner.scheduler.deal(id);
                id
            })
            .collect();
        self.inner.notify_workers();
        ids
    }

    /// The status of a job, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.inner
            .table
            .entries
            .lock()
            .expect("job table")
            .get(&id)
            .map(|entry| entry.status)
    }

    /// The outcome of a finished job; `None` while it is queued or running
    /// (or for an unknown id — distinguish via [`JobQueue::status`]).
    pub fn outcome(&self, id: JobId) -> Option<JobOutcome> {
        self.inner
            .table
            .entries
            .lock()
            .expect("job table")
            .get(&id)
            .and_then(|entry| entry.outcome.clone())
    }

    /// Block until `id` finishes and return its outcome.
    ///
    /// # Panics
    /// Panics if `id` was never submitted to this queue.
    pub fn wait(&self, id: JobId) -> JobOutcome {
        let mut entries = self.inner.table.entries.lock().expect("job table");
        loop {
            match entries.get(&id) {
                None => panic!("wait on unknown job id {id}"),
                Some(entry) => {
                    if let Some(outcome) = &entry.outcome {
                        return outcome.clone();
                    }
                }
            }
            entries = self.inner.table.finished.wait(entries).expect("job table");
        }
    }

    /// Block until every id finishes; outcomes come back in argument order
    /// (deterministic regardless of how the pool interleaved the jobs).
    pub fn wait_all(&self, ids: &[JobId]) -> Vec<JobOutcome> {
        ids.iter().map(|&id| self.wait(id)).collect()
    }

    /// Submit a batch and wait for all of it, returning outcomes in
    /// submission order.
    pub fn run_batch(&self, jobs: impl IntoIterator<Item = Job>) -> Vec<JobOutcome> {
        let ids = self.submit_batch(jobs);
        self.wait_all(&ids)
    }

    /// A point-in-time snapshot of queue depth, lifetime counters, cache
    /// statistics and per-worker activity.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            depth: self.inner.scheduler.depth(),
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            result_cache: self.inner.cache.stats(),
            elaboration_cache: self.inner.session.cache_stats(),
            workers: self
                .inner
                .scheduler
                .counters
                .iter()
                .map(|c| WorkerStats {
                    executed: c.executed.load(Ordering::Relaxed),
                    stolen: c.stolen.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Drain and stop: refuse new submissions, let the workers finish every
    /// queued job, and join them. Idempotent; results stay queryable through
    /// [`JobQueue::outcome`] afterwards.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.notify_workers();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker handles")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Job;
    use cerberus::DifferentialRunner;
    use cerberus_memory::config::ModelConfig;
    use cerberus_memory::limits::ResourceLimits;

    fn return_n(n: usize) -> String {
        format!("int main(void) {{ return {n}; }}")
    }

    #[test]
    fn batch_results_are_deterministic_and_bit_identical_to_sequential_runs() {
        let queue = JobQueue::start(4);
        let models = || vec![ModelConfig::concrete(), ModelConfig::symbolic()];
        let sources: Vec<String> = (0..12).map(|i| return_n(i % 7)).collect();
        let outcomes = queue.run_batch(sources.iter().map(|src| Job::new(src.clone(), models())));
        let session = Session::default();
        for (source, outcome) in sources.iter().zip(outcomes) {
            let expected =
                DifferentialRunner::new(models()).run(&session.elaborate(source).unwrap());
            assert_eq!(outcome.into_matrix().unwrap(), expected, "source {source}");
        }
        queue.shutdown();
    }

    #[test]
    fn shutdown_drains_every_submitted_job() {
        let queue = JobQueue::start(2);
        let ids = queue
            .submit_batch((0..16).map(|i| Job::new(return_n(i), vec![ModelConfig::concrete()])));
        // Shut down immediately: the pool must finish the backlog first.
        queue.shutdown();
        for (i, id) in ids.iter().enumerate() {
            let outcome = queue.outcome(*id).expect("job drained before shutdown");
            let matrix = outcome.into_matrix().unwrap();
            assert_eq!(
                matrix.outcome_for("concrete").unwrap().exit_value(),
                Some(i as i128)
            );
        }
        assert_eq!(queue.stats().completed, 16);
        assert_eq!(queue.stats().depth, 0);
    }

    #[test]
    #[should_panic(expected = "submit on a shut-down JobQueue")]
    fn submitting_after_shutdown_is_refused() {
        let queue = JobQueue::start(1);
        queue.shutdown();
        queue.submit(Job::new(return_n(0), vec![ModelConfig::concrete()]));
    }

    #[test]
    fn identical_resubmission_is_a_result_cache_hit() {
        let queue = JobQueue::start(2);
        let job = || Job::new(return_n(42), vec![ModelConfig::concrete()]);
        let first = queue.wait(queue.submit(job()));
        assert_eq!(queue.stats().result_cache.hits, 0);
        let second = queue.wait(queue.submit(job()));
        assert_eq!(first, second);
        let stats = queue.stats();
        assert_eq!(stats.result_cache.hits, 1);
        assert_eq!(stats.result_cache.misses, 1);
        assert_eq!(stats.result_cache.entries, 1);
        // A different budget is a different job: no false sharing.
        let other = job().with_limits(ResourceLimits::with_steps(77));
        queue.wait(queue.submit(other));
        assert_eq!(queue.stats().result_cache.hits, 1);
        assert_eq!(queue.stats().result_cache.misses, 2);
        queue.shutdown();
    }

    #[test]
    fn one_elaboration_serves_all_rows_and_resubmissions() {
        let queue = JobQueue::start(2);
        let source = return_n(5);
        // Same source under two model sets: the second job's elaboration is a
        // session-memo hit even though its result-cache key differs.
        queue.wait(queue.submit(Job::new(source.clone(), vec![ModelConfig::concrete()])));
        queue.wait(queue.submit(Job::new(source.clone(), vec![ModelConfig::symbolic()])));
        let elab = queue.stats().elaboration_cache;
        assert_eq!((elab.hits, elab.misses), (1, 1));
        queue.shutdown();
    }

    #[test]
    fn a_slow_job_does_not_block_the_rest_of_the_batch() {
        // Worker 0 gets a job that spins its full (wall-clock-bounded)
        // budget; the fast jobs dealt behind it are stolen and finish. This
        // also exercises per-job budget isolation: only the hog times out.
        let queue = JobQueue::start(2);
        let hog = Job::new(
            "int main(void) { unsigned long i = 0; while (1) i++; return 0; }",
            vec![ModelConfig::concrete()],
        )
        .with_limits(ResourceLimits::with_steps(u64::MAX).with_wall_clock_ms(1_500));
        let fast: Vec<Job> = (0..8)
            .map(|i| Job::new(return_n(i), vec![ModelConfig::concrete()]))
            .collect();
        let mut jobs = vec![hog];
        jobs.extend(fast);
        let outcomes = queue.run_batch(jobs);
        assert!(outcomes[0]
            .matrix()
            .unwrap()
            .outcome_for("concrete")
            .unwrap()
            .any_budget_exhaustion());
        for (i, outcome) in outcomes[1..].iter().enumerate() {
            assert_eq!(
                outcome
                    .matrix()
                    .unwrap()
                    .outcome_for("concrete")
                    .unwrap()
                    .exit_value(),
                Some(i as i128)
            );
        }
        queue.shutdown();
    }

    #[test]
    fn statuses_progress_to_a_terminal_state() {
        let queue = JobQueue::start(1);
        let good = queue.submit(Job::new(return_n(0), vec![ModelConfig::concrete()]));
        let bad = queue.submit(Job::new(
            "int main(void) { return zz; }",
            vec![ModelConfig::concrete()],
        ));
        assert_eq!(queue.wait(good).status(), JobStatus::Completed);
        assert_eq!(queue.wait(bad).status(), JobStatus::Failed);
        assert_eq!(queue.status(good), Some(JobStatus::Completed));
        assert_eq!(queue.status(bad), Some(JobStatus::Failed));
        assert_eq!(queue.status(JobId(999)), None);
        assert!(queue.outcome(JobId(999)).is_none());
        queue.shutdown();
    }
}
