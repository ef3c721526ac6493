//! The worker pool: threads taking jobs from one FIFO in submission order,
//! executing them through the shared session, and recording outcomes.
//!
//! All queue state sits behind one mutex. A worker pops a job and marks it
//! running under the lock, and records its outcome under the lock;
//! [`JobQueue::submit`] and [`JobQueue::wait`] test their conditions under
//! it too. So no wakeup can be lost between a test and a wait, and no wait
//! needs a timeout.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use cerberus::pipeline::Session;

use crate::{Job, JobId, JobOutcome, JobStatus, QueueClosed, QueueStats, WorkerStats};

/// Where a submitted job is. Its [`JobStatus`] is derived from the slot, so
/// a status can never disagree with a stored outcome.
#[derive(Debug)]
enum Slot {
    Queued,
    Running,
    Finished(JobOutcome),
}

impl Slot {
    fn status(&self) -> JobStatus {
        match self {
            Slot::Queued => JobStatus::Queued,
            Slot::Running => JobStatus::Running,
            Slot::Finished(outcome) => outcome.status(),
        }
    }
}

/// Everything the queue's one lock guards.
#[derive(Debug, Default)]
struct State {
    /// Jobs no worker has taken yet, oldest first. A job moves out of the
    /// queue to the worker that runs it.
    fifo: VecDeque<(JobId, Job)>,
    /// The slot of every job ever submitted.
    slots: HashMap<JobId, Slot>,
    /// The id of the next submission, which is also the number of jobs ever
    /// submitted.
    next_id: u64,
    /// Jobs ever finished (completed or failed).
    completed: u64,
    /// Jobs each worker finished, in worker order.
    executed: Vec<u64>,
    /// Set by shutdown; a closed queue admits no job.
    closed: bool,
}

/// State shared between the [`JobQueue`] handle and its worker threads.
#[derive(Debug)]
struct Inner {
    state: Mutex<State>,
    /// Signalled on submit and on shutdown.
    work: Condvar,
    /// Broadcast when a job finishes.
    finished: Condvar,
    session: Session,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("job queue state")
    }

    /// The worker loop: take the oldest job and run it outside the lock;
    /// when the queue is empty, exit if it is closed (a draining shutdown
    /// leaves nothing behind) or wait for the next submission.
    fn worker_loop(&self, w: usize) {
        let mut state = self.lock();
        loop {
            if let Some((id, job)) = state.fifo.pop_front() {
                state.slots.insert(id, Slot::Running);
                drop(state);
                let outcome = crate::run_job(&self.session, &job);
                state = self.lock();
                state.slots.insert(id, Slot::Finished(outcome));
                state.completed += 1;
                state.executed[w] += 1;
                self.finished.notify_all();
            } else if state.closed {
                return;
            } else {
                state = self.work.wait(state).expect("job queue state");
            }
        }
    }
}

/// A running job queue: one FIFO plus a pool of worker threads that start
/// submitted [`Job`]s in submission order (see the crate docs for the full
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
            state: Mutex::new(State {
                executed: vec![0; workers],
                ..State::default()
            }),
            work: Condvar::new(),
            finished: Condvar::new(),
            session: Session::default(),
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
        self.inner.lock().executed.len()
    }

    /// The session the workers elaborate through (its artifact memo is shared
    /// across all jobs).
    pub fn session(&self) -> &Session {
        &self.inner.session
    }

    /// Queue one job behind every job submitted before it; the next idle
    /// worker picks it up. A queue that has been shut down refuses the job
    /// with [`QueueClosed`] and admits nothing.
    pub fn submit(&self, job: Job) -> Result<JobId, QueueClosed> {
        let mut state = self.inner.lock();
        if state.closed {
            return Err(QueueClosed);
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        state.slots.insert(id, Slot::Queued);
        state.fifo.push_back((id, job));
        self.inner.work.notify_one();
        Ok(id)
    }

    /// The status of a job, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.inner.lock().slots.get(&id).map(Slot::status)
    }

    /// The outcome of a finished job; `None` while it is queued or running
    /// (or for an unknown id — distinguish via [`JobQueue::status`]).
    pub fn outcome(&self, id: JobId) -> Option<JobOutcome> {
        match self.inner.lock().slots.get(&id) {
            Some(Slot::Finished(outcome)) => Some(outcome.clone()),
            _ => None,
        }
    }

    /// Block until `id` finishes and return its outcome.
    ///
    /// # Panics
    /// Panics if `id` was never submitted to this queue.
    pub fn wait(&self, id: JobId) -> JobOutcome {
        let mut state = self.inner.lock();
        loop {
            match state.slots.get(&id) {
                None => panic!("wait on unknown job id {id}"),
                Some(Slot::Finished(outcome)) => return outcome.clone(),
                Some(_) => state = self.inner.finished.wait(state).expect("job queue state"),
            }
        }
    }

    /// Submit every job, then wait for each; outcomes come back in
    /// submission order, whichever workers ran the jobs. A queue that has
    /// been shut down refuses the batch with [`QueueClosed`].
    pub fn run_batch(
        &self,
        jobs: impl IntoIterator<Item = Job>,
    ) -> Result<Vec<JobOutcome>, QueueClosed> {
        let ids = jobs
            .into_iter()
            .map(|job| self.submit(job))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ids.into_iter().map(|id| self.wait(id)).collect())
    }

    /// A point-in-time snapshot of queue depth, lifetime counters, cache
    /// statistics and per-worker activity.
    pub fn stats(&self) -> QueueStats {
        let (depth, submitted, completed, workers) = {
            let state = self.inner.lock();
            let workers = state
                .executed
                .iter()
                .map(|&executed| WorkerStats { executed })
                .collect();
            (state.fifo.len(), state.next_id, state.completed, workers)
        };
        let session = self.inner.session.cache_stats();
        QueueStats {
            depth,
            submitted,
            completed,
            elaboration_cache: session.elaboration,
            analysis_cache: session.analysis,
            solver_memo: session.solver,
            workers,
        }
    }

    /// Drain and stop: refuse new submissions, let the workers finish every
    /// queued job, and join them. Idempotent; results stay queryable through
    /// [`JobQueue::outcome`] afterwards.
    pub fn shutdown(&self) {
        self.inner.lock().closed = true;
        self.inner.work.notify_all();
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
        let outcomes = queue
            .run_batch(sources.iter().map(|src| Job::new(src.clone(), models())))
            .unwrap();
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
        let ids: Vec<JobId> = (0..16)
            .map(|i| {
                queue
                    .submit(Job::new(return_n(i), vec![ModelConfig::concrete()]))
                    .unwrap()
            })
            .collect();
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
    fn submitting_after_shutdown_is_refused() {
        let queue = JobQueue::start(1);
        queue.shutdown();
        let refused = queue.submit(Job::new(return_n(0), vec![ModelConfig::concrete()]));
        assert_eq!(refused, Err(QueueClosed));
        assert_eq!(queue.stats().submitted, 0);
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        let queue = JobQueue::start(2);
        let start = std::sync::Barrier::new(4);
        // Each submitter returns (id, the value its job's `main` returns).
        let submitted: Vec<(JobId, usize)> = std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..4)
                .map(|t| {
                    let (queue, start) = (&queue, &start);
                    scope.spawn(move || {
                        start.wait();
                        (t * 8..t * 8 + 8)
                            .map(|n| {
                                let job = Job::new(return_n(n), vec![ModelConfig::concrete()]);
                                (queue.submit(job).unwrap(), n)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            submitters
                .into_iter()
                .flat_map(|submitter| submitter.join().unwrap())
                .collect()
        });
        for &(id, n) in &submitted {
            let matrix = queue.wait(id).into_matrix().unwrap();
            let exit = matrix.outcome_for("concrete").unwrap().exit_value();
            assert_eq!(exit, Some(n as i128), "job {id}");
        }
        let stats = queue.stats();
        assert_eq!((stats.submitted, stats.completed, stats.depth), (32, 32, 0));
        let executed: u64 = stats.workers.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 32);
        queue.shutdown();
    }

    #[test]
    fn an_identical_resubmission_executes_nothing() {
        let queue = JobQueue::start(2);
        let source = return_n(42);
        let job = || {
            Job::new(
                source.clone(),
                vec![ModelConfig::concrete(), ModelConfig::symbolic()],
            )
        };
        let executions = || {
            let stats = queue
                .session()
                .elaborate(&source)
                .unwrap()
                .execution_stats();
            (stats.hits, stats.misses)
        };
        // `symbolic` shares the `concrete` run: the program observes no
        // address, so placement is all that tells them apart.
        let first = queue.wait(queue.submit(job()).unwrap());
        assert_eq!(executions(), (1, 1));
        // Both rows are answered from the artifact's table of runs.
        let second = queue.wait(queue.submit(job()).unwrap());
        assert_eq!(first, second);
        assert_eq!(executions(), (3, 1));
        // A different budget is a different run: no false sharing.
        let other = job().with_limits(ResourceLimits::with_steps(77));
        queue.wait(queue.submit(other).unwrap());
        assert_eq!(executions(), (4, 2));
        queue.shutdown();
    }

    #[test]
    fn one_elaboration_serves_all_rows_and_resubmissions() {
        let queue = JobQueue::start(2);
        let source = return_n(5);
        // Same source under two model sets: the second job's elaboration is a
        // session-memo hit.
        let concrete = Job::new(source.clone(), vec![ModelConfig::concrete()]);
        queue.wait(queue.submit(concrete).unwrap());
        let symbolic = Job::new(source.clone(), vec![ModelConfig::symbolic()]);
        queue.wait(queue.submit(symbolic).unwrap());
        let elab = queue.stats().elaboration_cache;
        assert_eq!((elab.hits, elab.misses), (1, 1));
        queue.shutdown();
    }

    #[test]
    fn a_slow_job_does_not_block_the_rest_of_the_batch() {
        // The first worker takes a job that spins its full (wall-clock-
        // bounded) budget; the other worker runs the fast jobs queued behind
        // it. This also exercises per-job budget isolation: only the hog
        // times out.
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
        let outcomes = queue.run_batch(jobs).unwrap();
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
        let good = queue
            .submit(Job::new(return_n(0), vec![ModelConfig::concrete()]))
            .unwrap();
        let bad = queue
            .submit(Job::new(
                "int main(void) { return zz; }",
                vec![ModelConfig::concrete()],
            ))
            .unwrap();
        assert_eq!(queue.wait(good).status(), JobStatus::Completed);
        assert_eq!(queue.wait(bad).status(), JobStatus::Failed);
        assert_eq!(queue.status(good), Some(JobStatus::Completed));
        assert_eq!(queue.status(bad), Some(JobStatus::Failed));
        assert_eq!(queue.status(JobId(999)), None);
        assert!(queue.outcome(JobId(999)).is_none());
        queue.shutdown();
    }
}
