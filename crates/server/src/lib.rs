//! The UB-oracle service: a std-only HTTP/1.1 front door over the
//! [`cerberus_queue::JobQueue`] worker pool.
//!
//! A client POSTs a C translation unit; the service enqueues one
//! (program × model-set) job on the pool's FIFO, answers immediately
//! with a job id, and serves the §3-style outcome matrix once the workers
//! finish. Everything is hand-rolled on `std::net` — the build environment is
//! offline, so there is no HTTP framework, no async runtime, and no JSON
//! dependency (see [`cerberus_wire::json`]).
//!
//! # Connections
//!
//! One thread blocks in `accept` and hands each connection to [`HANDLERS`]
//! handler threads, spawned once by [`serve`], through a hand-off that holds
//! at most [`HANDOFF_CAPACITY`] waiting connections. A connection that finds
//! the hand-off full is answered `503` at once, so neither threads nor
//! waiting connections grow with load. A handler serves one request per
//! connection (`Connection: close`, no keep-alive) and gives an idle peer
//! 10 s to send it; a panic while it routes a request is answered `500` and
//! costs neither the handler nor the service.
//!
//! # Routes (versioned under `/api/v0`)
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /api/v0/submit` | Enqueue a job; `202` with `{"job", "status", "poll", "analysis"}` |
//! | `GET /api/v0/jobs/{id}` | Job status, plus the result document when finished |
//! | `GET /api/v0/models` | The named memory object models the service runs |
//! | `GET /api/v0/stats` | Queue depth, cache hit/miss counters, per-worker activity |
//!
//! The submit body is a JSON object: `{"source": "<C source>"}` plus optional
//! `"models"` (array of model names; defaults to every named model),
//! `"steps"` (interpreter step budget, at most the default) and
//! `"wall_clock_ms"` (watchdog); other members are ignored. Engine panics
//! never kill the service: they surface as `engine-fault` rows in the matrix
//! (contained by the differential runner), and front-end panics as a
//! `failed` job with the captured payload.
//!
//! ```no_run
//! let server = cerberus_server::serve("127.0.0.1:0", Default::default()).unwrap();
//! let addr = server.local_addr();
//! let (status, body) = cerberus_server::client::http_request(
//!     &addr.to_string(),
//!     "POST",
//!     "/api/v0/submit",
//!     Some(r#"{"source": "int main(void) { return 42; }"}"#),
//! )
//! .unwrap();
//! assert_eq!(status, 202);
//! assert!(body.get("poll").is_some());
//! server.shutdown();
//! ```

pub mod client;
pub mod http;
pub mod render;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use cerberus_memory::{ModelConfig, ResourceLimits};
use cerberus_queue::{Job, JobId, JobOutcome, JobQueue, JobStatus};
use cerberus_wire::json::Json;

use http::{read_request, write_response, Request};

/// Handler threads per server, spawned once by [`serve`]. Each serves one
/// connection at a time, so at most this many requests are read, routed
/// and answered at once.
pub const HANDLERS: usize = 8;

/// Accepted connections that may wait for a free handler. A connection that
/// arrives while [`HANDLERS`] are busy and this many wait is answered `503`
/// at once.
pub const HANDOFF_CAPACITY: usize = 8;

/// How the service is provisioned.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the job pool.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
        }
    }
}

/// A running service: the bound address, the accept thread, the
/// [`HANDLERS`] handler threads and the job pool.
///
/// Dropping the handle shuts the service down (idempotently); call
/// [`Server::shutdown`] to do so explicitly.
pub struct Server {
    local_addr: SocketAddr,
    queue: Arc<JobQueue>,
    stop: Arc<AtomicBool>,
    /// The accept thread first, then the handlers: the order shutdown joins.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// The address the listener actually bound (resolves `:0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The underlying job queue (for in-process inspection in tests).
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// Stop accepting connections, let the handlers answer every connection
    /// already handed off, and drain the pool. Idempotent.
    pub fn shutdown(&self) {
        // `Drop` runs this, so a poisoned lock must not panic here; the list
        // stays valid whatever a panicking holder did.
        let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        if !threads.is_empty() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking `accept`: it sees the flag and returns, which
            // drops the hand-off's sender, so each handler exits once the
            // channel is empty.
            let _ = TcpStream::connect(self.local_addr);
        }
        for thread in threads.drain(..) {
            let _ = thread.join();
        }
        self.queue.shutdown();
    }

    fn spawn(&self, name: &str, body: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let thread = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(body)?;
        self.threads
            .lock()
            .expect("no thread panics while holding the thread list")
            .push(thread);
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:8080"`, or port `0` for an ephemeral port)
/// and serve the API until [`Server::shutdown`]: one thread blocks in
/// `accept` and hands each connection to the [`HANDLERS`] handler threads
/// through a hand-off of [`HANDOFF_CAPACITY`] slots.
pub fn serve(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let server = Server {
        local_addr: listener.local_addr()?,
        queue: Arc::new(JobQueue::start(config.workers.max(1))),
        stop: Arc::new(AtomicBool::new(false)),
        threads: Mutex::new(Vec::with_capacity(1 + HANDLERS)),
    };
    // If a spawn fails, dropping `server` stops the threads already running.
    let (handoff, handed_off) = sync_channel(HANDOFF_CAPACITY);
    let stop = Arc::clone(&server.stop);
    server.spawn("cerberus-serve-accept", move || {
        accept_loop(&listener, &handoff, &stop)
    })?;
    let handed_off = Arc::new(Mutex::new(handed_off));
    for _ in 0..HANDLERS {
        let handed_off = Arc::clone(&handed_off);
        let queue = Arc::clone(&server.queue);
        server.spawn("cerberus-serve-handler", move || {
            handler_loop(&handed_off, |request| handle_request(&queue, request))
        })?;
    }
    Ok(server)
}

fn accept_loop(listener: &TcpListener, handoff: &SyncSender<TcpStream>, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => match handoff.try_send(stream) {
                Ok(()) => {}
                // Refused at once, before anything is read from it.
                Err(TrySendError::Full(mut stream) | TrySendError::Disconnected(mut stream)) => {
                    let busy = error_body("every connection handler is busy; retry later");
                    respond(&mut stream, 503, &busy);
                }
            },
            // Out of descriptors (`EMFILE`) and the like: back off, do not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Serve handed-off connections, answering each request with `route`, until
/// the accept thread has stopped and the hand-off is empty.
fn handler_loop(handed_off: &Mutex<Receiver<TcpStream>>, route: impl Fn(&Request) -> (u16, Json)) {
    loop {
        // The guard is a temporary, so the lock is released before the
        // connection is served.
        let next = handed_off
            .lock()
            .expect("no handler panics while holding the hand-off")
            .recv();
        let Ok(stream) = next else { return };
        handle_connection(stream, &route);
    }
}

fn handle_connection(mut stream: TcpStream, route: &impl Fn(&Request) -> (u16, Json)) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    // The submit route runs the front end and the analysis on this thread,
    // as a worker's `run_job` does; a panic there answers this request `500`
    // and leaves the handler serving.
    let answer = std::panic::catch_unwind(AssertUnwindSafe(|| {
        read_request(&mut stream).map(|request| route(&request))
    }));
    let (status, body) = match answer {
        Ok(Ok(answer)) => answer,
        Ok(Err(failure)) => match http::error_status(&failure) {
            Some((status, _)) => (status, error_body(&format!("{failure:?}"))),
            None => return, // peer went away before sending a request
        },
        Err(panic) => {
            let payload = cerberus::panic_payload(&*panic);
            (
                500,
                error_body(&format!("request handler panicked: {payload}")),
            )
        }
    };
    respond(&mut stream, status, &body);
}

fn respond(stream: &mut TcpStream, status: u16, body: &Json) {
    let _ = write_response(
        stream,
        status,
        http::reason_phrase(status),
        "application/json",
        body.encode().as_bytes(),
    );
}

/// Dispatch one parsed request to its route. Pure apart from the queue —
/// exercised directly by unit tests without a socket.
pub fn handle_request(queue: &JobQueue, request: &Request) -> (u16, Json) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/api/v0/submit") => submit_route(queue, &request.body),
        ("GET", "/api/v0/models") => models_route(),
        ("GET", "/api/v0/stats") => (200, render::queue_stats_to_json(&queue.stats())),
        ("GET", path) if path.starts_with("/api/v0/jobs/") => {
            job_route(queue, &path["/api/v0/jobs/".len()..])
        }
        ("GET", "/" | "/api/v0") => index_route(),
        (_, "/api/v0/submit" | "/api/v0/models" | "/api/v0/stats") => {
            (405, error_body("method not allowed"))
        }
        _ => (404, error_body("no such route")),
    }
}

fn index_route() -> (u16, Json) {
    let routes = [
        "POST /api/v0/submit",
        "GET /api/v0/jobs/{id}",
        "GET /api/v0/models",
        "GET /api/v0/stats",
    ];
    (
        200,
        Json::obj([
            ("service", Json::str("cerberus ub-oracle")),
            ("api", Json::str("v0")),
            (
                "routes",
                Json::Arr(routes.iter().map(|r| Json::str(*r)).collect()),
            ),
        ]),
    )
}

fn models_route() -> (u16, Json) {
    let names = ModelConfig::all_named()
        .iter()
        .map(|m| Json::str(m.name))
        .collect();
    (
        200,
        Json::obj([
            ("models", Json::Arr(names)),
            // Accepted by `submit` for fault-containment drills, but not part
            // of the default differential set.
            ("fault_injection", Json::Arr(vec![Json::str("panicking")])),
        ]),
    )
}

/// A model name accepted by the submit route. `panicking` is deliberately
/// admitted (it is not in [`ModelConfig::all_named`]) so clients can drive
/// the fault-containment path end to end.
fn model_by_name(name: &str) -> Option<ModelConfig> {
    match name {
        "panicking" => Some(ModelConfig::panicking()),
        _ => ModelConfig::by_name(name),
    }
}

fn submit_route(queue: &JobQueue, body: &[u8]) -> (u16, Json) {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return (400, error_body("body is not UTF-8")),
    };
    let document = match Json::parse(text) {
        Ok(document) => document,
        Err(e) => return (400, error_body(&format!("body is not JSON: {e}"))),
    };
    let Some(source) = document.get("source").and_then(Json::as_str) else {
        return (400, error_body("missing required string member \"source\""));
    };
    let models = match document.get("models") {
        None => ModelConfig::all_named(),
        Some(Json::Arr(names)) if !names.is_empty() => {
            let mut models = Vec::with_capacity(names.len());
            for name in names {
                let Some(name) = name.as_str() else {
                    return (400, error_body("\"models\" must be an array of strings"));
                };
                match model_by_name(name) {
                    Some(model) => models.push(model),
                    None => {
                        let known: Vec<Json> = ModelConfig::all_named()
                            .iter()
                            .map(|m| Json::str(m.name))
                            .collect();
                        return (
                            400,
                            Json::obj([
                                ("error", Json::str(format!("unknown model {name:?}"))),
                                ("known_models", Json::Arr(known)),
                            ]),
                        );
                    }
                }
            }
            models
        }
        Some(_) => {
            return (
                400,
                error_body("\"models\" must be a non-empty array of model names"),
            )
        }
    };
    let mut limits = ResourceLimits::default();
    // A client may lower the step budget, never raise it: the watchdog is off
    // by default, so the step budget is what bounds a row's time.
    if let Some(steps) = document.get("steps") {
        match steps.as_int().and_then(|steps| u64::try_from(steps).ok()) {
            Some(steps @ 1..=ResourceLimits::DEFAULT_STEPS) => limits.steps = steps,
            _ => {
                let limit = ResourceLimits::DEFAULT_STEPS;
                let message = format!("\"steps\" must be an integer from 1 to {limit}");
                return (400, error_body(&message));
            }
        }
    }
    if let Some(ms) = document.get("wall_clock_ms") {
        match ms.as_int() {
            Some(ms) if ms > 0 => limits.wall_clock_ms = Some(ms.min(u64::MAX as i128) as u64),
            _ => {
                return (
                    400,
                    error_body("\"wall_clock_ms\" must be a positive integer"),
                )
            }
        }
    }
    let job = Job::new(source, models).with_limits(limits);
    // Elaborate before queueing, so the worker that picks the job up finds
    // the artifact in the session memo instead of racing this thread through
    // the front end. A rejection is not cached; the job and the `analysis`
    // member below both report it.
    let _ = queue.session().elaborate(source);
    // Only a queue that has been shut down refuses a job.
    let Ok(id) = queue.submit(job) else {
        return (500, error_body("service is shutting down"));
    };
    // The static analysis runs synchronously in the acknowledgement: it is a
    // single memoised pass over the elaborated Core, cheap next to the
    // differential execution the job just queued. A front-end rejection is
    // reported in place rather than failing the submission — the queued job
    // will surface the same rejection through the poll route.
    let analysis = match queue.session().analyze(source) {
        Ok(report) => cerberus_wire::analysis_report_to_json(&report),
        Err(error) => Json::obj([("error", render::pipeline_error_to_json(&error))]),
    };
    (
        202,
        Json::obj([
            ("job", Json::Int(i128::from(id.0))),
            ("status", Json::str(JobStatus::Queued.label())),
            ("poll", Json::str(format!("/api/v0/jobs/{id}"))),
            ("analysis", analysis),
        ]),
    )
}

fn job_route(queue: &JobQueue, id_text: &str) -> (u16, Json) {
    let Ok(id) = id_text.parse::<u64>() else {
        return (400, error_body("job ids are integers"));
    };
    let id = JobId(id);
    let Some(status) = queue.status(id) else {
        return (404, error_body(&format!("unknown job {id}")));
    };
    let mut members = vec![
        ("job".to_owned(), Json::Int(i128::from(id.0))),
        ("status".to_owned(), Json::str(status.label())),
    ];
    if let Some(outcome) = queue.outcome(id) {
        match outcome {
            JobOutcome::Matrix(matrix) => {
                members.push(("result".to_owned(), render::matrix_to_json(&matrix)));
            }
            JobOutcome::Rejected(error) => {
                members.push(("reason".to_owned(), Json::str("rejected")));
                members.push(("error".to_owned(), render::pipeline_error_to_json(&error)));
            }
            JobOutcome::FrontendFault(payload) => {
                members.push(("reason".to_owned(), Json::str("front-end-fault")));
                members.push(("panic".to_owned(), Json::str(payload)));
            }
        }
    }
    (200, Json::obj(members))
}

fn error_body(message: &str) -> Json {
    Json::obj([("error", Json::str(message))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_owned(),
            path: path.to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_owned(),
            path: path.to_owned(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn a_panicking_request_is_answered_500_and_its_handler_keeps_serving() {
        use std::io::{Read, Write};
        let listener = match TcpListener::bind("127.0.0.1:0") {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("skipping: cannot bind loopback: {e}");
                return;
            }
        };
        let addr = listener.local_addr().unwrap();
        let (handoff, handed_off) = sync_channel(HANDOFF_CAPACITY);
        let handler = std::thread::spawn(move || {
            handler_loop(&Mutex::new(handed_off), |request| {
                panic!("route panicked on {}", request.path)
            })
        });
        // One handler, two requests: the second is served only if the first
        // panic left the handler running.
        for path in ["/first", "/second"] {
            let mut client = TcpStream::connect(addr).unwrap();
            handoff.send(listener.accept().unwrap().0).unwrap();
            write!(client, "GET {path} HTTP/1.1\r\n\r\n").unwrap();
            let mut response = String::new();
            client.read_to_string(&mut response).unwrap();
            assert!(
                response.starts_with("HTTP/1.1 500 Internal Server Error\r\n"),
                "{response}"
            );
            assert!(
                response.contains(&format!("route panicked on {path}")),
                "{response}"
            );
        }
        drop(handoff);
        handler
            .join()
            .expect("the handler exits once the hand-off closes");
    }

    #[test]
    fn submit_poll_and_stats_work_without_a_socket() {
        let queue = JobQueue::start(2);
        let (status, body) = handle_request(
            &queue,
            &post(
                "/api/v0/submit",
                r#"{"source": "int main(void) { return 42; }", "models": ["concrete", "symbolic"]}"#,
            ),
        );
        assert_eq!(status, 202, "{body:?}");
        let id = body.get("job").and_then(Json::as_int).unwrap() as u64;
        let poll = body.get("poll").and_then(Json::as_str).unwrap().to_owned();
        assert_eq!(poll, format!("/api/v0/jobs/{id}"));

        queue.wait(JobId(id));
        let (status, body) = handle_request(&queue, &get(&poll));
        assert_eq!(status, 200);
        assert_eq!(body.get("status").and_then(Json::as_str), Some("completed"));
        let result = body.get("result").unwrap();
        assert_eq!(result.get("all_agree"), Some(&Json::Bool(true)));

        let (status, stats) = handle_request(&queue, &get("/api/v0/stats"));
        assert_eq!(status, 200);
        assert_eq!(stats.get("submitted").and_then(Json::as_int), Some(1));
        queue.shutdown();
    }

    #[test]
    fn submissions_are_acknowledged_with_a_static_analysis() {
        let queue = JobQueue::start(1);
        let (status, body) = handle_request(
            &queue,
            &post(
                "/api/v0/submit",
                r#"{"source": "int main(void) { int *p = 0; *p = 1; return 0; }", "models": ["concrete"]}"#,
            ),
        );
        assert_eq!(status, 202, "{body:?}");
        let analysis = body.get("analysis").expect("analysis member");
        let findings = analysis.get("findings").and_then(Json::as_array).unwrap();
        assert!(
            findings.iter().any(|f| {
                f.get("ub").and_then(Json::as_str) == Some("Null_pointer_dereference")
            }),
            "{analysis:?}"
        );
        assert_eq!(analysis.get("aborted"), Some(&Json::Null));

        // A front-end rejection still acknowledges the job; the analysis
        // member carries the error instead of findings.
        let (status, body) = handle_request(
            &queue,
            &post("/api/v0/submit", r#"{"source": "int main(void) {"}"#),
        );
        assert_eq!(status, 202, "{body:?}");
        let analysis = body.get("analysis").expect("analysis member");
        assert!(analysis.get("error").is_some(), "{analysis:?}");
        queue.shutdown();
    }

    #[test]
    fn a_fresh_submission_runs_the_front_end_once() {
        let queue = JobQueue::start(2);
        let (status, body) = handle_request(
            &queue,
            &post(
                "/api/v0/submit",
                r#"{"source": "int main(void) { return 7; }", "models": ["concrete"]}"#,
            ),
        );
        assert_eq!(status, 202, "{body:?}");
        let id = body.get("job").and_then(Json::as_int).unwrap() as u64;
        queue.wait(JobId(id));
        // The acknowledgement elaborated before queueing, so the worker and
        // the analysis both found the artifact in the memo.
        let elaboration = queue.stats().elaboration_cache;
        assert_eq!(elaboration.misses, 1, "{elaboration:?}");
        queue.shutdown();
    }

    #[test]
    fn bad_submissions_are_rejected_with_400() {
        let queue = JobQueue::start(1);
        for (body, needle) in [
            ("{not json", "not JSON"),
            (r#"{"models": ["concrete"]}"#, "source"),
            (r#"{"source": "int main(void){}", "models": []}"#, "models"),
            (
                r#"{"source": "int main(void){}", "models": ["no-such"]}"#,
                "unknown model",
            ),
            (r#"{"source": "int main(void){}", "steps": -3}"#, "steps"),
            (
                r#"{"source": "int main(void){}", "steps": 2000001}"#,
                "steps",
            ),
        ] {
            let (status, response) = handle_request(&queue, &post("/api/v0/submit", body));
            assert_eq!(status, 400, "{body}");
            let error = response.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains(needle), "{error} should mention {needle}");
        }
        queue.shutdown();
    }

    #[test]
    fn a_submission_after_shutdown_is_answered_500() {
        let queue = JobQueue::start(1);
        queue.shutdown();
        let (status, body) = handle_request(
            &queue,
            &post(
                "/api/v0/submit",
                r#"{"source": "int main(void) { return 0; }"}"#,
            ),
        );
        assert_eq!(status, 500, "{body:?}");
        let error = body.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("shutting down"), "{error}");
    }

    #[test]
    fn unknown_jobs_routes_and_methods_are_mapped() {
        let queue = JobQueue::start(1);
        assert_eq!(handle_request(&queue, &get("/api/v0/jobs/999")).0, 404);
        assert_eq!(handle_request(&queue, &get("/api/v0/jobs/xyz")).0, 400);
        assert_eq!(handle_request(&queue, &get("/nope")).0, 404);
        assert_eq!(handle_request(&queue, &post("/api/v0/models", "")).0, 405);
        assert_eq!(handle_request(&queue, &get("/")).0, 200);
        let (status, body) = handle_request(&queue, &get("/api/v0/models"));
        assert_eq!(status, 200);
        let models = body.get("models").and_then(Json::as_array).unwrap();
        assert!(models.iter().any(|m| m.as_str() == Some("concrete")));
        assert!(models.iter().all(|m| m.as_str() != Some("panicking")));
        queue.shutdown();
    }

    #[test]
    fn a_rejected_program_fails_with_structured_diagnostics() {
        let queue = JobQueue::start(1);
        let (status, body) = handle_request(
            &queue,
            &post(
                "/api/v0/submit",
                r#"{"source": "int main(void) { return 1 +; }"}"#,
            ),
        );
        assert_eq!(status, 202);
        let id = body.get("job").and_then(Json::as_int).unwrap() as u64;
        queue.wait(JobId(id));
        let (_, body) = handle_request(&queue, &get(&format!("/api/v0/jobs/{id}")));
        assert_eq!(body.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(body.get("reason").and_then(Json::as_str), Some("rejected"));
        assert_eq!(
            body.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("syntax")
        );
        queue.shutdown();
    }

    #[test]
    fn a_panicking_model_surfaces_as_an_engine_fault_row() {
        let queue = JobQueue::start(1);
        let (status, body) = handle_request(
            &queue,
            &post(
                "/api/v0/submit",
                r#"{"source": "int main(void) { int x = 1; return x; }", "models": ["panicking", "concrete"]}"#,
            ),
        );
        assert_eq!(status, 202);
        let id = body.get("job").and_then(Json::as_int).unwrap() as u64;
        queue.wait(JobId(id));
        let (_, body) = handle_request(&queue, &get(&format!("/api/v0/jobs/{id}")));
        assert_eq!(
            body.get("status").and_then(Json::as_str),
            Some("completed"),
            "a contained engine fault still completes the job"
        );
        let result = body.get("result").unwrap();
        let faulted = result
            .get("faulted_models")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(faulted.len(), 1);
        assert_eq!(faulted[0].as_str(), Some("panicking"));
        // And the service can keep serving afterwards.
        let (status, _) = handle_request(&queue, &get("/api/v0/stats"));
        assert_eq!(status, 200);
        queue.shutdown();
    }
}
