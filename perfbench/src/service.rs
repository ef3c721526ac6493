//! The `service` workload: the real `cerberus-serve` binary on loopback with
//! its default workers, driven by a closed loop of [`CLIENTS`] clients in
//! this process with zero think time. Each client submits a source, polls
//! the job every [`POLL_INTERVAL`] until it finishes, checks the result and
//! submits the next one — the CI/CLI caller's pattern.
//!
//! Inputs are a seeded mix of fixture sources and fresh small and large
//! generated programs ([`BLOCK`]); one submission in four repeats an earlier
//! source, so result-cache and memo hits run beside misses, and every run
//! sends more distinct sources than the 256-entry result cache holds.
//!
//! Nothing inside the server is instrumented: spans are the client's view
//! (`server.ack` = the submit request, `server.poll` = each poll request,
//! `queue.wait` = the job's time between `202` and its finished document),
//! and server resources are read from `/proc/<pid>` and `/api/v0/stats`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cerberus_gen::GenConfig;
use cerberus_wire::json::Json;

use crate::inproc::{fixtures, generated, Input, Oracle, WARMUP_SEED};
use crate::layers::{self, Counters};
use crate::trace::{Accounting, Tracer, ROOT};
use crate::{stats, timed_setup, Args, Outcome, Rng};

pub const WORKLOAD: &str = "service";

/// Concurrent clients: one per core of the 2-core host the benchmark was
/// sized on.
const CLIENTS: usize = 2;

/// Pause between two polls of one job.
const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// The submission mix, dealt in blocks in a seeded order per block, so
/// every run and seed has the same proportions: one submission in four
/// repeats an earlier source.
const BLOCK: [Kind; 8] = [
    Kind::Repeat,
    Kind::Repeat,
    Kind::Fixture,
    Kind::Small,
    Kind::Small,
    Kind::Small,
    Kind::Large,
    Kind::Large,
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Repeat,
    Fixture,
    Small,
    Large,
}

/// Submissions prepared per second of run (about twice what the seed's
/// service completes).
const SUBMISSIONS_PER_SECOND: u64 = 150;

/// Jobs submitted to warm the server up during set-up.
const WARMUP_JOBS: u64 = 2;

/// A job not finished after this long counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

/// Idle requests timed in a traced run (`server.idle_request_ms`).
const IDLE_REQUESTS: usize = 50;

/// How often a traced run samples `/api/v0/stats` for the queue depth.
const STATS_EVERY: Duration = Duration::from_millis(20);

/// A running `cerberus-serve` child; dropping it kills and reaps it.
struct Server {
    child: Child,
    addr: SocketAddr,
    // Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let bin = exe.with_file_name("cerberus-serve");
        if !bin.is_file() {
            return Err(format!(
                "{} not found: build it with perfbench/run.sh",
                bin.display()
            ));
        }
        let mut child = Command::new(&bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            _stdout: BufReader::new(stdout),
        };
        // "cerberus-serve: listening on 127.0.0.1:PORT (N workers); ..."
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        server.addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes each).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, Vec<u8>), String> {
    let fail = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(fail)?;
    stream.set_nodelay(true).map_err(fail)?;
    let message = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).map_err(fail)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(fail)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no header terminator"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed status line"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

fn json(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_owned())?;
    Json::parse(text).map_err(|e| format!("response is not JSON: {e}"))
}

/// A finished job document without its `"job"` id member (keys are sorted,
/// so the id comes first): what a repeated submission must reproduce byte
/// for byte.
fn without_job_id(body: &[u8]) -> &[u8] {
    let comma = body.iter().position(|&b| b == b',').unwrap_or(0);
    &body[comma..]
}

/// The prepared inputs of a run and the order they are submitted in.
struct Plan {
    inputs: Vec<Input>,
    /// Index into `inputs` per submission.
    sequence: Vec<usize>,
}

fn plan(args: &Args) -> Result<Plan, String> {
    let mut rng = Rng::new(args.seed);
    let mut corpus = fixtures()?;
    rng.shuffle(&mut corpus);
    let base = args.seed << 32;
    let (mut small, mut large) = (base + (1 << 30), base);
    let mut inputs: Vec<Input> = Vec::new();
    let mut sequence = Vec::new();
    let mut block = BLOCK;
    let blocks = SUBMISSIONS_PER_SECOND * args.seconds.as_secs() / BLOCK.len() as u64;
    for _ in 0..blocks.max(1) {
        rng.shuffle(&mut block);
        for kind in block {
            let input = match kind {
                Kind::Repeat if !inputs.is_empty() => {
                    sequence.push(rng.below(inputs.len()));
                    continue;
                }
                // Once the corpus is used up, fixture slots take small
                // generated programs.
                Kind::Fixture if !corpus.is_empty() => corpus.pop().expect("non-empty"),
                Kind::Large => {
                    large += 1;
                    generated(large, GenConfig::large())
                }
                _ => {
                    small += 1;
                    generated(small, GenConfig::small())
                }
            };
            sequence.push(inputs.len());
            inputs.push(input);
        }
    }
    Ok(Plan { inputs, sequence })
}

/// Set up a run: prepare its inputs, start the server and warm it up with
/// sources outside the plan.
fn setup(args: &Args) -> Result<(Plan, Server), String> {
    let plan = plan(args)?;
    let server = Server::start()?;
    let (status, _) = request(server.addr, "GET", "/api/v0/models", "")?;
    if status != 200 {
        return Err(format!("GET /api/v0/models answered {status}"));
    }
    for i in 0..WARMUP_JOBS {
        let input = generated(WARMUP_SEED - i, GenConfig::small());
        submit_and_check(
            server.addr,
            &input,
            &Mutex::default(),
            0,
            &mut Tracer::new(false, Instant::now()),
        )
        .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok((plan, server))
}

/// One client-side record of a finished submission.
struct Done {
    traced: bool,
    finished: Instant,
    latency: Duration,
    ack: Duration,
    polls: u64,
    result_bytes: u64,
}

/// Submit one source, poll its job to completion, and check the result.
fn submit_and_check(
    addr: SocketAddr,
    input: &Input,
    first_results: &Mutex<HashMap<String, Vec<u8>>>,
    program: u64,
    tr: &mut Tracer,
) -> Result<Done, String> {
    let body = Json::obj([("source", Json::str(&input.source))]).encode();
    let start = Instant::now();
    let (status, ack_body) = request(addr, "POST", "/api/v0/submit", &body)?;
    let acked = Instant::now();
    if status != 202 {
        return Err(format!("submit answered {status}"));
    }
    let ack = json(&ack_body)?;
    let job = ack
        .get("job")
        .and_then(Json::as_int)
        .ok_or("submit answer has no job id")?;
    let path = format!("/api/v0/jobs/{job}");
    let waiting = Instant::now();
    let mut polls = Vec::new();
    let (document, raw) = loop {
        let sent = Instant::now();
        let (status, raw) = request(addr, "GET", &path, "")?;
        polls.push((sent, Instant::now()));
        if status != 200 {
            return Err(format!("poll answered {status}"));
        }
        let document = json(&raw)?;
        match document.get("status").and_then(Json::as_str) {
            Some("completed" | "failed") => break (document, raw),
            _ if waiting.elapsed() > JOB_DEADLINE => {
                return Err(format!("job {job} unfinished after {JOB_DEADLINE:?}"))
            }
            _ => std::thread::sleep(POLL_INTERVAL),
        }
    };
    let finished = Instant::now();

    let root = tr.record(ROOT, "", None, program, start, finished);
    tr.record("server.ack", "", Some(root), program, start, acked);
    let wait = tr.record("queue.wait", "", Some(root), program, waiting, finished);
    for &(sent, answered) in &polls {
        tr.record("server.poll", "", Some(wait), program, sent, answered);
    }

    check(input, &ack, &document)?;
    let mut first = first_results.lock().expect("result map lock");
    match first.get(&input.source) {
        Some(earlier) if earlier.as_slice() != without_job_id(&raw) => {
            return Err("a repeated submission returned a different result document".into())
        }
        Some(_) => {}
        None => {
            first.insert(input.source.clone(), without_job_id(&raw).to_vec());
        }
    }
    Ok(Done {
        traced: tr.enabled(),
        finished,
        latency: finished - start,
        ack: acked - start,
        polls: polls.len() as u64,
        result_bytes: raw.len() as u64,
    })
}

/// The oracle checks of `inproc`, on the wire documents.
fn check(input: &Input, ack: &Json, done: &Json) -> Result<(), String> {
    if done.get("status").and_then(Json::as_str) != Some("completed") {
        return Err(format!("job did not complete: {}", done.encode()));
    }
    let analysis = ack.get("analysis").ok_or("no analysis in the 202")?;
    if analysis.get("error").is_some() || analysis.get("aborted") != Some(&Json::Null) {
        return Err(format!("static analysis failed: {}", analysis.encode()));
    }
    if analysis.get("violations").and_then(Json::as_array) != Some(&[]) {
        return Err("Core violations in the static report".into());
    }
    let findings = analysis
        .get("findings")
        .and_then(Json::as_array)
        .ok_or("no findings array")?;
    let rows = done
        .get("result")
        .and_then(|r| r.get("rows"))
        .and_then(Json::as_array)
        .ok_or("no result rows")?;
    let named = cerberus::memory::ModelConfig::all_named().len();
    if rows.len() != named {
        return Err(format!("{} rows, expected {named}", rows.len()));
    }
    let cells = rows.iter().map(|row| {
        let model = row.get("model").and_then(Json::as_str).unwrap_or("?");
        match row.get("outcomes").and_then(Json::as_array) {
            Some([cell]) => Ok((model, cell)),
            _ => Err(format!("{model}: expected exactly one outcome")),
        }
    });
    match &input.oracle {
        Oracle::Expect(expect) => {
            let mut dynamic = Vec::new();
            for cell in cells {
                let (model, cell) = cell?;
                if expect.get("matrix").and_then(|m| m.get(model)) != Some(cell) {
                    return Err(format!(
                        "{model}: cell differs from .expect: {}",
                        cell.encode()
                    ));
                }
                if let Some(ub) = cell.get("ub").and_then(Json::as_str) {
                    dynamic.push(ub);
                }
            }
            let reported = |ub: &str| {
                findings
                    .iter()
                    .any(|f| f.get("ub").and_then(Json::as_str) == Some(ub))
            };
            if let Some(ub) = dynamic.into_iter().find(|ub| !reported(ub)) {
                return Err(format!("UB {ub} not in the static report"));
            }
        }
        Oracle::Reference { exit, stdout } => {
            for cell in cells {
                let (model, cell) = cell?;
                let ok = cell.get("kind").and_then(Json::as_str) == Some("return")
                    && cell.get("value").and_then(Json::as_int) == Some(*exit)
                    && cell.get("stdout").and_then(Json::as_str) == Some(stdout);
                if !ok {
                    return Err(format!(
                        "{model}: expected return {exit} printing {stdout:?}, got {}",
                        cell.encode()
                    ));
                }
            }
            if findings
                .iter()
                .any(|f| f.get("severity").and_then(Json::as_str) == Some("must"))
            {
                return Err("Must finding on a UB-free program".into());
            }
        }
    }
    Ok(())
}

/// What one closed-loop window measured.
struct Loop {
    done: Vec<Done>,
    timeline: stats::Timeline,
    tracer: Tracer,
}

/// Run the closed loop until `duration` has passed (jobs in flight then
/// finish and count), sampling the server's CPU time once per slice. With an
/// enabled `tracer`, every other submission is traced and the rest give the
/// untraced baseline, under the same load.
fn closed_loop(
    server: &Server,
    plan: &Plan,
    duration: Duration,
    tracer: Tracer,
    outcome: &mut Outcome,
) -> Result<Loop, String> {
    let pid = server.pid();
    let first_results = Mutex::default();
    let cursor = AtomicUsize::new(0);
    let running = AtomicBool::new(true);
    let start = Instant::now();
    let deadline = start + duration;
    let mut timeline = stats::Timeline::new(start, stats::read_and_reset(&pid)?);
    let per_client = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| -> Result<(), String> {
            while running.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                let now = Instant::now();
                if timeline.due(now) {
                    timeline.boundary(now, stats::read_and_reset(&pid)?);
                }
            }
            Ok(())
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut tr = Tracer::new(tracer.enabled(), tracer.origin());
                let mut off = Tracer::new(false, tracer.origin());
                let (first_results, cursor) = (&first_results, &cursor);
                scope.spawn(move || {
                    let mut log = Vec::new();
                    while Instant::now() < deadline {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&index) = plan.sequence.get(k) else {
                            eprintln!("cerberus-perfbench: submission plan exhausted");
                            break;
                        };
                        let input = &plan.inputs[index];
                        let tr = if k % 2 == 1 { &mut tr } else { &mut off };
                        let result =
                            submit_and_check(server.addr, input, first_results, k as u64, tr);
                        log.push((input.label.clone(), result));
                    }
                    (log, tr)
                })
            })
            .collect();
        let per_client: Vec<_> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        running.store(false, Ordering::Relaxed);
        monitor
            .join()
            .expect("progress monitor panicked")
            .map(|()| per_client)
    })?;
    timeline.boundary(Instant::now(), stats::read_and_reset(&pid)?);
    let mut tracer = tracer;
    let mut done = Vec::new();
    for (log, tr) in per_client {
        tracer.absorb(tr);
        for (label, result) in log {
            outcome.check(&label, result.as_ref().map(|_| ()).map_err(Clone::clone));
            done.extend(result.ok());
        }
    }
    for d in &done {
        timeline.program(d.finished, d.latency, d.ack);
    }
    Ok(Loop {
        done,
        timeline,
        tracer,
    })
}

/// The counters of one `/api/v0/stats` snapshot.
#[derive(Debug, Default, Clone, Copy)]
struct QueueSnapshot {
    result_hits: u64,
    result_lookups: u64,
    elab_hits: u64,
    elab_lookups: u64,
    stolen: u64,
    depth: u64,
}

fn queue_stats(addr: SocketAddr) -> Result<QueueSnapshot, String> {
    let (status, body) = request(addr, "GET", "/api/v0/stats", "")?;
    if status != 200 {
        return Err(format!("GET /api/v0/stats answered {status}"));
    }
    let stats = json(&body)?;
    let int = |v: Option<&Json>| v.and_then(Json::as_int).unwrap_or(0) as u64;
    let cache = |name: &str| {
        let c = stats.get(name);
        let hits = int(c.and_then(|c| c.get("hits")));
        (hits, hits + int(c.and_then(|c| c.get("misses"))))
    };
    let (result_hits, result_lookups) = cache("result_cache");
    let (elab_hits, elab_lookups) = cache("elaboration_cache");
    let stolen = stats
        .get("workers")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|w| int(w.get("stolen")))
        .sum();
    Ok(QueueSnapshot {
        result_hits,
        result_lookups,
        elab_hits,
        elab_lookups,
        stolen,
        depth: int(stats.get("depth")),
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let ((plan, server), setup_s) = timed_setup(|| setup(args))?;
    let mut outcome = Outcome::default();
    let origin = Instant::now();

    if !args.trace {
        let timed = closed_loop(
            &server,
            &plan,
            args.seconds,
            Tracer::new(false, origin),
            &mut outcome,
        )?;
        crate::report_end_to_end(
            &args.workload,
            setup_s,
            &timed.timeline,
            &mut outcome.metrics,
        );
        return Ok(outcome);
    }

    // Traced run: idle requests, then the closed loop with the queue
    // sampled from outside.
    let mut idle = Vec::with_capacity(IDLE_REQUESTS);
    for _ in 0..IDLE_REQUESTS {
        let sent = Instant::now();
        let (status, _) = request(server.addr, "GET", "/api/v0/models", "")?;
        idle.push(stats::ms(sent.elapsed()));
        if status != 200 {
            return Err(format!("GET /api/v0/models answered {status}"));
        }
    }
    let before = queue_stats(server.addr)?;
    let stop = AtomicBool::new(false);
    let (traced, depth_max) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut depth_max = 0;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(snapshot) = queue_stats(server.addr) {
                    depth_max = depth_max.max(snapshot.depth);
                }
                std::thread::sleep(STATS_EVERY);
            }
            depth_max
        });
        let traced = closed_loop(
            &server,
            &plan,
            args.seconds,
            Tracer::new(true, origin),
            &mut outcome,
        );
        stop.store(true, Ordering::Relaxed);
        (traced, sampler.join().expect("stats sampler panicked"))
    });
    let traced = traced?;
    let after = queue_stats(server.addr)?;

    let (with, without): (Vec<&Done>, Vec<&Done>) = traced.done.iter().partition(|d| d.traced);
    let untraced_time_s: f64 = without.iter().map(|d| d.latency.as_secs_f64()).sum();
    let counters = Counters {
        result_bytes: with.iter().map(|d| d.result_bytes).sum(),
        idle_request_ms: stats::median(&idle),
        polls: with.iter().map(|d| d.polls).sum(),
        result_cache_hits: after.result_hits - before.result_hits,
        result_cache_lookups: after.result_lookups - before.result_lookups,
        elab_cache_hits: after.elab_hits - before.elab_hits,
        elab_cache_lookups: after.elab_lookups - before.elab_lookups,
        stolen: after.stolen - before.stolen,
        depth_max,
        untraced_programs_per_s: without.len() as f64 / untraced_time_s,
        error_ratio: outcome.error_ratio(),
        ..Counters::default()
    };
    let accounting = Accounting::of(traced.tracer.spans());
    layers::report(
        &accounting,
        &counters,
        traced.tracer.spans().len(),
        &mut outcome.metrics,
    );
    let path = crate::spans_path(args);
    traced
        .tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("cerberus-perfbench: spans written to {}", path.display());
    Ok(outcome)
}
