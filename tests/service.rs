//! End-to-end drill of the UB-oracle service: boot a real server on an
//! ephemeral loopback port, then drive it purely through the wire protocol —
//! submit, poll to completion, check that a resubmission reuses the memoised
//! artifact, confirm that faulting and over-budget submissions come back as
//! structured rows rather than taking the service down, and check that the
//! front door refuses the connections it cannot hold and recovers.

use std::io::Read;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cerberus_memory::config::ModelConfig;
use cerberus_rs::cerberus_server::client::{http_request, poll_job};
use cerberus_rs::cerberus_server::{serve, Server, ServerConfig, HANDLERS, HANDOFF_CAPACITY};
use cerberus_wire::json::Json;

/// Binding loopback can be forbidden in sandboxed environments; skip (rather
/// than fail) when the listener cannot come up at all.
fn try_serve() -> Option<Server> {
    match serve("127.0.0.1:0", ServerConfig::default()) {
        Ok(server) => Some(server),
        Err(error) => {
            eprintln!("skipping service test: cannot bind loopback: {error}");
            None
        }
    }
}

const DEADLINE: Duration = Duration::from_secs(60);

fn submit_status(addr: &str, body: &str) -> u16 {
    let (status, _) = http_request(addr, "POST", "/api/v0/submit", Some(body)).expect("submit");
    status
}

/// Submit `body`, expect 202, poll the returned job to completion and return
/// its final document.
fn submit_and_wait(addr: &str, body: &str) -> Json {
    let (status, response) =
        http_request(addr, "POST", "/api/v0/submit", Some(body)).expect("submit");
    assert_eq!(
        status,
        202,
        "submit should be accepted: {}",
        response.encode()
    );
    let id = response
        .get("job")
        .and_then(Json::as_int)
        .expect("submit response carries a job id");
    poll_job(addr, id, DEADLINE).expect("job completes before the deadline")
}

fn result_rows(document: &Json) -> &[Json] {
    document
        .get("result")
        .and_then(|result| result.get("rows"))
        .and_then(Json::as_array)
        .expect("completed job carries result rows")
}

fn row_kinds(document: &Json) -> Vec<&str> {
    result_rows(document)
        .iter()
        .filter_map(|row| row.get("outcomes").and_then(Json::as_array))
        .flatten()
        .filter_map(|outcome| outcome.get("kind").and_then(Json::as_str))
        .collect()
}

#[test]
fn the_service_answers_submissions_memoises_and_contains_faults() {
    let Some(server) = try_serve() else { return };
    let addr = server.local_addr().to_string();

    // 1. A well-defined program agrees across models and completes.
    let body = r#"{"source": "int main(void) { int x = 40; return x + 2; }", "models": ["concrete", "symbolic"]}"#;
    let document = submit_and_wait(&addr, body);
    assert_eq!(
        document.get("status").and_then(Json::as_str),
        Some("completed")
    );
    assert_eq!(
        document
            .get("result")
            .and_then(|r| r.get("all_agree"))
            .and_then(Json::as_bool),
        Some(true),
        "well-defined program should agree across models: {}",
        document.encode()
    );
    assert!(row_kinds(&document).iter().all(|kind| *kind == "return"));

    // 2. An identical resubmission finishes with the same document, from the
    //    memoised artifact, and is acknowledged from the analysis cache.
    let counter = |cache: &str, member: &str| {
        let (status, stats) = http_request(&addr, "GET", "/api/v0/stats", None).expect("stats");
        assert_eq!(status, 200);
        stats
            .get(cache)
            .and_then(|c| c.get(member))
            .and_then(Json::as_int)
            .unwrap_or_else(|| panic!("stats carry {cache}.{member}: {}", stats.encode()))
    };
    let elaborations = counter("elaboration_cache", "misses");
    let analysis_hits = counter("analysis_cache", "hits");
    let repeated = submit_and_wait(&addr, body);
    let (Json::Obj(mut first), Json::Obj(mut second)) = (document, repeated) else {
        panic!("job documents are objects");
    };
    first.remove("job");
    second.remove("job");
    assert_eq!(first, second, "a resubmission should finish identically");
    assert_eq!(counter("elaboration_cache", "misses"), elaborations);
    assert!(counter("analysis_cache", "hits") > analysis_hits);

    // 3. A panicking engine is contained as a structured engine-fault row.
    let fault = submit_and_wait(
        &addr,
        r#"{"source": "int main(void) { return 0; }", "models": ["concrete", "panicking"]}"#,
    );
    assert_eq!(
        fault.get("status").and_then(Json::as_str),
        Some("completed")
    );
    let kinds = row_kinds(&fault);
    assert!(
        kinds.contains(&"engine-fault"),
        "panicking model should surface as an engine-fault row: {}",
        fault.encode()
    );
    assert!(
        kinds.contains(&"return"),
        "healthy model should still complete"
    );

    // 4. An over-budget submission comes back as a resource-exhausted row.
    let starved = r#"{"source": "int main(void) { int i; int total = 0; for (i = 0; i < 100000; i = i + 1) { total = total + i; } return 0; }", "models": ["concrete"], "steps": 16}"#;
    let exhausted = submit_and_wait(&addr, starved);
    let kinds = row_kinds(&exhausted);
    assert!(
        !kinds.is_empty()
            && kinds
                .iter()
                .all(|k| *k == "resource-exhausted" || *k == "timeout"),
        "a 16-step budget should exhaust, got: {}",
        exhausted.encode()
    );

    // 5. A program the front end rejects yields a structured failure, not a 500.
    let rejected = submit_and_wait(
        &addr,
        r#"{"source": "int main(void) { return y; }", "models": ["concrete"]}"#,
    );
    assert_eq!(
        rejected.get("status").and_then(Json::as_str),
        Some("failed")
    );
    assert_eq!(
        rejected.get("reason").and_then(Json::as_str),
        Some("rejected")
    );
    assert!(
        rejected.get("error").is_some(),
        "rejection carries the pipeline error"
    );

    // 6. Protocol errors are 4xx, and the server survives all of the above.
    assert_eq!(submit_status(&addr, "{}"), 400, "missing source");
    assert_eq!(
        submit_status(
            &addr,
            r#"{"source": "int main(void) { return 0; }", "models": ["no-such-model"]}"#
        ),
        400,
        "unknown model"
    );
    assert_eq!(
        submit_status(&addr, "not json at all"),
        400,
        "malformed body"
    );
    let (status, _) = http_request(&addr, "GET", "/api/v0/jobs/999999", None).expect("unknown job");
    assert_eq!(status, 404);
    let (status, models) = http_request(&addr, "GET", "/api/v0/models", None).expect("models");
    assert_eq!(status, 200);
    assert!(models
        .get("models")
        .and_then(Json::as_array)
        .is_some_and(|m| !m.is_empty()));

    server.shutdown();
}

/// The first entry of the hostile-input corpus: a 409-byte recursive
/// function whose frames outgrow the call-depth budget's per-frame estimate.
/// Every model's row comes back as call-depth exhaustion, and the service
/// keeps serving.
#[test]
fn a_recursion_with_fat_frames_cannot_take_the_service_down() {
    let Some(server) = try_serve() else { return };
    let addr = server.local_addr().to_string();

    let locals: String = (0..20).map(|i| format!("int x{i} = n + {i}; ")).collect();
    let source = format!(
        "int f(int n) {{ {locals}return f(n + 1) + 1; }} int main(void) {{ return f(0); }}"
    );
    let body = Json::obj([("source", Json::str(&source))]).encode();
    let document = submit_and_wait(&addr, &body);
    assert_eq!(
        document.get("status").and_then(Json::as_str),
        Some("completed")
    );
    let outcomes: Vec<&Json> = result_rows(&document)
        .iter()
        .filter_map(|row| row.get("outcomes").and_then(Json::as_array))
        .flatten()
        .collect();
    assert_eq!(
        outcomes.len(),
        ModelConfig::all_named().len(),
        "one row per named model: {}",
        document.encode()
    );
    for outcome in outcomes {
        assert_eq!(
            outcome.get("kind").and_then(Json::as_str),
            Some("resource-exhausted"),
            "{}",
            document.encode()
        );
        assert_eq!(
            outcome.get("budget").and_then(Json::as_str),
            Some("call-depth budget")
        );
    }

    let (status, _) = http_request(&addr, "GET", "/api/v0/stats", None).expect("stats");
    assert_eq!(status, 200);

    server.shutdown();
}

#[test]
fn submissions_carry_a_static_analysis_over_the_wire() {
    let Some(server) = try_serve() else { return };
    let addr = server.local_addr().to_string();

    // The acknowledgement itself carries the static analyzer's report: a
    // null-pointer store is a Must finding before any model has executed the
    // program, and the dynamic matrix later agrees.
    let body =
        r#"{"source": "int main(void) { int *p = 0; *p = 1; return 0; }", "models": ["concrete"]}"#;
    let (status, response) =
        http_request(&addr, "POST", "/api/v0/submit", Some(body)).expect("submit");
    assert_eq!(status, 202, "{}", response.encode());
    let analysis = response
        .get("analysis")
        .expect("submit acknowledgement carries the static analysis");
    assert_eq!(analysis.get("aborted"), Some(&Json::Null));
    assert_eq!(
        analysis
            .get("violations")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(0),
        "elaborated Core passes the well-formedness validator: {}",
        analysis.encode()
    );
    let findings = analysis
        .get("findings")
        .and_then(Json::as_array)
        .expect("analysis carries findings");
    let null_deref = findings
        .iter()
        .find(|f| f.get("ub").and_then(Json::as_str) == Some("Null_pointer_dereference"))
        .unwrap_or_else(|| panic!("no null-deref finding in {}", analysis.encode()));
    assert_eq!(
        null_deref.get("severity").and_then(Json::as_str),
        Some("must")
    );
    assert_eq!(
        null_deref.get("clause").and_then(Json::as_str),
        Some("6.5.3.2p4")
    );

    // The dynamic oracle confirms the static verdict end-to-end.
    let id = response
        .get("job")
        .and_then(Json::as_int)
        .expect("job id in the acknowledgement");
    let document = poll_job(&addr, id, DEADLINE).expect("job completes");
    assert!(
        row_kinds(&document).contains(&"undef"),
        "dynamic run agrees the program is undefined: {}",
        document.encode()
    );

    // A clean program analyzes clean.
    let (status, response) = http_request(
        &addr,
        "POST",
        "/api/v0/submit",
        Some(r#"{"source": "int main(void) { return 0; }", "models": ["concrete"]}"#),
    )
    .expect("submit");
    assert_eq!(status, 202);
    let analysis = response.get("analysis").expect("analysis member");
    assert_eq!(
        analysis
            .get("findings")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(0),
        "{}",
        analysis.encode()
    );

    server.shutdown();
}

/// Hostile allocations and an output flood: objects of 2⁴⁰ bytes from
/// `malloc`, with static storage and with automatic storage, and a loop over
/// `printf`. Each job completes with one resource-exhausted row per named
/// model, a flood row keeps at most the output budget's worth of stdout, and
/// the service keeps serving.
#[test]
fn huge_allocations_and_output_floods_end_in_resource_exhausted_rows() {
    let Some(server) = try_serve() else { return };
    let addr = server.local_addr().to_string();

    let flood = format!(
        "#include <stdio.h>\nint main(void) {{ while (1) printf(\"{}\\n\"); return 0; }}",
        "x".repeat(63)
    );
    let programs = [
        (
            "#include <stdlib.h>\nint main(void) { char *p = malloc(1UL << 40); return p != 0; }",
            "allocated-bytes budget",
        ),
        (
            "char big[1UL << 40]; int main(void) { return big[0]; }",
            "allocated-bytes budget",
        ),
        (
            "int main(void) { char big[1UL << 40]; big[0] = 1; return big[0]; }",
            "allocated-bytes budget",
        ),
        (flood.as_str(), "output budget"),
    ];
    for (source, budget) in programs {
        let body = Json::obj([("source", Json::str(source))]).encode();
        let document = submit_and_wait(&addr, &body);
        assert_eq!(
            document.get("status").and_then(Json::as_str),
            Some("completed"),
            "{source}"
        );
        let outcomes: Vec<&Json> = result_rows(&document)
            .iter()
            .filter_map(|row| row.get("outcomes").and_then(Json::as_array))
            .flatten()
            .collect();
        assert_eq!(outcomes.len(), ModelConfig::all_named().len(), "{source}");
        for outcome in outcomes {
            assert_eq!(
                outcome.get("kind").and_then(Json::as_str),
                Some("resource-exhausted"),
                "{source}: {}",
                outcome.encode()
            );
            assert_eq!(
                outcome.get("budget").and_then(Json::as_str),
                Some(budget),
                "{source}"
            );
            let stdout = outcome.get("stdout").and_then(Json::as_str).unwrap_or("");
            assert!(stdout.len() <= 1 << 16, "{source}: {} bytes", stdout.len());
        }
    }

    let (status, _) = http_request(&addr, "GET", "/api/v0/stats", None).expect("stats");
    assert_eq!(status, 200);

    server.shutdown();
}

/// The front door is bounded and recovers. A burst of [`HANDLERS`]
/// submissions is never refused. Once idle connections hold every handler
/// and every hand-off slot, the next connection is answered `503` before it
/// sends anything. When they close, the server answers again, and an idle
/// server shuts down promptly, so the blocking `accept` is woken.
#[test]
fn the_front_door_is_bounded_and_recovers() {
    let Some(server) = try_serve() else { return };
    let addr = server.local_addr().to_string();

    let start = Arc::new(Barrier::new(HANDLERS));
    let burst: Vec<_> = (0..HANDLERS)
        .map(|i| {
            let addr = addr.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let body = format!(
                    r#"{{"source": "int main(void) {{ return {i}; }}", "models": ["concrete"]}}"#
                );
                start.wait();
                submit_status(&addr, &body)
            })
        })
        .collect();
    for submission in burst {
        assert_eq!(submission.join().expect("submitter"), 202);
    }

    // Each pause lets the accept thread hand the connection off, and a free
    // handler take it, before the next one arrives.
    let held: Vec<TcpStream> = (0..HANDLERS + HANDOFF_CAPACITY)
        .map(|_| {
            let stream = TcpStream::connect(&addr).expect("connect an idle connection");
            std::thread::sleep(Duration::from_millis(100));
            stream
        })
        .collect();
    let mut refused = TcpStream::connect(&addr).expect("connect past the bound");
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut response = Vec::new();
    refused
        .read_to_end(&mut response)
        .expect("a connection past the bound is answered without sending anything");
    let response = String::from_utf8(response).expect("UTF-8 response");
    assert!(
        response.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "{response}"
    );
    let body = response
        .split_once("\r\n\r\n")
        .and_then(|(_, body)| Json::parse(body).ok())
        .unwrap_or_else(|| panic!("no JSON body in {response}"));
    assert!(
        body.get("error").and_then(Json::as_str).is_some(),
        "{response}"
    );

    drop(held);
    let deadline = Instant::now() + DEADLINE;
    loop {
        match http_request(&addr, "GET", "/api/v0/stats", None) {
            Ok((200, _)) => break,
            // The handlers may not have dropped every closed connection yet.
            Ok((503, _)) | Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            other => panic!("stats after the idle connections closed: {other:?}"),
        }
    }
    let document = submit_and_wait(
        &addr,
        r#"{"source": "int main(void) { return 3; }", "models": ["concrete"]}"#,
    );
    assert_eq!(
        document.get("status").and_then(Json::as_str),
        Some("completed")
    );

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "an idle server took {:?} to shut down",
        started.elapsed()
    );
}
