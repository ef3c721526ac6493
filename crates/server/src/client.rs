//! A minimal HTTP/1.1 client for the service's own API — used by the
//! `cerberus-serve --smoke` CI check and the workspace integration tests.
//! One request per connection, matching the server's `Connection: close`
//! discipline.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cerberus_wire::json::Json;

/// Issue one request and parse the JSON response body.
///
/// `addr` is `host:port`; `body`, when given, is sent as `application/json`.
/// Returns the status code and the decoded body (or `Json::Null` for an
/// empty/non-JSON body).
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, Json)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let body = body.unwrap_or_default();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    parse_response(&response)
}

fn parse_response(raw: &[u8]) -> std::io::Result<(u16, Json)> {
    let bad = |message: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header/body separator in response"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 response head"))?;
    let status_line = head.lines().next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let body = &raw[split + 4..];
    let document = if body.is_empty() {
        Json::Null
    } else {
        let text = std::str::from_utf8(body).map_err(|_| bad("non-UTF-8 response body"))?;
        Json::parse(text).unwrap_or(Json::Null)
    };
    Ok((status, document))
}

/// Poll `GET /api/v0/jobs/{id}` until the job reaches a terminal status.
pub fn poll_job(addr: &str, id: i128, deadline: Duration) -> std::io::Result<Json> {
    let start = Instant::now();
    loop {
        let (status, body) = http_request(addr, "GET", &format!("/api/v0/jobs/{id}"), None)?;
        if status != 200 {
            return Err(std::io::Error::other(format!(
                "poll of job {id} answered {status}: {}",
                body.encode()
            )));
        }
        match body.get("status").and_then(Json::as_str) {
            Some("completed" | "failed") => return Ok(body),
            _ if start.elapsed() > deadline => {
                return Err(std::io::Error::other(format!(
                    "job {id} still not finished after {deadline:?}"
                )))
            }
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Wait (connect-retry) until a server answers on `addr`.
pub fn wait_for_server(addr: &str, deadline: Duration) -> std::io::Result<()> {
    let start = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(_) => return Ok(()),
            Err(e) if start.elapsed() > deadline => {
                return Err(std::io::Error::other(format!(
                    "no server on {addr} after {deadline:?}: {e}"
                )))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// The end-to-end smoke drill run by CI against a live server:
/// models are listed, a submission completes with an agreeing matrix, an
/// identical resubmission is acknowledged from the analysis cache and
/// finishes with the same document without a second elaboration, a
/// `malloc` of 2⁴⁰ bytes ends in resource-exhausted rows, a `main` of
/// 20,000 statements returns under both models, and the server keeps
/// answering after each.
///
/// Returns a human-readable transcript on success; errors describe the first
/// failed step.
pub fn smoke(addr: &str, deadline: Duration) -> std::io::Result<String> {
    let mut transcript = String::new();
    wait_for_server(addr, deadline)?;
    let fail = |step: &str, body: &Json| {
        std::io::Error::other(format!("{step}: unexpected response {}", body.encode()))
    };

    let (status, body) = http_request(addr, "GET", "/api/v0/models", None)?;
    if status != 200 || body.get("models").and_then(Json::as_array).is_none() {
        return Err(fail("GET /api/v0/models", &body));
    }
    let model_count = body.get("models").and_then(Json::as_array).unwrap().len();
    transcript.push_str(&format!("models: {model_count} named\n"));

    let submission = r#"{"source": "int main(void) { int x = 40; return x + 2; }", "models": ["concrete", "symbolic"]}"#;
    let (status, body) = http_request(addr, "POST", "/api/v0/submit", Some(submission))?;
    let Some(id) = body.get("job").and_then(Json::as_int) else {
        return Err(fail("POST /api/v0/submit", &body));
    };
    if status != 202 {
        return Err(fail("POST /api/v0/submit", &body));
    }
    let finished = poll_job(addr, id, deadline)?;
    let agreed = finished
        .get("result")
        .and_then(|r| r.get("all_agree"))
        .and_then(Json::as_bool);
    if agreed != Some(true) {
        return Err(fail("job result", &finished));
    }
    transcript.push_str(&format!("job {id}: completed, all models agree\n"));

    let (status, before) = http_request(addr, "GET", "/api/v0/stats", None)?;
    if status != 200 {
        return Err(fail("GET /api/v0/stats before resubmission", &before));
    }
    let (_, body) = http_request(addr, "POST", "/api/v0/submit", Some(submission))?;
    let Some(second) = body.get("job").and_then(Json::as_int) else {
        return Err(fail("resubmission", &body));
    };
    let repeated = poll_job(addr, second, deadline)?;
    if without_id(&repeated) != without_id(&finished) {
        return Err(fail("resubmission", &repeated));
    }
    let (status, after) = http_request(addr, "GET", "/api/v0/stats", None)?;
    let counter = |stats: &Json, cache: &str, member: &str| {
        stats
            .get(cache)
            .and_then(|c| c.get(member))
            .and_then(Json::as_int)
            .unwrap_or_default()
    };
    let elaborations = counter(&after, "elaboration_cache", "misses");
    let analysis_hits = counter(&after, "analysis_cache", "hits");
    if status != 200
        || elaborations > counter(&before, "elaboration_cache", "misses")
        || analysis_hits <= counter(&before, "analysis_cache", "hits")
    {
        return Err(fail("GET /api/v0/stats after resubmission", &after));
    }
    transcript.push_str(&format!(
        "job {second}: resubmission finished with the same document without a new \
         elaboration ({elaborations} misses), acknowledged from the analysis cache \
         ({analysis_hits} hits)\n"
    ));

    let huge = r##"{"source": "#include <stdlib.h>\nint main(void) { char *p = malloc(1UL << 40); return p != 0; }", "models": ["concrete", "symbolic"]}"##;
    let (_, body) = http_request(addr, "POST", "/api/v0/submit", Some(huge))?;
    let Some(third) = body.get("job").and_then(Json::as_int) else {
        return Err(fail("huge allocation", &body));
    };
    let finished = poll_job(addr, third, deadline)?;
    let exhausted = outcomes(&finished)
        .filter(|o| {
            o.get("kind").and_then(Json::as_str) == Some("resource-exhausted")
                && o.get("budget").and_then(Json::as_str) == Some("allocated-bytes budget")
        })
        .count();
    if exhausted != 2 {
        return Err(fail("huge allocation", &finished));
    }
    let (status, stats) = http_request(addr, "GET", "/api/v0/stats", None)?;
    if status != 200 {
        return Err(fail("GET /api/v0/stats after the huge allocation", &stats));
    }
    transcript.push_str(&format!(
        "job {third}: a 2^40-byte malloc exhausted the heap budget under both models, \
         and the server still answers\n"
    ));

    let statements = "x = x + 1; ".repeat(20_000);
    let long = format!(
        r#"{{"source": "int main(void) {{ int x = 0; {statements}return x; }}", "models": ["concrete", "symbolic"]}}"#
    );
    let (status, body) = http_request(addr, "POST", "/api/v0/submit", Some(&long))?;
    let Some(fourth) = body.get("job").and_then(Json::as_int) else {
        return Err(fail("long program", &body));
    };
    if status != 202 {
        return Err(fail("long program", &body));
    }
    let finished = poll_job(addr, fourth, deadline)?;
    let returned = outcomes(&finished)
        .filter(|o| {
            o.get("kind").and_then(Json::as_str) == Some("return")
                && o.get("value").and_then(Json::as_int) == Some(20_000)
        })
        .count();
    if returned != 2 {
        return Err(fail("long program", &finished));
    }
    let (status, stats) = http_request(addr, "GET", "/api/v0/stats", None)?;
    if status != 200 {
        return Err(fail("GET /api/v0/stats after the long program", &stats));
    }
    transcript.push_str(&format!(
        "job {fourth}: a 20,000-statement main returned 20000 under both models, \
         and the server still answers\n"
    ));
    Ok(transcript)
}

/// A job document without its `"job"` id: what two runs of one submission
/// share.
fn without_id(job: &Json) -> Json {
    let mut job = job.clone();
    if let Json::Obj(members) = &mut job {
        members.remove("job");
    }
    job
}

/// Every outcome of every row of a finished job's matrix.
fn outcomes(job: &Json) -> impl Iterator<Item = &Json> {
    job.get("result")
        .and_then(|r| r.get("rows"))
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|row| row.get("outcomes").and_then(Json::as_array))
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_parsed_and_malformed_ones_rejected() {
        let (status, body) =
            parse_response(b"HTTP/1.1 200 OK\r\ncontent-length: 13\r\n\r\n{\"x\": [1, 2]}")
                .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body.get("x").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert!(parse_response(b"HTTP/1.1 OK\r\n\r\n").is_err());
        assert!(parse_response(b"no separator at all").is_err());
        let (status, body) = parse_response(b"HTTP/1.1 204 No Content\r\n\r\n").unwrap();
        assert_eq!((status, body), (204, Json::Null));
    }

    #[test]
    fn the_smoke_drill_passes_against_a_live_server() {
        let server = match crate::serve("127.0.0.1:0", crate::ServerConfig::default()) {
            Ok(server) => server,
            Err(e) => {
                // Sandboxes without loopback cannot run the drill.
                eprintln!("skipping: cannot bind loopback: {e}");
                return;
            }
        };
        let addr = server.local_addr().to_string();
        let transcript = smoke(&addr, Duration::from_secs(60)).expect("smoke drill");
        assert!(transcript.contains("all models agree"), "{transcript}");
        assert!(transcript.contains("same document"), "{transcript}");
        assert!(transcript.contains("analysis cache"), "{transcript}");
        assert!(transcript.contains("heap budget"), "{transcript}");
        assert!(transcript.contains("20,000-statement"), "{transcript}");
        server.shutdown();
    }
}
