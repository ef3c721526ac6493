//! End-to-end benchmark of the cerberus oracle: a C program goes in and comes
//! out as a ten-model verdict matrix plus a static UB report, every output
//! checked against an independent oracle. See `perfbench/README.md`.
//!
//! ```text
//! cerberus-perfbench --workload litmus|csmith_large|service
//!                    --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` they are the per-layer ones from a traced run. The exit
//! code is 0 only when every output matched its oracle.

mod inproc;
mod layers;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use cerberus_wire::json::Json;

/// How many times a run performs its set-up; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The benchmark's command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(words: Vec<String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut words = words.into_iter();
    while let Some(flag) = words.next() {
        let value = words
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what} must be a non-negative integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number("--seed")?),
            "--seconds" => seconds = Some(number("--seconds")?),
            "--trace" => trace = Some(number("--trace")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !inproc::WORKLOADS.contains(&workload.as_str()) && workload != service::WORKLOAD {
        return Err(format!(
            "unknown workload {workload:?} (litmus, csmith_large, service)"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend only
/// on `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Metrics in print order: name, value, unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }
}

/// What one run attempted, what failed its oracle, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for standard error.
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn check(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = verdict {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(format!("{label}: {message}"));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The latency percentile reported as `latency_tail_ms`, recorded per
/// workload in `BENCHMARK.json`: p99 where a run holds tens of thousands of
/// programs, p90 where it holds hundreds (`csmith_large`), or where p99
/// would rest on under twenty samples and move by a sixth between runs
/// (`service`, under two thousand programs).
pub fn tail_percentile(workload: &str) -> f64 {
    match workload {
        "litmus" => 99.0,
        _ => 90.0,
    }
}

/// The end-to-end metrics of an untraced run, from its set-up time and the
/// timeline of its window.
pub fn report_end_to_end(
    workload: &str,
    setup_s: f64,
    timeline: &stats::Timeline,
    metrics: &mut Metrics,
) {
    let summary = timeline.summary(tail_percentile(workload));
    metrics.put("setup_s", setup_s, "s");
    metrics.put("programs_per_s", summary.programs_per_s, "1/s");
    metrics.put("latency_p50_ms", summary.latency_p50_ms, "ms");
    metrics.put("latency_tail_ms", summary.latency_tail_ms, "ms");
    metrics.put("ack_p50_ms", summary.ack_p50_ms, "ms");
    metrics.put("cpu_ms_per_program", summary.cpu_ms_per_program, "ms");
    metrics.put("peak_rss_mb", summary.peak_rss_mb, "MiB");
}

/// Run `setup` [`SETUP_REPS`] times; return the last result and the median
/// duration in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed().as_secs_f64());
        // Dropping the previous set-up (for the service: stopping its server)
        // happens here, outside the timed interval.
        last = Some(value);
    }
    Ok((last.expect("SETUP_REPS > 0"), stats::median(&times)))
}

/// Where a traced run writes its spans: under the build directory, which the
/// repository ignores.
pub fn spans_path(args: &Args) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(base)
        .join("perfbench")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

fn render(outcome: &Outcome) -> String {
    let metrics = outcome.metrics.0.iter().map(|(name, value, unit)| {
        (
            name.clone(),
            Json::obj([("value", Json::Float(*value)), ("unit", Json::str(*unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(i128::from(outcome.attempted))),
        ("failed", Json::Int(i128::from(outcome.failed))),
        ("metrics", Json::Obj(metrics.collect())),
    ])
    .encode()
}

fn main() {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("cerberus-perfbench: {message}");
            std::process::exit(2);
        }
    };
    let result = if args.workload == service::WORKLOAD {
        service::run(&args)
    } else {
        inproc::run(&args)
    };
    match result {
        Ok(outcome) => {
            for failure in &outcome.failures {
                eprintln!("cerberus-perfbench: FAILED {failure}");
            }
            println!("{}", render(&outcome));
            std::process::exit(if outcome.correct() { 0 } else { 1 });
        }
        Err(message) => {
            eprintln!("cerberus-perfbench: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_are_validated() {
        let args = parse_args(words("--workload litmus --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(args.workload, "litmus");
        assert_eq!(
            (args.seed, args.seconds.as_secs(), args.trace),
            (3, 2, true)
        );
        assert!(parse_args(words("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(words("--workload litmus --seed 1 --seconds 0")).is_err());
        assert!(parse_args(words("--workload litmus --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(words("--workload litmus --seconds 1")).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.check("a", Ok(()));
        outcome.metrics.put("setup_s", 0.5, "s");
        let line = Json::parse(&render(&outcome)).unwrap();
        let Json::Obj(members) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
