//! Order statistics and process resource readings (from `/proc`).

use std::time::{Duration, Instant};

/// The `p`-th percentile (0..=100) of `samples`, interpolating linearly
/// between the closest ranks. `samples` need not be sorted.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Length of one slice of a timed window.
pub const SLICE: Duration = Duration::from_secs(1);

/// A timed window cut into slices of about [`SLICE`]: [`Reading`]s of the
/// working process at slice boundaries, and each program's completion time,
/// latency and time to its static report. Throughput, CPU per program, peak
/// memory and the two medians are medians over slices, so a burst of load
/// from elsewhere on the host, or the one heaviest program of a run, moves a
/// slice, not the result; the tail percentile is taken over all programs.
#[derive(Debug)]
pub struct Timeline {
    /// (time, reading) at slice boundaries; the first is the window start.
    boundaries: Vec<(Instant, Reading)>,
    /// (completion time, latency ms, ack ms) per program.
    programs: Vec<(Instant, f64, f64)>,
}

/// What a [`Timeline`] reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub programs_per_s: f64,
    pub cpu_ms_per_program: f64,
    pub latency_p50_ms: f64,
    pub ack_p50_ms: f64,
    pub latency_tail_ms: f64,
    pub peak_rss_mb: f64,
}

impl Timeline {
    pub fn new(start: Instant, reading: Reading) -> Self {
        Timeline {
            boundaries: vec![(start, reading)],
            programs: Vec::new(),
        }
    }

    /// Whether a slice has passed since the last boundary.
    pub fn due(&self, now: Instant) -> bool {
        let (last, _) = self.boundaries[self.boundaries.len() - 1];
        now.duration_since(last) >= SLICE
    }

    /// Close a slice at `at`. The last boundary must follow every program.
    pub fn boundary(&mut self, at: Instant, reading: Reading) {
        self.boundaries.push((at, reading));
    }

    pub fn program(&mut self, done: Instant, latency: Duration, ack: Duration) {
        self.programs.push((done, ms(latency), ms(ack)));
    }

    /// Medians over slices, and the `tail`-th latency percentile over all
    /// programs. A trailing slice shorter than half a [`SLICE`] is dropped
    /// unless it is the only one.
    pub fn summary(&self, tail: f64) -> Summary {
        let (mut per_s, mut cpu, mut rss) = (vec![], vec![], vec![]);
        let (mut latency, mut ack) = (vec![], vec![]);
        for pair in self.boundaries.windows(2) {
            let ((t0, c0), (t1, c1)) = (pair[0], pair[1]);
            let seconds = t1.duration_since(t0).as_secs_f64();
            if seconds < SLICE.as_secs_f64() / 2.0 && !per_s.is_empty() {
                continue;
            }
            let inside: Vec<_> = self
                .programs
                .iter()
                .filter(|(done, _, _)| t0 < *done && *done <= t1)
                .collect();
            per_s.push(inside.len() as f64 / seconds);
            cpu.push((c1.cpu_ms - c0.cpu_ms) / inside.len().max(1) as f64);
            rss.push(c1.peak_rss_mb);
            if !inside.is_empty() {
                latency.push(median(&inside.iter().map(|p| p.1).collect::<Vec<_>>()));
                ack.push(median(&inside.iter().map(|p| p.2).collect::<Vec<_>>()));
            }
        }
        let all: Vec<f64> = self.programs.iter().map(|p| p.1).collect();
        Summary {
            programs_per_s: median(&per_s),
            cpu_ms_per_program: median(&cpu),
            latency_p50_ms: median(&latency),
            ack_p50_ms: median(&ack),
            latency_tail_ms: percentile(&all, tail),
            peak_rss_mb: median(&rss),
        }
    }
}

/// `/proc` reports CPU times in clock ticks of `USER_HZ`, which Linux fixes
/// at 100 for user space on every architecture it exposes `/proc` on.
const USER_HZ: f64 = 100.0;

/// Resources of the working process at a slice boundary.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// User + system CPU time so far (all threads, exited ones included).
    pub cpu_ms: f64,
    /// Peak resident set size (`VmHWM`) since the previous reading, in MiB.
    pub peak_rss_mb: f64,
}

/// Read process `pid`'s resources, then reset its `VmHWM` to the current
/// resident size (`/proc/<pid>/clear_refs`), so the next reading's peak
/// covers only the time since this one.
pub fn read_and_reset(pid: &str) -> Result<Reading, String> {
    let reading = Reading {
        cpu_ms: cpu_ms(pid)?,
        peak_rss_mb: peak_rss_mb(pid)?,
    };
    let path = format!("/proc/{pid}/clear_refs");
    std::fs::write(&path, "5").map_err(|e| format!("{path}: {e}"))?;
    Ok(reading)
}

/// User + system CPU time of process `pid` (all its threads, including
/// exited ones), in milliseconds.
fn cpu_ms(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name (field 2) may contain spaces; fields resume after its
    // closing parenthesis, starting with field 3 (state).
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("{path}: malformed"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: missing field {}", i + 3))
    };
    // utime and stime are fields 14 and 15.
    Ok((tick(11)? + tick(12)?) / USER_HZ * 1e3)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = text
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert!((percentile(&xs, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn timeline_metrics_are_slice_medians() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        let reading = |cpu_ms, peak_rss_mb| Reading {
            cpu_ms,
            peak_rss_mb,
        };
        let mut timeline = Timeline::new(t, reading(0.0, 99.0));
        // Two slices of 10 programs at 10 ms, one slow slice of 2 programs
        // at 50 ms, and a short tail to drop.
        for i in 0..10 {
            timeline.program(t + ms(50 + i * 90), ms(10), ms(1));
            timeline.program(t + SLICE + ms(50 + i * 90), ms(10), ms(1));
        }
        timeline.program(t + SLICE * 2 + ms(100), ms(50), ms(5));
        timeline.program(t + SLICE * 2 + ms(600), ms(50), ms(5));
        timeline.program(t + SLICE * 3 + ms(100), ms(60), ms(6));
        for (i, cpu) in [100.0, 200.0, 400.0].into_iter().enumerate() {
            timeline.boundary(t + SLICE * (i as u32 + 1), reading(cpu, 5.0 + i as f64));
        }
        timeline.boundary(t + SLICE * 3 + SLICE / 4, reading(401.0, 50.0));
        let summary = timeline.summary(50.0);
        assert!((summary.programs_per_s - 10.0).abs() < 1e-9);
        assert!((summary.cpu_ms_per_program - 10.0).abs() < 1e-9);
        assert_eq!((summary.latency_p50_ms, summary.ack_p50_ms), (10.0, 1.0));
        assert_eq!(summary.latency_tail_ms, 10.0);
        assert_eq!(summary.peak_rss_mb, 6.0);
    }

    #[test]
    fn own_process_resources_are_readable() {
        let reading = read_and_reset("self").unwrap();
        assert!(reading.cpu_ms >= 0.0);
        assert!(reading.peak_rss_mb > 0.0);
    }
}
