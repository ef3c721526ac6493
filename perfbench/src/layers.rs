//! The per-layer metrics of a traced run. Every workload reports the same
//! names; a layer a workload does not reach (or cannot observe from outside
//! the process, as on `service`) reads 0.
//!
//! Times are milliseconds per program. Counts are per program, except the
//! bases of ratios and the totals named as such (`parser.calls`,
//! `pipeline.executions`, `analysis.solver_queries`, `exec.budget_exhausted`,
//! `queue.*_lookups`, `queue.stolen`, `trace.spans`).

use cerberus::memory::config::{EngineKind, ModelConfig};

use crate::trace::Accounting;
use crate::Metrics;

/// Layers whose share of self time is reported, by crate name.
pub const LAYERS: [&str; 9] = [
    "parser", "ail", "elab", "analysis", "pipeline", "exec", "wire", "server", "queue",
];

/// Counters gathered next to the spans.
#[derive(Debug, Default)]
pub struct Counters {
    pub source_bytes: u64,
    pub core_bytes: u64,
    pub paths_explored: u64,
    pub paths_pruned: u64,
    pub steps_used: u64,
    pub solver_queries: u64,
    pub solver_memo_hits: u64,
    pub budget_exhausted: u64,
    pub result_bytes: u64,
    pub idle_request_ms: f64,
    pub polls: u64,
    pub result_cache_hits: u64,
    pub result_cache_lookups: u64,
    pub elab_cache_hits: u64,
    pub elab_cache_lookups: u64,
    pub stolen: u64,
    pub depth_max: u64,
    /// Programs per second of the run's untraced twins, over the programs'
    /// own time (the traced programs are measured the same way).
    pub untraced_programs_per_s: f64,
    pub error_ratio: f64,
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

pub fn report(acc: &Accounting, c: &Counters, spans: usize, m: &mut Metrics) {
    let per_program = |x: u64| ratio(x, acc.programs);
    let self_ms = |name: &str| acc.per_program_ms(acc.get(name).self_ns);
    let duration_ms = |name: &str| acc.per_program_ms(acc.get(name).duration_ns);
    let engine_ms = |engine: EngineKind| {
        let ns = acc
            .by_attr
            .iter()
            .filter(|((name, model), _)| {
                *name == "exec.run" && ModelConfig::by_name(model).map(|m| m.engine) == Some(engine)
            })
            .map(|(_, ns)| ns)
            .sum();
        acc.per_program_ms(ns)
    };

    m.put("parser.busy_ms", self_ms("parser.parse"), "ms");
    m.put(
        "parser.calls",
        acc.get("parser.parse").count as f64,
        "count",
    );
    m.put("parser.source_bytes", per_program(c.source_bytes), "bytes");
    m.put("ail.busy_ms", self_ms("ail.desugar"), "ms");
    m.put("elab.busy_ms", self_ms("elab.elaborate"), "ms");
    m.put("elab.core_bytes", per_program(c.core_bytes), "bytes");

    m.put(
        "analysis.validate_ms",
        duration_ms("analysis.validate"),
        "ms",
    );
    m.put("analysis.interp_ms", self_ms("analysis.interp"), "ms");
    m.put(
        "analysis.paths_explored",
        per_program(c.paths_explored),
        "count",
    );
    m.put(
        "analysis.paths_pruned",
        per_program(c.paths_pruned),
        "count",
    );
    m.put("analysis.steps_used", per_program(c.steps_used), "count");
    m.put("analysis.solver_queries", c.solver_queries as f64, "count");
    m.put(
        "analysis.solver_memo_hit_ratio",
        ratio(c.solver_memo_hits, c.solver_queries),
        "ratio",
    );

    m.put(
        "pipeline.execute_bounded_ms",
        duration_ms("pipeline.execute_bounded"),
        "ms",
    );
    m.put(
        "pipeline.executions",
        acc.get("pipeline.execute_bounded").count as f64,
        "count",
    );
    m.put(
        "pipeline.exec_overhead_ms",
        self_ms("pipeline.execute_bounded"),
        "ms",
    );
    m.put("exec.run_ms", duration_ms("exec.run"), "ms");
    m.put(
        "exec.concrete_engine_ms",
        engine_ms(EngineKind::Concrete),
        "ms",
    );
    m.put(
        "exec.symbolic_engine_ms",
        engine_ms(EngineKind::Symbolic),
        "ms",
    );
    m.put("exec.budget_exhausted", c.budget_exhausted as f64, "count");
    m.put("wire.render_ms", self_ms("wire.render"), "ms");
    m.put("wire.result_bytes", per_program(c.result_bytes), "bytes");

    m.put("server.idle_request_ms", c.idle_request_ms, "ms");
    m.put("server.ack_ms", self_ms("server.ack"), "ms");
    let polls = acc.get("server.poll");
    m.put(
        "server.poll_ms",
        if polls.count == 0 {
            0.0
        } else {
            polls.self_ns as f64 / 1e6 / polls.count as f64
        },
        "ms",
    );
    m.put("server.polls_per_job", per_program(c.polls), "count");
    m.put("queue.wait_ms", self_ms("queue.wait"), "ms");
    m.put(
        "queue.result_cache_hit_ratio",
        ratio(c.result_cache_hits, c.result_cache_lookups),
        "ratio",
    );
    m.put(
        "queue.result_cache_lookups",
        c.result_cache_lookups as f64,
        "count",
    );
    m.put(
        "queue.elab_cache_hit_ratio",
        ratio(c.elab_cache_hits, c.elab_cache_lookups),
        "ratio",
    );
    m.put(
        "queue.elab_cache_lookups",
        c.elab_cache_lookups as f64,
        "count",
    );
    m.put("queue.stolen", c.stolen as f64, "count");
    m.put("queue.depth_max", c.depth_max as f64, "count");

    for layer in LAYERS {
        m.put(
            &format!("share.{layer}_pct"),
            acc.layer_share_pct(layer),
            "%",
        );
    }
    m.put("trace.named_share_pct", acc.named_share_pct(), "%");
    let traced = if acc.program_ns == 0 {
        0.0
    } else {
        acc.programs as f64 / (acc.program_ns as f64 / 1e9)
    };
    m.put("trace.programs_per_s", traced, "1/s");
    m.put(
        "trace.untraced_programs_per_s",
        c.untraced_programs_per_s,
        "1/s",
    );
    m.put(
        "trace.overhead_pct",
        if c.untraced_programs_per_s == 0.0 {
            0.0
        } else {
            100.0 * (1.0 - traced / c.untraced_programs_per_s)
        },
        "%",
    );
    m.put("trace.spans", spans as f64, "count");
    m.put("error_ratio", c.error_ratio, "ratio");
}
