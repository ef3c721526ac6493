//! Resource budgets for one execution.
//!
//! The §6 validation runs hundreds of generated programs, and the roadmap's
//! UB-oracle service ingests arbitrary C: a pathological program must exhaust
//! a *budget* and surface as a structured outcome, never hang a worker or
//! abort a suite. [`ResourceLimits`] is that budget — steps, wall-clock time,
//! allocation totals, live-allocation count and call depth — carried by the
//! pipeline `Config` and the execution `Driver`, and enforced by the
//! interpreter alone: it checks steps, time and call depth as it runs, and
//! charges every object it asks the memory engine to create or allocate. The
//! engines carry no budget.
//!
//! Exhaustion is reported with a [`ResourceKind`] (which budget) or a
//! [`TimeoutKind`] (which clock), so downstream consumers — the differential
//! matrix, the litmus suite, the fuzz loop — can aggregate without string
//! matching.

/// Which allocation, recursion or output budget was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKind {
    /// The cumulative allocated-bytes budget ([`ResourceLimits::heap_bytes`]).
    HeapBytes,
    /// The live-allocation-count budget
    /// ([`ResourceLimits::max_live_allocations`]).
    LiveAllocations,
    /// The call-depth budget ([`ResourceLimits::call_depth`]).
    CallDepth,
    /// The captured-output budget: a fixed bound on the bytes one execution
    /// may print, set by the interpreter rather than by [`ResourceLimits`].
    Output,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceKind::HeapBytes => write!(f, "allocated-bytes budget"),
            ResourceKind::LiveAllocations => write!(f, "live-allocation budget"),
            ResourceKind::CallDepth => write!(f, "call-depth budget"),
            ResourceKind::Output => write!(f, "output budget"),
        }
    }
}

/// Which clock bounded the execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimeoutKind {
    /// The step budget ([`ResourceLimits::steps`]) ran out — deterministic,
    /// the §6 notion of a timeout.
    StepBudget,
    /// The wall-clock watchdog ([`ResourceLimits::wall_clock_ms`]) fired.
    WallClock,
}

impl std::fmt::Display for TimeoutKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeoutKind::StepBudget => write!(f, "step budget"),
            TimeoutKind::WallClock => write!(f, "wall clock"),
        }
    }
}

/// The resource budget of one execution.
///
/// The defaults are 2M steps, 4 MiB of cumulative allocation, 65,536 live
/// allocations, a call depth of 256 and no wall-clock bound. Every budget but
/// the clock is always on, so no program can make an execution grow without
/// bound. The wall-clock watchdog defaults to off because differential
/// matrices must be deterministic — enable it per run (a fuzz worker, a
/// service job) where a hung row is worse than a nondeterministic one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Interpreter step budget (exhaustion reports
    /// [`TimeoutKind::StepBudget`]).
    pub steps: u64,
    /// Optional wall-clock watchdog in milliseconds (exhaustion reports
    /// [`TimeoutKind::WallClock`]). `None` disables the clock.
    pub wall_clock_ms: Option<u64>,
    /// Budget on cumulative bytes allocated over the execution (objects,
    /// `malloc`, string literals all count; `free` does not refund).
    pub heap_bytes: u64,
    /// Budget on simultaneously live allocations.
    pub max_live_allocations: usize,
    /// Maximum C call depth.
    pub call_depth: usize,
}

impl ResourceLimits {
    /// The default step budget (the §6 timeout analogue).
    pub const DEFAULT_STEPS: u64 = 2_000_000;
    /// The default cumulative allocated-bytes budget: 4 MiB.
    pub const DEFAULT_HEAP_BYTES: u64 = 1 << 22;
    /// The default live-allocation budget.
    pub const DEFAULT_LIVE_ALLOCATIONS: usize = 1 << 16;
    /// The default call-depth bound.
    pub const DEFAULT_CALL_DEPTH: usize = 256;

    /// The default budget with a different step limit (the historical
    /// `step_limit` knob).
    pub fn with_steps(steps: u64) -> Self {
        ResourceLimits {
            steps,
            ..ResourceLimits::default()
        }
    }

    /// This budget with a wall-clock watchdog of `ms` milliseconds.
    pub fn with_wall_clock_ms(mut self, ms: u64) -> Self {
        self.wall_clock_ms = Some(ms);
        self
    }

    /// This budget with a cumulative allocated-bytes bound.
    pub fn with_heap_bytes(mut self, bytes: u64) -> Self {
        self.heap_bytes = bytes;
        self
    }

    /// This budget with a live-allocation-count bound.
    pub fn with_max_live_allocations(mut self, count: usize) -> Self {
        self.max_live_allocations = count;
        self
    }

    /// This budget with a call-depth bound.
    pub fn with_call_depth(mut self, depth: usize) -> Self {
        self.call_depth = depth;
        self
    }

    /// The host-stack size an execution under this budget needs: 64 KiB per
    /// C frame of [`ResourceLimits::call_depth`] plus 1 MiB of headroom.
    ///
    /// The interpreter recurses on the host stack. A C frame's share grows
    /// with how deeply the called function nests blocks, loops and
    /// expressions, not with how many statements it has: those run in a
    /// loop. On x86-64 a frame of a flat function takes about 8–11 KiB in an
    /// optimised build and 67–90 KiB in an unoptimised one, for 2 statements
    /// or 200. So the 64 KiB per frame is only an estimate; the
    /// interpreter's host-stack guard is what holds the bound. It keeps an
    /// execution within this many bytes of where it started (less a margin
    /// for the frames pushed between two checks), reporting
    /// [`ResourceKind::CallDepth`] when recursion would take more, so a
    /// thread with this much free stack runs the execution safely whatever
    /// the program. Clamped to 1 GiB so an absurd depth cannot make spawning
    /// such a thread fail.
    pub fn host_stack_bytes(&self) -> usize {
        const BYTES_PER_C_FRAME: usize = 64 * 1024;
        const HEADROOM: usize = 1 << 20;
        self.call_depth
            .saturating_mul(BYTES_PER_C_FRAME)
            .saturating_add(HEADROOM)
            .min(1 << 30)
    }
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            steps: Self::DEFAULT_STEPS,
            wall_clock_ms: None,
            heap_bytes: Self::DEFAULT_HEAP_BYTES,
            max_live_allocations: Self::DEFAULT_LIVE_ALLOCATIONS,
            call_depth: Self::DEFAULT_CALL_DEPTH,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_bound_every_budget_but_the_clock() {
        let limits = ResourceLimits::default();
        assert_eq!(limits.steps, 2_000_000);
        assert_eq!(limits.call_depth, 256);
        assert_eq!(limits.wall_clock_ms, None);
        assert_eq!(limits.heap_bytes, 4 << 20);
        assert_eq!(limits.max_live_allocations, 65_536);
    }

    #[test]
    fn builders_compose() {
        let limits = ResourceLimits::with_steps(500)
            .with_wall_clock_ms(100)
            .with_heap_bytes(1 << 20)
            .with_max_live_allocations(64)
            .with_call_depth(32);
        assert_eq!(limits.steps, 500);
        assert_eq!(limits.wall_clock_ms, Some(100));
        assert_eq!(limits.heap_bytes, 1 << 20);
        assert_eq!(limits.max_live_allocations, 64);
        assert_eq!(limits.call_depth, 32);
    }

    #[test]
    fn kinds_render_distinctly() {
        let rendered: std::collections::HashSet<String> = [
            ResourceKind::HeapBytes.to_string(),
            ResourceKind::LiveAllocations.to_string(),
            ResourceKind::CallDepth.to_string(),
            ResourceKind::Output.to_string(),
            TimeoutKind::StepBudget.to_string(),
            TimeoutKind::WallClock.to_string(),
        ]
        .into_iter()
        .collect();
        assert_eq!(rendered.len(), 6);
    }
}
