//! Fault injection: an always-panicking engine.
//!
//! The differential harness must survive a defective engine — a panic in one
//! row of the outcome matrix has to surface as a structured
//! `ExecResult::EngineFault` row, never abort the suite (the robustness
//! obligation of `docs/MEMORY_MODELS.md`, "Resource and fault obligations").
//! [`ModelConfig::panicking`](crate::config::ModelConfig::panicking) is the
//! drill for that machinery: an engine with de-facto semantics that is
//! configured, named in a matrix and instantiated like any other, but whose
//! per-execution [`MemoryModel::fresh`](crate::model::MemoryModel::fresh)
//! always panics with [`FAULT_MESSAGE`]. `Driver::run_with` in `cerberus-exec` calls
//! `fresh` before anything else, so the fault fires exactly when an
//! execution starts.
//!
//! It is selected by
//! [`EngineKind::Panicking`](crate::config::EngineKind::Panicking) and is
//! deliberately *not* part of `ModelConfig::all_named()`: it only ever enters
//! a matrix when a test or a fault drill injects it explicitly.

/// The panic payload every injected fault carries, so tests can assert the
/// payload survived the unwind boundary intact.
pub const FAULT_MESSAGE: &str = "injected engine fault (panicking model)";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::MemoryModel;
    use cerberus_ast::env::ImplEnv;
    use cerberus_ast::layout::TagRegistry;

    #[test]
    fn construction_and_identity_do_not_fault() {
        let engine = ModelConfig::panicking().instantiate(ImplEnv::lp64(), TagRegistry::new());
        assert_eq!(engine.model_name(), "panicking");
    }

    #[test]
    fn fresh_panics_with_the_documented_payload() {
        let engine = ModelConfig::panicking().instantiate(ImplEnv::lp64(), TagRegistry::new());
        let fresh = std::panic::AssertUnwindSafe(|| engine.fresh());
        let panic = std::panic::catch_unwind(fresh).unwrap_err();
        let payload = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied());
        assert_eq!(payload, Some(FAULT_MESSAGE));
    }
}
