//! The abstract memory object model interface.
//!
//! The paper's executable semantics "is parameterised by an abstract memory
//! object model interface" (§5.9): the Core operational semantics never
//! manipulates representation bytes itself, it only issues the actions and
//! pointer operations of this signature and lets the linked model decide what
//! is defined. [`MemoryModel`] is that signature: object create/kill, typed
//! loads and stores, the `ptrop`s (equality, relational comparison,
//! subtraction, the integer casts, `array_shift`/`member_shift`), the
//! byte-level library helpers, and undefined-behaviour reporting via
//! [`MemError`].
//!
//! Two implementations ship in-tree: [`ConcreteEngine`] (the configurable
//! byte-representation engine of [`crate::state`], parameterised by a
//! [`ModelConfig`]) and the symbolic provenance engine
//! ([`crate::symbolic::SymbolicEngine`], selected by
//! [`crate::config::EngineKind::Symbolic`]). [`AnyEngine`] is the closed
//! enum dispatching between them, which [`ModelConfig::instantiate`] returns;
//! further models — an abstract block model, the operational concurrency
//! model — can be linked against the executor without touching it, because
//! `cerberus_exec::Interp` and `cerberus_exec::Driver` are generic over
//! `M: MemoryModel`. See `docs/MEMORY_MODELS.md` for the authoring guide.

use cerberus_ast::ctype::{Ctype, TagId};
use cerberus_ast::env::ImplEnv;
use cerberus_ast::ident::Ident;
use cerberus_ast::layout::{self, TagKind, TagRegistry};
use cerberus_ast::ub::UbKind;

use crate::config::{EngineKind, FieldSet, ModelConfig};
use crate::fault::FAULT_MESSAGE;
use crate::state::{AllocKind, MemError, MemState};
use crate::symbolic::SymbolicEngine;
use crate::value::{IntegerValue, MemValue, PointerValue};

/// The first implementation of [`MemoryModel`]: the concrete,
/// representation-byte engine parameterised by a [`ModelConfig`].
pub type ConcreteEngine = MemState;

/// Result alias for model operations: `Err` reports detected undefined
/// behaviour as a [`MemError`].
pub type ModelResult<T> = Result<T, MemError>;

/// The abstract memory object model signature of §5.9.
///
/// One value of the implementing type describes the memory state of **one
/// execution**; the driver obtains a pristine state per execution via
/// [`MemoryModel::fresh`] (the prototype pattern: a `Driver` holds one
/// configured instance and resets it for every explored path).
pub trait MemoryModel {
    // ----- identity and environment --------------------------------------

    /// The human-readable model name (used in reports and outcome matrices).
    fn model_name(&self) -> &'static str;

    /// The implementation-defined environment the model computes layout with.
    fn env(&self) -> &ImplEnv;

    /// The struct/union registry in force.
    fn tags(&self) -> &TagRegistry;

    /// A pristine state with the same configuration, environment and tag
    /// registry, ready for a new execution. An engine carries no resource
    /// budget: the interpreter charges every allocation before asking for it
    /// (see `docs/MEMORY_MODELS.md`, "Resource and fault obligations").
    fn fresh(&self) -> Self
    where
        Self: Sized;

    /// The semantic fields of the configuration this execution has consulted
    /// so far: every field whose answer its result depends on. Another
    /// configuration that agrees on them runs the same execution
    /// ([`ModelConfig::agrees_on`]). The default, [`FieldSet::ALL`], is the
    /// answer of an engine that does not log its reads: its result may
    /// depend on every field, so its run is shared only with a configuration
    /// of the same engine that agrees on all of them.
    fn consulted(&self) -> FieldSet {
        FieldSet::ALL
    }

    // ----- layout --------------------------------------------------------

    /// `sizeof(ty)` under this model's environment.
    fn size_of(&self, ty: &Ctype) -> ModelResult<u64> {
        layout::size_of(ty, self.env(), self.tags())
            .map_err(|e| MemError::new(UbKind::InvalidLvalue, e.to_string()))
    }

    /// `_Alignof(ty)` under this model's environment.
    fn align_of(&self, ty: &Ctype) -> ModelResult<u64> {
        layout::align_of(ty, self.env(), self.tags())
            .map_err(|e| MemError::new(UbKind::InvalidLvalue, e.to_string()))
    }

    // ----- object lifecycle ----------------------------------------------

    /// Create an object of declared type `ty` (the Core `create` action).
    fn create(
        &mut self,
        ty: &Ctype,
        kind: AllocKind,
        name: Option<&str>,
    ) -> ModelResult<PointerValue>;

    /// Allocate a dynamic region (the Core `alloc` action, i.e. `malloc`).
    fn alloc(&mut self, size: u64, align: u64) -> ModelResult<PointerValue>;

    /// Create a read-only string-literal object holding `bytes` plus NUL.
    fn create_string_literal(&mut self, bytes: &[u8]) -> ModelResult<PointerValue>;

    /// Register a C function, giving it a synthetic address.
    fn register_function(&mut self, name: &Ident) -> PointerValue;

    /// The function registered at a synthetic function address, if any.
    fn function_at(&self, addr: u64) -> Option<&Ident>;

    /// End the lifetime of the pointed-to object (the Core `kill` action);
    /// `dynamic` selects `free` semantics.
    fn kill(&mut self, ptr: &PointerValue, dynamic: bool) -> ModelResult<()>;

    // ----- typed accesses ------------------------------------------------

    /// Store `value` at type `ty` through `ptr` (the Core `store` action).
    fn store(&mut self, ty: &Ctype, ptr: &PointerValue, value: &MemValue) -> ModelResult<()>;

    /// Load a value at type `ty` through `ptr` (the Core `load` action).
    fn load(&mut self, ty: &Ctype, ptr: &PointerValue) -> ModelResult<MemValue>;

    // ----- pointer operations (the ptrops) -------------------------------

    /// Pointer equality (`==`); inequality is the caller's negation.
    fn ptr_eq(&self, a: &PointerValue, b: &PointerValue) -> ModelResult<bool>;

    /// Pointer relational comparison: the ordering of the addresses, or UB
    /// under models that forbid cross-object comparison.
    fn ptr_rel(&self, a: &PointerValue, b: &PointerValue) -> ModelResult<std::cmp::Ordering>;

    /// Pointer subtraction in elements of `elem_size` bytes.
    fn ptr_diff(
        &self,
        a: &PointerValue,
        b: &PointerValue,
        elem_size: u64,
    ) -> ModelResult<IntegerValue>;

    /// Cast a pointer to an integer (`intFromPtr`).
    fn int_from_ptr(&self, p: &PointerValue) -> IntegerValue;

    /// Cast an integer to a pointer (`ptrFromInt`), following the model's
    /// provenance semantics.
    fn ptr_from_int(&self, iv: &IntegerValue) -> PointerValue;

    /// Pointer arithmetic by `index` elements of `elem_ty` (`array_shift`).
    fn array_shift(
        &self,
        ptr: &PointerValue,
        elem_ty: &Ctype,
        index: i128,
    ) -> ModelResult<PointerValue>;

    /// Pointer to a struct/union member (`member_shift`). The address wraps
    /// like `array_shift`'s, so a pointer near the top of the address space
    /// gives a member pointer, not an overflow.
    fn member_shift(
        &self,
        ptr: &PointerValue,
        tag: TagId,
        member: &Ident,
    ) -> ModelResult<PointerValue> {
        let def = self
            .tags()
            .get(tag)
            .ok_or_else(|| MemError::new(UbKind::InvalidLvalue, "incomplete struct/union"))?;
        let offset = match def.kind {
            TagKind::Union => 0,
            TagKind::Struct => layout::offset_of(tag, member.as_str(), self.env(), self.tags())
                .map_err(|e| MemError::new(UbKind::InvalidLvalue, e.to_string()))?,
        };
        Ok(ptr.with_addr(ptr.addr.wrapping_add(offset)))
    }

    // ----- byte-level library helpers ------------------------------------

    /// `memcpy`: copy representation bytes, preserving carried provenance.
    fn copy_bytes(&mut self, dst: &PointerValue, src: &PointerValue, n: u64) -> ModelResult<()>;

    /// `memcmp` over representation bytes.
    fn compare_bytes(&self, a: &PointerValue, b: &PointerValue, n: u64) -> ModelResult<i32>;

    /// `memset`.
    fn set_bytes(&mut self, dst: &PointerValue, byte: u8, n: u64) -> ModelResult<()>;

    /// Read a NUL-terminated C string starting at `ptr`.
    fn read_c_string(&self, ptr: &PointerValue) -> ModelResult<Vec<u8>>;
}

/// An engine instance of either in-tree implementation, selected by
/// [`ModelConfig::engine`] ([`EngineKind`]).
///
/// [`MemoryModel::fresh`] returns `Self`, so the trait is not object-safe;
/// this enum is the closed-world dispatch that lets one `Driver<AnyEngine>`
/// run a program under *any* named configuration — which is what
/// `cerberus::differential::DifferentialRunner` relies on to mix concrete and
/// symbolic rows in one outcome matrix.
#[derive(Debug, Clone)]
pub enum AnyEngine {
    /// A concrete byte-representation engine.
    Concrete(ConcreteEngine),
    /// A symbolic provenance engine.
    Symbolic(SymbolicEngine),
    /// The fault-injection drill (tests and fault drills only — see
    /// [`crate::fault`]): a concrete engine whose [`MemoryModel::fresh`]
    /// panics with [`FAULT_MESSAGE`], so every execution under it faults.
    Panicking(ConcreteEngine),
}

/// Delegate one `MemoryModel` method to whichever engine is inside.
macro_rules! delegate {
    ($self:ident . $method:ident ( $($arg:expr),* )) => {
        match $self {
            AnyEngine::Concrete(engine) | AnyEngine::Panicking(engine) => {
                engine.$method($($arg),*)
            }
            AnyEngine::Symbolic(engine) => engine.$method($($arg),*),
        }
    };
}

impl MemoryModel for AnyEngine {
    fn model_name(&self) -> &'static str {
        delegate!(self.model_name())
    }

    fn env(&self) -> &ImplEnv {
        delegate!(self.env())
    }

    fn tags(&self) -> &TagRegistry {
        delegate!(self.tags())
    }

    fn fresh(&self) -> Self {
        match self {
            AnyEngine::Concrete(engine) => AnyEngine::Concrete(MemoryModel::fresh(engine)),
            AnyEngine::Symbolic(engine) => AnyEngine::Symbolic(engine.fresh()),
            AnyEngine::Panicking(_) => panic!("{FAULT_MESSAGE}"),
        }
    }

    fn consulted(&self) -> FieldSet {
        delegate!(self.consulted())
    }

    fn create(
        &mut self,
        ty: &Ctype,
        kind: AllocKind,
        name: Option<&str>,
    ) -> ModelResult<PointerValue> {
        delegate!(self.create(ty, kind, name))
    }

    fn alloc(&mut self, size: u64, align: u64) -> ModelResult<PointerValue> {
        delegate!(self.alloc(size, align))
    }

    fn create_string_literal(&mut self, bytes: &[u8]) -> ModelResult<PointerValue> {
        delegate!(self.create_string_literal(bytes))
    }

    fn register_function(&mut self, name: &Ident) -> PointerValue {
        delegate!(self.register_function(name))
    }

    fn function_at(&self, addr: u64) -> Option<&Ident> {
        delegate!(self.function_at(addr))
    }

    fn kill(&mut self, ptr: &PointerValue, dynamic: bool) -> ModelResult<()> {
        delegate!(self.kill(ptr, dynamic))
    }

    fn store(&mut self, ty: &Ctype, ptr: &PointerValue, value: &MemValue) -> ModelResult<()> {
        delegate!(self.store(ty, ptr, value))
    }

    fn load(&mut self, ty: &Ctype, ptr: &PointerValue) -> ModelResult<MemValue> {
        delegate!(self.load(ty, ptr))
    }

    fn ptr_eq(&self, a: &PointerValue, b: &PointerValue) -> ModelResult<bool> {
        delegate!(self.ptr_eq(a, b))
    }

    fn ptr_rel(&self, a: &PointerValue, b: &PointerValue) -> ModelResult<std::cmp::Ordering> {
        delegate!(self.ptr_rel(a, b))
    }

    fn ptr_diff(
        &self,
        a: &PointerValue,
        b: &PointerValue,
        elem_size: u64,
    ) -> ModelResult<IntegerValue> {
        delegate!(self.ptr_diff(a, b, elem_size))
    }

    fn int_from_ptr(&self, p: &PointerValue) -> IntegerValue {
        delegate!(self.int_from_ptr(p))
    }

    fn ptr_from_int(&self, iv: &IntegerValue) -> PointerValue {
        delegate!(self.ptr_from_int(iv))
    }

    fn array_shift(
        &self,
        ptr: &PointerValue,
        elem_ty: &Ctype,
        index: i128,
    ) -> ModelResult<PointerValue> {
        delegate!(self.array_shift(ptr, elem_ty, index))
    }

    fn copy_bytes(&mut self, dst: &PointerValue, src: &PointerValue, n: u64) -> ModelResult<()> {
        delegate!(self.copy_bytes(dst, src, n))
    }

    fn compare_bytes(&self, a: &PointerValue, b: &PointerValue, n: u64) -> ModelResult<i32> {
        delegate!(self.compare_bytes(a, b, n))
    }

    fn set_bytes(&mut self, dst: &PointerValue, byte: u8, n: u64) -> ModelResult<()> {
        delegate!(self.set_bytes(dst, byte, n))
    }

    fn read_c_string(&self, ptr: &PointerValue) -> ModelResult<Vec<u8>> {
        delegate!(self.read_c_string(ptr))
    }
}

impl ModelConfig {
    /// Instantiate this configuration as an engine prototype for programs
    /// using `tags` under `env` (the state is pristine; the driver calls
    /// [`MemoryModel::fresh`] per execution). Which implementation is built
    /// follows [`ModelConfig::engine`].
    pub fn instantiate(&self, env: ImplEnv, tags: TagRegistry) -> AnyEngine {
        match self.engine {
            EngineKind::Concrete => AnyEngine::Concrete(MemState::new(self.clone(), env, tags)),
            EngineKind::Symbolic => {
                AnyEngine::Symbolic(SymbolicEngine::new(self.clone(), env, tags))
            }
            EngineKind::Panicking => AnyEngine::Panicking(MemState::new(self.clone(), env, tags)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerberus_ast::ctype::IntegerType;

    fn engine() -> ConcreteEngine {
        MemState::new(ModelConfig::de_facto(), ImplEnv::lp64(), TagRegistry::new())
    }

    /// Exercise the engine exclusively through the trait, as the executor
    /// does.
    fn roundtrip<M: MemoryModel>(mem: &mut M) -> i128 {
        let ty = Ctype::integer(IntegerType::Int);
        let p = mem.create(&ty, AllocKind::Automatic, Some("x")).unwrap();
        mem.store(&ty, &p, &MemValue::int(IntegerType::Int, 41))
            .unwrap();
        mem.load(&ty, &p).unwrap().as_int().unwrap() + 1
    }

    #[test]
    fn the_concrete_engine_satisfies_the_interface() {
        let mut mem = engine();
        assert_eq!(roundtrip(&mut mem), 42);
        assert_eq!(mem.model_name(), "de-facto");
    }

    #[test]
    fn fresh_resets_the_state_but_keeps_the_configuration() {
        let mut mem = engine();
        let _ = roundtrip(&mut mem);
        assert!(!mem.allocations().is_empty());
        let fresh = MemoryModel::fresh(&mem);
        assert!(fresh.allocations().is_empty());
        assert_eq!(fresh.model_name(), mem.model_name());
    }

    #[test]
    fn every_named_config_instantiates() {
        for config in ModelConfig::all_named() {
            let engine = config.instantiate(ImplEnv::lp64(), TagRegistry::new());
            assert_eq!(engine.model_name(), config.name);
            match (config.engine, &engine) {
                (EngineKind::Concrete, AnyEngine::Concrete(_)) => {}
                (EngineKind::Symbolic, AnyEngine::Symbolic(_)) => {}
                (kind, other) => panic!("{kind:?} instantiated as {other:?}"),
            }
        }
    }

    #[test]
    fn any_engine_dispatches_to_both_implementations() {
        let mut concrete = ModelConfig::de_facto().instantiate(ImplEnv::lp64(), TagRegistry::new());
        assert_eq!(roundtrip(&mut concrete), 42);
        let mut symbolic = ModelConfig::symbolic().instantiate(ImplEnv::lp64(), TagRegistry::new());
        assert_eq!(roundtrip(&mut symbolic), 42);
        assert_eq!(symbolic.model_name(), "symbolic");
        // `fresh` preserves the implementation choice.
        assert!(matches!(
            MemoryModel::fresh(&symbolic),
            AnyEngine::Symbolic(_)
        ));
    }
}
