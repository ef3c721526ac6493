//! The symbolic provenance engine: a second, genuinely different
//! [`MemoryModel`] implementation.
//!
//! Where [`crate::state::MemState`] (the [`crate::model::ConcreteEngine`])
//! gives every
//! allocation a concrete address in one flat address space and checks each
//! access eagerly against representation bytes, `SymbolicEngine` keeps the
//! address space *abstract*:
//!
//! * **Per-allocation symbolic IDs.** Every allocation lives in its own
//!   address region, `(id + 1) · 2³²`, so regions of distinct allocations
//!   never abut. A one-past-the-end pointer of `x` therefore never has the
//!   same representation as `&y` — the twin-allocation reading of DR260 in
//!   which allocations behave as if infinitely separated.
//! * **Typed cells instead of representation bytes.** Storage is a sparse map
//!   from byte offsets to typed cells holding [`MemValue`]s. Exact re-reads
//!   are cell lookups; byte-granularity games (union punning, `memcpy`,
//!   bytewise integer copies) fall back to a lazy per-byte materialisation
//!   that preserves the provenance each byte carries. There are no padding
//!   bytes at all.
//! * **Lazy resolution of one-past and intptr round trips.** Pointer
//!   arithmetic never faults; a pointer is just `(provenance, symbolic
//!   address)` and the constraint `0 ≤ offset ∧ offset + len ≤ size` is only
//!   checked when the pointer is *used*. An integer-to-pointer cast is
//!   resolved through the integer's provenance (or, for wildcard integers,
//!   through the — unique — allocation owning the symbolic address).
//! * **UB as constraint violation.** Every detected undefined behaviour is
//!   the failure of an explicit constraint, reported as a [`MemError`] whose
//!   detail names the violated constraint; the engine also keeps a trail of
//!   the lazy resolutions it performed ([`SymbolicEngine::resolutions`]).
//!
//! The observable differences from the concrete engine are exactly the
//! design-space questions of §2: cross-object pointer *equality* of a
//! one-past pointer is `false` here (Q2), cross-object *relational*
//! comparison and subtraction violate constraints (Q25, Q9), and an
//! address-arithmetic intptr round trip that lands in another object is a
//! footprint violation rather than a concrete hit (Q5/Q9). The litmus suite
//! records these as expected disagreement classes — see
//! `cerberus-litmus` and `docs/MEMORY_MODELS.md`.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use cerberus_ast::ctype::{Ctype, IntegerType};
use cerberus_ast::env::ImplEnv;
use cerberus_ast::ident::Ident;
use cerberus_ast::layout::{self, TagRegistry};
use cerberus_ast::ub::UbKind;

use crate::config::{IntToPtrSemantics, ModelConfig, UninitSemantics};
use crate::model::{MemoryModel, ModelResult};
use crate::state::{AllocKind, MemError};
use crate::value::{AllocId, IntegerValue, MemValue, PointerValue, Provenance};

/// Size of the address region reserved for each allocation: allocation `id`
/// owns `[(id+1)·2³², (id+2)·2³²)`, so no two allocations are ever adjacent
/// and a one-past pointer never aliases a neighbour.
const REGION: u64 = 1 << 32;

/// Base of the synthetic function "address" space (below every object
/// region, shared with the concrete engine's convention).
const FUNCTION_BASE: u64 = 0x1000;

fn region_base(id: AllocId) -> u64 {
    (id + 1).wrapping_mul(REGION)
}

/// The allocation (and offset within it) owning a symbolic address, if any.
fn region_of(addr: u64) -> Option<(AllocId, u64)> {
    if addr >= REGION {
        Some((addr / REGION - 1, addr % REGION))
    } else {
        None
    }
}

/// One typed cell: a scalar (or explicitly unspecified) value occupying
/// `size` bytes from its offset.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    size: u64,
    value: MemValue,
}

/// One symbolic allocation: metadata plus the sparse typed-cell store.
#[derive(Debug, Clone)]
struct SymAlloc {
    size: u64,
    kind: AllocKind,
    alive: bool,
    readonly: bool,
    name: Option<String>,
    cells: BTreeMap<u64, Cell>,
}

impl SymAlloc {
    /// Zero-initialised storage kinds read absent cells as zero rather than
    /// as indeterminate.
    fn zero_initialised(&self) -> bool {
        matches!(self.kind, AllocKind::Static | AllocKind::StringLiteral)
    }
}

/// The symbolic provenance engine. See the module documentation for the
/// semantic differences from [`crate::model::ConcreteEngine`].
#[derive(Debug, Clone)]
pub struct SymbolicEngine {
    config: ModelConfig,
    env: ImplEnv,
    tags: TagRegistry,
    allocs: Vec<SymAlloc>,
    function_addrs: HashMap<String, u64>,
    functions_by_addr: HashMap<u64, Ident>,
    /// Trail of the lazy constraint resolutions performed so far (bounded).
    trail: RefCell<Vec<String>>,
}

impl SymbolicEngine {
    /// A fresh symbolic engine for programs using `tags` under `env`.
    pub fn new(config: ModelConfig, env: ImplEnv, tags: TagRegistry) -> Self {
        SymbolicEngine {
            config,
            env,
            tags,
            allocs: Vec::new(),
            function_addrs: HashMap::new(),
            functions_by_addr: HashMap::new(),
            trail: RefCell::new(Vec::new()),
        }
    }

    /// The lazy resolutions (one-past comparisons, wildcard and intptr
    /// reconstructions) performed so far, newest last.
    pub fn resolutions(&self) -> Vec<String> {
        self.trail.borrow().clone()
    }

    /// The number of live allocations (for inspection and tests).
    pub fn live_allocations(&self) -> usize {
        self.allocs.iter().filter(|a| a.alive).count()
    }

    fn record(&self, msg: String) {
        let mut trail = self.trail.borrow_mut();
        if trail.len() < 1024 {
            trail.push(msg);
        }
    }

    fn violated(ub: UbKind, detail: impl std::fmt::Display) -> MemError {
        MemError::new(ub, format!("constraint violated: {detail}"))
    }

    fn push_allocation(
        &mut self,
        size: u64,
        kind: AllocKind,
        name: Option<&str>,
        readonly: bool,
    ) -> PointerValue {
        let id = self.allocs.len() as AllocId;
        self.allocs.push(SymAlloc {
            size,
            kind,
            alive: true,
            readonly,
            name: name.map(str::to_owned),
            cells: BTreeMap::new(),
        });
        PointerValue::object(Provenance::Alloc(id), region_base(id))
    }

    fn describe(&self, id: AllocId) -> String {
        match self.allocs.get(id as usize).and_then(|a| a.name.as_deref()) {
            Some(name) => format!("allocation @{id} ({name})"),
            None => format!("allocation @{id}"),
        }
    }

    /// Resolve a pointer to `(allocation, offset)` and check the access
    /// constraint `live ∧ 0 ≤ offset ∧ offset + len ≤ size` — the *only*
    /// point at which a transiently out-of-bounds or lazily round-tripped
    /// pointer is judged.
    fn resolve(&self, ptr: &PointerValue, len: u64, is_store: bool) -> ModelResult<(AllocId, u64)> {
        if ptr.function.is_some() {
            return Err(Self::violated(
                UbKind::InvalidLvalue,
                "object access through a function pointer",
            ));
        }
        if ptr.is_null() {
            return Err(Self::violated(
                UbKind::NullPointerDeref,
                "access through a null pointer",
            ));
        }
        let (id, offset) = match ptr.prov {
            Provenance::Alloc(id) => (id, ptr.addr.wrapping_sub(region_base(id))),
            Provenance::Empty => {
                return Err(Self::violated(
                    UbKind::AccessWithoutProvenance,
                    "access through a pointer with empty provenance",
                ))
            }
            Provenance::Wildcard => {
                let (id, offset) = region_of(ptr.addr).ok_or_else(|| {
                    Self::violated(
                        UbKind::OutOfBoundsAccess,
                        "wildcard pointer outside every allocation region",
                    )
                })?;
                self.record(format!(
                    "resolved wildcard pointer 0x{:x} to {}",
                    ptr.addr,
                    self.describe(id)
                ));
                (id, offset)
            }
        };
        let alloc = match self.allocs.get(id as usize) {
            Some(alloc) => alloc,
            None => {
                return Err(Self::violated(
                    UbKind::OutOfBoundsAccess,
                    "unknown allocation",
                ))
            }
        };
        if !alloc.alive {
            return Err(Self::violated(
                UbKind::AccessOutsideLifetime,
                format!("access to {} after its lifetime ended", self.describe(id)),
            ));
        }
        if offset.checked_add(len).is_none_or(|end| end > alloc.size) {
            return Err(Self::violated(
                UbKind::OutOfBoundsAccess,
                format!(
                    "offset {offset} (+{len}) escapes the {}-byte footprint of {}",
                    alloc.size,
                    self.describe(id)
                ),
            ));
        }
        if is_store && alloc.readonly {
            return Err(Self::violated(
                UbKind::StringLiteralModification,
                "store into a read-only (string literal) object",
            ));
        }
        Ok((id, offset))
    }

    // ----- cell reading -----------------------------------------------------

    /// The abstract byte at `offset`: a concrete value plus the provenance it
    /// carries, or `None` for an indeterminate byte. Pointer cells
    /// materialise the bytes of their *symbolic* address (so bytewise copies
    /// stay provenance-carrying, while two pointers to distinct allocations
    /// can never be byte-identical).
    fn byte_at(&self, id: AllocId, offset: u64) -> Option<(u8, Provenance)> {
        let alloc = &self.allocs[id as usize];
        let covering = alloc
            .cells
            .range(..=offset)
            .next_back()
            .filter(|(start, cell)| offset < *start + cell.size);
        let Some((start, cell)) = covering else {
            return alloc.zero_initialised().then_some((0, Provenance::Empty));
        };
        self.cell_byte(cell, (offset - start) as usize)
    }

    /// The abstract byte at `index` of one cell (see [`Self::byte_at`]).
    fn cell_byte(&self, cell: &Cell, index: usize) -> Option<(u8, Provenance)> {
        let (raw, prov) = match &cell.value {
            MemValue::Integer(_, iv) => (iv.value as u128, iv.prov),
            MemValue::Pointer(_, pv) => (pv.addr as u128, pv.prov),
            _ => return None,
        };
        Some((((raw >> (8 * index as u32)) & 0xff) as u8, prov))
    }

    /// Reassemble a scalar of `size` bytes at `offset` from abstract bytes.
    fn read_from_bytes(&self, id: AllocId, offset: u64, ty: &Ctype, size: u64) -> MemValue {
        let mut raw: u128 = 0;
        let mut prov = Provenance::Empty;
        for i in 0..size {
            let Some((byte, p)) = self.byte_at(id, offset + i) else {
                return MemValue::Unspecified(ty.clone());
            };
            raw |= (byte as u128) << (8 * i as u32);
            prov = prov.combine(p);
        }
        let width = 8 * size as u32;
        let signed = matches!(ty, Ctype::Integer(it) if self.env.is_signed(*it));
        let mut value = raw as i128;
        if signed && width < 128 {
            let sign_bit = 1u128 << (width - 1);
            if raw & sign_bit != 0 {
                value = (raw as i128) - (1i128 << width);
            }
        }
        self.scalar_from_parts(ty, IntegerValue::with_prov(value, prov))
    }

    /// Build the scalar memory value of `ty` from a numeric value plus
    /// provenance (the shared tail of the cell-exact and byte paths).
    fn scalar_from_parts(&self, ty: &Ctype, iv: IntegerValue) -> MemValue {
        match ty {
            Ctype::Integer(it) => MemValue::Integer(
                *it,
                IntegerValue::with_prov(self.env.convert_int(iv.value, *it), iv.prov),
            ),
            Ctype::Pointer(_, pointee) => {
                let addr = iv.value as u64;
                if addr == 0 {
                    return MemValue::Pointer((**pointee).clone(), PointerValue::null());
                }
                if let Some(name) = self.functions_by_addr.get(&addr) {
                    return MemValue::Pointer(
                        (**pointee).clone(),
                        PointerValue::function(name.clone()),
                    );
                }
                MemValue::Pointer((**pointee).clone(), PointerValue::object(iv.prov, addr))
            }
            Ctype::Floating => MemValue::Integer(IntegerType::LongLong, iv),
            other => MemValue::Unspecified(other.clone()),
        }
    }

    /// Reinterpret an exactly-matching cell value at the load type.
    fn reinterpret(&self, value: &MemValue, ty: &Ctype) -> MemValue {
        match value {
            MemValue::Unspecified(_) => MemValue::Unspecified(ty.clone()),
            MemValue::Integer(_, iv) => self.scalar_from_parts(ty, *iv),
            MemValue::Pointer(_, pv) => match ty {
                Ctype::Pointer(_, pointee) => MemValue::Pointer((**pointee).clone(), pv.clone()),
                _ => self.scalar_from_parts(ty, IntegerValue::with_prov(pv.addr as i128, pv.prov)),
            },
            aggregate => aggregate.clone(),
        }
    }

    fn default_scalar(&self, id: AllocId, ty: &Ctype) -> MemValue {
        if self.allocs[id as usize].zero_initialised() {
            self.scalar_from_parts(ty, IntegerValue::pure(0))
        } else {
            MemValue::Unspecified(ty.clone())
        }
    }

    fn read_value(&self, id: AllocId, offset: u64, ty: &Ctype) -> ModelResult<MemValue> {
        match ty {
            Ctype::Array(elem, Some(n)) => {
                let esize = self.size_of(elem)?;
                let mut items = Vec::with_capacity(*n as usize);
                for i in 0..*n {
                    items.push(self.read_value(id, offset + i * esize, elem)?);
                }
                Ok(MemValue::Array(items))
            }
            Ctype::Struct(tag) => {
                let lay = layout::layout_of_tag(*tag, &self.env, &self.tags)
                    .map_err(|e| MemError::new(UbKind::InvalidLvalue, e.to_string()))?;
                let def = self
                    .tags
                    .get(*tag)
                    .ok_or_else(|| MemError::new(UbKind::InvalidLvalue, "incomplete struct"))?
                    .clone();
                let mut members = Vec::with_capacity(def.members.len());
                for (member, (_, moffset, _)) in def.members.iter().zip(lay.members.iter()) {
                    members.push((
                        member.name.clone(),
                        self.read_value(id, offset + moffset, &member.ty)?,
                    ));
                }
                Ok(MemValue::Struct(*tag, members))
            }
            Ctype::Union(tag) => {
                let def = self
                    .tags
                    .get(*tag)
                    .ok_or_else(|| MemError::new(UbKind::InvalidLvalue, "incomplete union"))?
                    .clone();
                let first = def
                    .members
                    .first()
                    .ok_or_else(|| MemError::new(UbKind::InvalidLvalue, "union with no members"))?;
                let inner = self.read_value(id, offset, &first.ty)?;
                Ok(MemValue::Union(*tag, first.name.clone(), Box::new(inner)))
            }
            scalar => {
                let size = self.size_of(scalar)?;
                let alloc = &self.allocs[id as usize];
                if let Some(cell) = alloc.cells.get(&offset) {
                    if cell.size == size {
                        return Ok(self.reinterpret(&cell.value, scalar));
                    }
                }
                if alloc
                    .cells
                    .range(..offset + size)
                    .next_back()
                    .filter(|(start, cell)| *start + cell.size > offset)
                    .is_none()
                {
                    // No cell overlaps the footprint at all: the object is
                    // still in its initial state here.
                    return Ok(self.default_scalar(id, scalar));
                }
                Ok(self.read_from_bytes(id, offset, scalar, size))
            }
        }
    }

    // ----- cell writing -----------------------------------------------------

    /// Remove every cell intersecting `[start, end)`, splitting partially
    /// overlapping cells into per-byte cells so the untouched parts read
    /// exactly as they did through the old cell: integer and pointer bytes
    /// keep their values and provenance, indeterminate bytes stay explicitly
    /// indeterminate.
    fn evict(&mut self, id: AllocId, start: u64, end: u64) {
        let overlapping: Vec<u64> = self.allocs[id as usize]
            .cells
            .range(..end)
            .filter(|(s, cell)| **s + cell.size > start)
            .map(|(s, _)| *s)
            .collect();
        for cell_start in overlapping {
            let cell = self.allocs[id as usize]
                .cells
                .remove(&cell_start)
                .expect("cell exists");
            if cell_start >= start && cell_start + cell.size <= end {
                continue;
            }
            // Partial overlap: rematerialise every surviving byte, exactly
            // as `byte_at` would have read it through the old cell —
            // integer and pointer cells keep their (provenance-carrying)
            // byte values, indeterminate cells leave explicit 1-byte
            // unspecified cells so the bytes stay indeterminate rather than
            // decaying to the allocation's zero-initialised default.
            for i in 0..cell.size {
                let at = cell_start + i;
                if at >= start && at < end {
                    continue;
                }
                let value = match self.cell_byte(&cell, i as usize) {
                    Some((byte, prov)) => MemValue::Integer(
                        IntegerType::UChar,
                        IntegerValue::with_prov(i128::from(byte), prov),
                    ),
                    None => MemValue::Unspecified(Ctype::integer(IntegerType::UChar)),
                };
                self.allocs[id as usize]
                    .cells
                    .insert(at, Cell { size: 1, value });
            }
        }
    }

    fn write_cell(&mut self, id: AllocId, offset: u64, size: u64, value: MemValue) {
        self.evict(id, offset, offset + size);
        self.allocs[id as usize]
            .cells
            .insert(offset, Cell { size, value });
    }

    fn write_value(
        &mut self,
        id: AllocId,
        offset: u64,
        ty: &Ctype,
        value: &MemValue,
    ) -> ModelResult<()> {
        match (ty, value) {
            (Ctype::Array(elem, _), MemValue::Array(items)) => {
                let esize = self.size_of(elem)?;
                let total = self.size_of(ty)?;
                self.evict(id, offset, offset + total);
                for (i, item) in items.iter().enumerate() {
                    self.write_value(id, offset + i as u64 * esize, elem, item)?;
                }
                Ok(())
            }
            (Ctype::Struct(tag), MemValue::Struct(_, members)) => {
                let lay = layout::layout_of_tag(*tag, &self.env, &self.tags)
                    .map_err(|e| MemError::new(UbKind::InvalidLvalue, e.to_string()))?;
                let def = self
                    .tags
                    .get(*tag)
                    .ok_or_else(|| MemError::new(UbKind::InvalidLvalue, "incomplete struct"))?
                    .clone();
                let total = self.size_of(ty)?;
                self.evict(id, offset, offset + total);
                for (member, (_, moffset, _)) in def.members.iter().zip(lay.members.iter()) {
                    let value = members
                        .iter()
                        .find(|(n, _)| n == &member.name)
                        .map(|(_, v)| v.clone())
                        .unwrap_or(MemValue::Unspecified(member.ty.clone()));
                    self.write_value(id, offset + moffset, &member.ty, &value)?;
                }
                Ok(())
            }
            (Ctype::Union(tag), MemValue::Union(_, member, inner)) => {
                let def = self
                    .tags
                    .get(*tag)
                    .ok_or_else(|| MemError::new(UbKind::InvalidLvalue, "incomplete union"))?
                    .clone();
                let m = def
                    .members
                    .iter()
                    .find(|m| &m.name == member)
                    .ok_or_else(|| {
                        MemError::new(UbKind::InvalidLvalue, format!("no union member {member}"))
                    })?;
                let total = self.size_of(ty)?;
                self.evict(id, offset, offset + total);
                self.write_value(id, offset, &m.ty.clone(), inner)
            }
            (scalar_ty, scalar) => {
                let size = self.size_of(scalar_ty)?;
                self.write_cell(id, offset, size, scalar.clone());
                Ok(())
            }
        }
    }
}

impl MemoryModel for SymbolicEngine {
    fn model_name(&self) -> &'static str {
        self.config.name
    }

    fn env(&self) -> &ImplEnv {
        &self.env
    }

    fn tags(&self) -> &TagRegistry {
        &self.tags
    }

    fn fresh(&self) -> Self {
        SymbolicEngine::new(self.config.clone(), self.env.clone(), self.tags.clone())
    }

    fn create(
        &mut self,
        ty: &Ctype,
        kind: AllocKind,
        name: Option<&str>,
    ) -> ModelResult<PointerValue> {
        let size = self.size_of(ty)?;
        Ok(self.push_allocation(size, kind, name, false))
    }

    fn alloc(&mut self, size: u64, _align: u64) -> ModelResult<PointerValue> {
        Ok(self.push_allocation(size.max(1), AllocKind::Dynamic, None, false))
    }

    fn create_string_literal(&mut self, bytes: &[u8]) -> ModelResult<PointerValue> {
        let mut contents = bytes.to_vec();
        contents.push(0);
        let ptr = self.push_allocation(contents.len() as u64, AllocKind::StringLiteral, None, true);
        let id = ptr
            .prov
            .alloc_id()
            .expect("fresh allocation has a provenance");
        for (i, b) in contents.iter().enumerate() {
            self.allocs[id as usize].cells.insert(
                i as u64,
                Cell {
                    size: 1,
                    value: MemValue::int(IntegerType::UChar, i128::from(*b)),
                },
            );
        }
        Ok(ptr)
    }

    fn register_function(&mut self, name: &Ident) -> PointerValue {
        let addr = match self.function_addrs.get(name.as_str()) {
            Some(&a) => a,
            None => {
                let a = FUNCTION_BASE + 16 * self.function_addrs.len() as u64;
                self.function_addrs.insert(name.as_str().to_owned(), a);
                self.functions_by_addr.insert(a, name.clone());
                a
            }
        };
        PointerValue {
            prov: Provenance::Empty,
            addr,
            function: Some(name.clone()),
        }
    }

    fn function_at(&self, addr: u64) -> Option<&Ident> {
        self.functions_by_addr.get(&addr)
    }

    fn kill(&mut self, ptr: &PointerValue, dynamic: bool) -> ModelResult<()> {
        if dynamic && ptr.is_null() {
            // free(NULL) is a no-op (7.22.3.3p2).
            return Ok(());
        }
        let id = match ptr
            .prov
            .alloc_id()
            .or_else(|| region_of(ptr.addr).map(|(id, _)| id))
        {
            Some(id) if (id as usize) < self.allocs.len() => id,
            _ => {
                return Err(Self::violated(
                    UbKind::InvalidFree,
                    "pointer into no known allocation",
                ))
            }
        };
        let base = region_base(id);
        let alloc = &mut self.allocs[id as usize];
        if !alloc.alive {
            return Err(Self::violated(
                UbKind::InvalidFree,
                "object lifetime already ended",
            ));
        }
        if dynamic {
            if alloc.kind != AllocKind::Dynamic {
                return Err(Self::violated(
                    UbKind::InvalidFree,
                    "free of a pointer not obtained from an allocation function",
                ));
            }
            if ptr.addr != base {
                return Err(Self::violated(
                    UbKind::InvalidFree,
                    "free of an interior pointer",
                ));
            }
        }
        alloc.alive = false;
        Ok(())
    }

    fn store(&mut self, ty: &Ctype, ptr: &PointerValue, value: &MemValue) -> ModelResult<()> {
        let len = self.size_of(ty)?;
        let (id, offset) = self.resolve(ptr, len, true)?;
        self.write_value(id, offset, ty, value)
    }

    fn load(&mut self, ty: &Ctype, ptr: &PointerValue) -> ModelResult<MemValue> {
        let len = self.size_of(ty)?;
        let (id, offset) = self.resolve(ptr, len, false)?;
        let value = self.read_value(id, offset, ty)?;
        if value.is_unspecified()
            && ty.is_scalar()
            && !ty.is_character()
            && self.config.uninit == UninitSemantics::Undefined
        {
            return Err(Self::violated(
                UbKind::IndeterminateValueUse,
                "read of an uninitialised (indeterminate) value",
            ));
        }
        Ok(value)
    }

    fn ptr_eq(&self, a: &PointerValue, b: &PointerValue) -> ModelResult<bool> {
        if a.function.is_some() || b.function.is_some() {
            return Ok(a.function == b.function);
        }
        if a.is_null() || b.is_null() {
            return Ok(a.is_null() == b.is_null());
        }
        match (a.prov.alloc_id(), b.prov.alloc_id()) {
            (Some(x), Some(y)) if x != y => {
                // Twin-allocation reading: pointers into distinct allocations
                // are never equal, even when a concrete layout would make a
                // one-past pointer alias the neighbour (Q2).
                self.record(format!(
                    "resolved cross-allocation equality @{x} vs @{y} to false"
                ));
                Ok(false)
            }
            _ => Ok(a.addr == b.addr),
        }
    }

    fn ptr_rel(&self, a: &PointerValue, b: &PointerValue) -> ModelResult<std::cmp::Ordering> {
        let same_object = match (a.prov.alloc_id(), b.prov.alloc_id()) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        };
        if !same_object {
            // The symbolic address space has no inter-allocation order.
            return Err(Self::violated(
                UbKind::RelationalCompareDifferentObjects,
                "relational comparison of pointers into different allocations",
            ));
        }
        Ok(a.addr.cmp(&b.addr))
    }

    fn ptr_diff(
        &self,
        a: &PointerValue,
        b: &PointerValue,
        elem_size: u64,
    ) -> ModelResult<IntegerValue> {
        let same_object = match (a.prov.alloc_id(), b.prov.alloc_id()) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        };
        if !same_object {
            return Err(Self::violated(
                UbKind::PointerSubtractionDifferentObjects,
                "subtraction of pointers into different allocations",
            ));
        }
        let diff = (a.addr as i128 - b.addr as i128) / elem_size.max(1) as i128;
        Ok(IntegerValue::pure(diff))
    }

    fn int_from_ptr(&self, p: &PointerValue) -> IntegerValue {
        IntegerValue::with_prov(p.addr as i128, p.prov)
    }

    fn ptr_from_int(&self, iv: &IntegerValue) -> PointerValue {
        if iv.value == 0 {
            return PointerValue::null();
        }
        let addr = iv.value as u64;
        if let Some(name) = self.functions_by_addr.get(&addr) {
            return PointerValue::function(name.clone());
        }
        let prov = match self.config.int_to_ptr {
            IntToPtrSemantics::Forbidden => Provenance::Empty,
            IntToPtrSemantics::TrackedProvenance => iv.prov,
            IntToPtrSemantics::Wildcard => Provenance::Wildcard,
        };
        // Lazy intptr resolution: a wildcard integer can still be
        // reconstructed, because symbolic addresses determine their
        // allocation uniquely. The footprint constraint is deferred to use.
        let prov = match prov {
            Provenance::Wildcard => match region_of(addr) {
                Some((id, _)) if (id as usize) < self.allocs.len() => {
                    self.record(format!(
                        "resolved intptr round trip 0x{addr:x} to {}",
                        self.describe(id)
                    ));
                    Provenance::Alloc(id)
                }
                _ => Provenance::Wildcard,
            },
            other => other,
        };
        PointerValue::object(prov, addr)
    }

    fn array_shift(
        &self,
        ptr: &PointerValue,
        elem_ty: &Ctype,
        index: i128,
    ) -> ModelResult<PointerValue> {
        let esize = self.size_of(elem_ty)? as i128;
        let new_addr = (ptr.addr as i128 + index * esize) as u64;
        if !self.config.allow_oob_pointer_arith {
            if let Some(id) = ptr.prov.alloc_id() {
                if let Some(alloc) = self.allocs.get(id as usize) {
                    let offset = new_addr.wrapping_sub(region_base(id));
                    if offset > alloc.size {
                        return Err(Self::violated(
                            UbKind::OutOfBoundsPointerArithmetic,
                            "pointer arithmetic leaves the object (and its one-past point)",
                        ));
                    }
                }
            }
        }
        Ok(ptr.with_addr(new_addr))
    }

    fn copy_bytes(&mut self, dst: &PointerValue, src: &PointerValue, n: u64) -> ModelResult<()> {
        if n == 0 {
            return Ok(());
        }
        let (src_id, src_off) = self.resolve(src, n, false)?;
        let (dst_id, dst_off) = self.resolve(dst, n, true)?;
        // Collect the transferred cells first (whole cells wholesale, partial
        // overlaps byte by byte) so overlapping self-copies are safe.
        let mut moved: Vec<(u64, Cell)> = Vec::new();
        let mut cursor = 0u64;
        while cursor < n {
            let at = src_off + cursor;
            let whole = self.allocs[src_id as usize]
                .cells
                .get(&at)
                .filter(|cell| cursor + cell.size <= n)
                .cloned();
            match whole {
                Some(cell) => {
                    let advance = cell.size;
                    moved.push((cursor, cell));
                    cursor += advance;
                }
                None => {
                    // An indeterminate source byte must transfer as an
                    // *explicit* unspecified cell: leaving a gap would let a
                    // zero-initialised destination read it back as a
                    // fabricated determinate 0.
                    let value = match self.byte_at(src_id, at) {
                        Some((byte, prov)) => MemValue::Integer(
                            IntegerType::UChar,
                            IntegerValue::with_prov(i128::from(byte), prov),
                        ),
                        None => MemValue::Unspecified(Ctype::integer(IntegerType::UChar)),
                    };
                    moved.push((cursor, Cell { size: 1, value }));
                    cursor += 1;
                }
            }
        }
        self.evict(dst_id, dst_off, dst_off + n);
        for (rel, cell) in moved {
            self.allocs[dst_id as usize]
                .cells
                .insert(dst_off + rel, cell);
        }
        Ok(())
    }

    fn compare_bytes(&self, a: &PointerValue, b: &PointerValue, n: u64) -> ModelResult<i32> {
        if n == 0 {
            return Ok(0);
        }
        let (a_id, a_off) = self.resolve(a, n, false)?;
        let (b_id, b_off) = self.resolve(b, n, false)?;
        for i in 0..n {
            let x = self.byte_at(a_id, a_off + i);
            let y = self.byte_at(b_id, b_off + i);
            let (x, y) = match (x, y, self.config.uninit) {
                (Some((x, _)), Some((y, _)), _) => (x, y),
                (_, _, UninitSemantics::Undefined) => {
                    return Err(Self::violated(
                        UbKind::IndeterminateValueUse,
                        "memcmp over indeterminate bytes",
                    ))
                }
                (x, y, _) => (x.map_or(0, |(v, _)| v), y.map_or(0, |(v, _)| v)),
            };
            if x != y {
                return Ok(if x < y { -1 } else { 1 });
            }
        }
        Ok(0)
    }

    fn set_bytes(&mut self, dst: &PointerValue, byte: u8, n: u64) -> ModelResult<()> {
        if n == 0 {
            return Ok(());
        }
        let (id, offset) = self.resolve(dst, n, true)?;
        self.evict(id, offset, offset + n);
        for i in 0..n {
            self.allocs[id as usize].cells.insert(
                offset + i,
                Cell {
                    size: 1,
                    value: MemValue::int(IntegerType::UChar, i128::from(byte)),
                },
            );
        }
        Ok(())
    }

    fn read_c_string(&self, ptr: &PointerValue) -> ModelResult<Vec<u8>> {
        let mut out = Vec::new();
        let mut addr = ptr.addr;
        loop {
            let p = ptr.with_addr(addr);
            let (id, offset) = self.resolve(&p, 1, false)?;
            let b = self.byte_at(id, offset).map(|(v, _)| v).ok_or_else(|| {
                Self::violated(
                    UbKind::IndeterminateValueUse,
                    "indeterminate byte in string",
                )
            })?;
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
            addr += 1;
            if out.len() > 1_000_000 {
                return Err(Self::violated(
                    UbKind::OutOfBoundsAccess,
                    "unterminated string",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MemoryModel;

    fn int_ty() -> Ctype {
        Ctype::integer(IntegerType::Int)
    }

    fn engine() -> SymbolicEngine {
        SymbolicEngine::new(ModelConfig::symbolic(), ImplEnv::lp64(), TagRegistry::new())
    }

    #[test]
    fn store_load_round_trip() {
        let mut mem = engine();
        let p = mem
            .create(&int_ty(), AllocKind::Automatic, Some("x"))
            .unwrap();
        mem.store(&int_ty(), &p, &MemValue::int(IntegerType::Int, -7))
            .unwrap();
        assert_eq!(mem.load(&int_ty(), &p).unwrap().as_int(), Some(-7));
        assert_eq!(mem.model_name(), "symbolic");
    }

    #[test]
    fn allocations_live_in_disjoint_regions() {
        let mut mem = engine();
        let x = mem.create(&int_ty(), AllocKind::Static, Some("x")).unwrap();
        let y = mem.create(&int_ty(), AllocKind::Static, Some("y")).unwrap();
        let one_past = mem.array_shift(&x, &int_ty(), 1).unwrap();
        // One-past-x is never the representation of &y.
        assert_ne!(one_past.addr, y.addr);
        assert!(!mem.ptr_eq(&one_past, &y).unwrap());
        assert!(!mem.resolutions().is_empty());
    }

    #[test]
    fn one_past_store_violates_the_footprint_constraint() {
        let mut mem = engine();
        let x = mem.create(&int_ty(), AllocKind::Static, Some("x")).unwrap();
        let _y = mem.create(&int_ty(), AllocKind::Static, Some("y")).unwrap();
        let one_past = mem.array_shift(&x, &int_ty(), 1).unwrap();
        let err = mem
            .store(&int_ty(), &one_past, &MemValue::int(IntegerType::Int, 11))
            .unwrap_err();
        assert_eq!(err.ub, UbKind::OutOfBoundsAccess);
        assert!(err.detail.starts_with("constraint violated"), "{err}");
    }

    #[test]
    fn cross_object_relational_comparison_is_a_constraint_violation() {
        let mut mem = engine();
        let a = mem.create(&int_ty(), AllocKind::Static, None).unwrap();
        let b = mem.create(&int_ty(), AllocKind::Static, None).unwrap();
        assert_eq!(
            mem.ptr_rel(&a, &b).unwrap_err().ub,
            UbKind::RelationalCompareDifferentObjects
        );
        // Within one object the offsets are ordered as usual.
        let arr = Ctype::array(int_ty(), 4);
        let base = mem.create(&arr, AllocKind::Automatic, None).unwrap();
        let third = mem.array_shift(&base, &int_ty(), 3).unwrap();
        assert_eq!(
            mem.ptr_rel(&base, &third).unwrap(),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn intptr_round_trip_resolves_through_provenance() {
        let mut mem = engine();
        let p = mem.create(&int_ty(), AllocKind::Automatic, None).unwrap();
        mem.store(&int_ty(), &p, &MemValue::int(IntegerType::Int, 5))
            .unwrap();
        let i = mem.int_from_ptr(&p);
        assert_eq!(i.prov, p.prov);
        let q = mem.ptr_from_int(&i);
        assert_eq!(mem.load(&int_ty(), &q).unwrap().as_int(), Some(5));
    }

    #[test]
    fn transient_oob_pointers_are_lazy() {
        let mut mem = engine();
        let arr = Ctype::array(int_ty(), 4);
        let a = mem.create(&arr, AllocKind::Automatic, None).unwrap();
        // Construction is unconstrained …
        let oob = mem.array_shift(&a, &int_ty(), 10).unwrap();
        // … the constraint is only checked at use.
        assert_eq!(
            mem.load(&int_ty(), &oob).unwrap_err().ub,
            UbKind::OutOfBoundsAccess
        );
        let back = mem.array_shift(&oob, &int_ty(), -9).unwrap();
        mem.store(&int_ty(), &back, &MemValue::int(IntegerType::Int, 7))
            .unwrap();
        assert_eq!(mem.load(&int_ty(), &back).unwrap().as_int(), Some(7));
    }

    #[test]
    fn memcpy_moves_pointer_cells_with_their_provenance() {
        let mut mem = engine();
        let target = mem
            .create(&int_ty(), AllocKind::Automatic, Some("t"))
            .unwrap();
        mem.store(&int_ty(), &target, &MemValue::int(IntegerType::Int, 99))
            .unwrap();
        let pty = Ctype::pointer(int_ty());
        let p1 = mem.create(&pty, AllocKind::Automatic, Some("p1")).unwrap();
        let p2 = mem.create(&pty, AllocKind::Automatic, Some("p2")).unwrap();
        mem.store(&pty, &p1, &MemValue::Pointer(int_ty(), target.clone()))
            .unwrap();
        mem.copy_bytes(&p2, &p1, 8).unwrap();
        let copied = mem.load(&pty, &p2).unwrap();
        let copied_ptr = copied.as_pointer().expect("a pointer");
        assert_eq!(copied_ptr.prov, target.prov);
        assert_eq!(mem.load(&int_ty(), copied_ptr).unwrap().as_int(), Some(99));
    }

    #[test]
    fn memcpy_of_indeterminate_bytes_stays_indeterminate() {
        // Copying an uninitialised automatic object into a zero-initialised
        // static one must not fabricate a determinate 0: the destination
        // reads back unspecified.
        let mut mem = engine();
        let src = mem.create(&int_ty(), AllocKind::Automatic, None).unwrap();
        let dst = mem.create(&int_ty(), AllocKind::Static, None).unwrap();
        mem.store(&int_ty(), &dst, &MemValue::int(IntegerType::Int, 77))
            .unwrap();
        mem.copy_bytes(&dst, &src, 4).unwrap();
        assert!(mem.load(&int_ty(), &dst).unwrap().is_unspecified());
    }

    #[test]
    fn memcmp_distinguishes_pointers_into_distinct_allocations() {
        // The DR260 shape: &x + 1 and &y are byte-distinguishable because
        // each allocation owns its own symbolic region.
        let mut mem = engine();
        let x = mem.create(&int_ty(), AllocKind::Static, Some("x")).unwrap();
        let y = mem.create(&int_ty(), AllocKind::Static, Some("y")).unwrap();
        let one_past = mem.array_shift(&x, &int_ty(), 1).unwrap();
        let pty = Ctype::pointer(int_ty());
        let p = mem.create(&pty, AllocKind::Automatic, Some("p")).unwrap();
        let q = mem.create(&pty, AllocKind::Automatic, Some("q")).unwrap();
        mem.store(&pty, &p, &MemValue::Pointer(int_ty(), one_past))
            .unwrap();
        mem.store(&pty, &q, &MemValue::Pointer(int_ty(), y))
            .unwrap();
        assert_ne!(mem.compare_bytes(&p, &q, 8).unwrap(), 0);
    }

    #[test]
    fn byte_granularity_integer_games_still_work() {
        // Union-punning shape: a 4-byte store read back bytewise.
        let mut mem = engine();
        let uint = Ctype::integer(IntegerType::UInt);
        let p = mem.create(&uint, AllocKind::Automatic, None).unwrap();
        mem.store(&uint, &p, &MemValue::int(IntegerType::UInt, 0x0102_0304))
            .unwrap();
        let char_ty = Ctype::integer(IntegerType::UChar);
        let b0 = mem.load(&char_ty, &p).unwrap();
        assert_eq!(b0.as_int(), Some(4), "little-endian low byte");
        let p1 = mem.array_shift(&p, &char_ty, 1).unwrap();
        assert_eq!(mem.load(&char_ty, &p1).unwrap().as_int(), Some(3));
    }

    #[test]
    fn partial_overwrite_of_a_pointer_cell_keeps_the_surviving_bytes() {
        // Overwriting one byte of a stored pointer must not fabricate a
        // confident wrong pointer out of the allocation's zero default: the
        // other seven bytes keep their (provenance-carrying) values, so the
        // reassembled pointer differs from the original only in that byte.
        let mut mem = engine();
        let target = mem.create(&int_ty(), AllocKind::Static, Some("x")).unwrap();
        let pty = Ctype::pointer(int_ty());
        let p = mem.create(&pty, AllocKind::Static, Some("p")).unwrap();
        mem.store(&pty, &p, &MemValue::Pointer(int_ty(), target.clone()))
            .unwrap();
        let char_ty = Ctype::integer(IntegerType::UChar);
        mem.store(&char_ty, &p, &MemValue::int(IntegerType::UChar, 0xAB))
            .unwrap();
        let loaded = mem.load(&pty, &p).unwrap();
        let ptr = loaded.as_pointer().expect("a pointer");
        // Little-endian: low byte replaced, high bytes survive with their
        // provenance.
        assert_eq!(ptr.addr, (target.addr & !0xff) | 0xAB);
        assert_eq!(ptr.prov, target.prov);
        // An indeterminate cell split the same way stays indeterminate
        // (even in a zero-initialised static allocation).
        let q = mem.create(&pty, AllocKind::Static, Some("q")).unwrap();
        mem.store(&pty, &q, &MemValue::Unspecified(pty.clone()))
            .unwrap();
        mem.store(&char_ty, &q, &MemValue::int(IntegerType::UChar, 1))
            .unwrap();
        assert!(mem.load(&pty, &q).unwrap().is_unspecified());
    }

    #[test]
    fn statics_read_zero_and_automatics_read_indeterminate() {
        let mut mem = engine();
        let s = mem.create(&int_ty(), AllocKind::Static, Some("g")).unwrap();
        assert_eq!(mem.load(&int_ty(), &s).unwrap().as_int(), Some(0));
        let a = mem.create(&int_ty(), AllocKind::Automatic, None).unwrap();
        assert!(mem.load(&int_ty(), &a).unwrap().is_unspecified());
    }

    #[test]
    fn lifetime_and_free_constraints() {
        let mut mem = engine();
        let p = mem.create(&int_ty(), AllocKind::Automatic, None).unwrap();
        mem.kill(&p, false).unwrap();
        assert_eq!(
            mem.load(&int_ty(), &p).unwrap_err().ub,
            UbKind::AccessOutsideLifetime
        );
        let d = mem.alloc(16, 16).unwrap();
        mem.kill(&d, true).unwrap();
        assert_eq!(mem.kill(&d, true).unwrap_err().ub, UbKind::InvalidFree);
        mem.kill(&PointerValue::null(), true).unwrap();
    }

    #[test]
    fn string_literals_are_readable_and_immutable() {
        let mut mem = engine();
        let s = mem.create_string_literal(b"hi").unwrap();
        assert_eq!(mem.read_c_string(&s).unwrap(), b"hi".to_vec());
        let err = mem
            .store(
                &Ctype::integer(IntegerType::Char),
                &s,
                &MemValue::int(IntegerType::Char, 65),
            )
            .unwrap_err();
        assert_eq!(err.ub, UbKind::StringLiteralModification);
    }

    #[test]
    fn fresh_resets_state_but_keeps_configuration() {
        let mut mem = engine();
        let _ = mem.create(&int_ty(), AllocKind::Automatic, None).unwrap();
        assert_eq!(mem.live_allocations(), 1);
        let fresh = MemoryModel::fresh(&mem);
        assert_eq!(fresh.live_allocations(), 0);
        assert_eq!(fresh.model_name(), "symbolic");
    }
}
