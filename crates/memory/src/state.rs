//! The memory engine: allocations, representation bytes, typed loads and
//! stores, and the pointer operations — all parameterised by a
//! [`ModelConfig`].
//!
//! The engine realises the candidate de facto model of §5.9 (and, by varying
//! the configuration, the other points in the design space): every allocation
//! has a fresh ID and a concrete address range; loads and stores check the
//! access against the footprint of the allocation named by the pointer's
//! *provenance*; representation bytes carry provenance so that pointers copied
//! bytewise (Q13–Q16) remain usable; and padding, uninitialised-read,
//! effective-type and out-of-bounds behaviour follow the configured semantics.

use std::cell::Cell;
use std::collections::HashMap;

use cerberus_ast::ctype::{Ctype, IntegerType};
use cerberus_ast::env::ImplEnv;
use cerberus_ast::ident::Ident;
use cerberus_ast::layout::{self, TagRegistry};
use cerberus_ast::ub::UbKind;

use crate::config::{
    FieldSet, IntToPtrSemantics, ModelConfig, PaddingSemantics, RelationalSemantics,
    UninitSemantics,
};
use crate::model::{MemoryModel, ModelResult};
use crate::value::{AllocId, IntegerValue, MemValue, PointerValue, Provenance};

/// The storage duration / origin of an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocKind {
    /// Static storage duration (file-scope objects, static locals).
    Static,
    /// Automatic storage duration (block-scoped objects, parameters).
    Automatic,
    /// Allocated storage duration (`malloc`/`calloc`).
    Dynamic,
    /// A string literal object (read-only).
    StringLiteral,
}

/// One representation byte: an optional concrete value (absent for
/// unspecified bytes) together with the provenance it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsByte {
    /// The provenance carried by this byte (so bytewise pointer copies keep
    /// working).
    pub prov: Provenance,
    /// The concrete byte, or `None` for an unspecified byte.
    pub value: Option<u8>,
}

impl AbsByte {
    fn unspec() -> Self {
        AbsByte {
            prov: Provenance::Empty,
            value: None,
        }
    }

    fn zero() -> Self {
        AbsByte {
            prov: Provenance::Empty,
            value: Some(0),
        }
    }
}

/// A single allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// The allocation ID (its provenance).
    pub id: AllocId,
    /// Base address.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
    /// Alignment the address satisfies.
    pub align: u64,
    /// Storage kind.
    pub kind: AllocKind,
    /// Whether the object is still within its lifetime.
    pub alive: bool,
    /// The declared type, for objects with one (used by the effective-type
    /// rules).
    pub declared_ty: Option<Ctype>,
    /// The effective type of an object with no declared type (set by the
    /// first non-character store, 6.5p6, under every configuration).
    pub effective_ty: Option<Ctype>,
    /// The source name, if known (for diagnostics).
    pub name: Option<String>,
    /// Whether stores are forbidden (string literals).
    pub readonly: bool,
    bytes: Vec<AbsByte>,
}

impl Allocation {
    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// Whether `[addr, addr+len)` lies within the allocation. A range whose
    /// end would pass 2^64 lies within none.
    pub fn contains_range(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr <= self.end() && len <= self.end() - addr
    }
}

/// A memory error: the undefined behaviour detected and a human-readable
/// explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemError {
    /// Which undefined behaviour.
    pub ub: UbKind,
    /// What happened.
    pub detail: String,
}

impl MemError {
    /// A memory error reporting the given undefined behaviour.
    pub fn new(ub: UbKind, detail: impl Into<String>) -> Self {
        MemError {
            ub,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.ub, self.detail)
    }
}

impl std::error::Error for MemError {}

/// Base address of the object address space.
const OBJECT_BASE: u64 = 0x1_0000;
/// Base of the synthetic function "address" space.
const FUNCTION_BASE: u64 = 0x1000;

/// The memory state: the set of allocations, the configuration, and the
/// implementation-defined environment.
#[derive(Debug, Clone)]
pub struct MemState {
    config: ModelConfig,
    /// The semantic fields of `config` this execution has read (see
    /// [`MemState::consult`]).
    consulted: Cell<FieldSet>,
    env: ImplEnv,
    tags: TagRegistry,
    allocations: Vec<Allocation>,
    next_addr: u64,
    function_addrs: HashMap<String, u64>,
    functions_by_addr: HashMap<u64, Ident>,
    /// Shadow stores used by the GCC-like provenance-optimising semantics
    /// (see [`ModelConfig::provenance_optimising_stores`]): address → bytes.
    shadow: HashMap<u64, Vec<AbsByte>>,
}

impl MemState {
    /// A fresh memory state.
    pub fn new(config: ModelConfig, env: ImplEnv, tags: TagRegistry) -> Self {
        MemState {
            config,
            consulted: Cell::new(FieldSet::EMPTY),
            env,
            tags,
            allocations: Vec::new(),
            next_addr: OBJECT_BASE,
            function_addrs: HashMap::new(),
            functions_by_addr: HashMap::new(),
            shadow: HashMap::new(),
        }
    }

    /// The configuration, recording `field` as consulted. Every read of a
    /// semantic field goes through here, and only where its answer can
    /// change the result, so [`MemoryModel::consulted`] names every field an
    /// execution depends on and no field it does not.
    fn consult(&self, field: FieldSet) -> &ModelConfig {
        self.consulted.set(self.consulted.get() | field);
        &self.config
    }

    /// All allocations made so far (for inspection and tests).
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// Look up an allocation by ID.
    pub fn allocation(&self, id: AllocId) -> Option<&Allocation> {
        self.allocations.get(id as usize)
    }

    // ----- allocation --------------------------------------------------------

    fn push_allocation(
        &mut self,
        size: u64,
        align: u64,
        kind: AllocKind,
        declared_ty: Option<Ctype>,
        name: Option<&str>,
        readonly: bool,
    ) -> PointerValue {
        let id = self.allocations.len() as AllocId;
        let base = layout::align_up(self.next_addr, align.max(1));
        let init_byte = match kind {
            AllocKind::Static | AllocKind::StringLiteral => AbsByte::zero(),
            _ => AbsByte::unspec(),
        };
        let alloc = Allocation {
            id,
            base,
            size,
            align,
            kind,
            alive: true,
            declared_ty,
            effective_ty: None,
            name: name.map(str::to_owned),
            readonly,
            bytes: vec![init_byte; size as usize],
        };
        self.next_addr = base + size;
        self.allocations.push(alloc);
        PointerValue::object(Provenance::Alloc(id), base)
    }

    fn resolve_allocation(&self, ptr: &PointerValue) -> ModelResult<AllocId> {
        if let Some(id) = ptr.prov.alloc_id() {
            return Ok(id);
        }
        self.find_alloc_by_addr(ptr.addr)
            .map(|a| a.id)
            .ok_or_else(|| MemError::new(UbKind::InvalidFree, "pointer into no live allocation"))
    }

    fn find_alloc_by_addr(&self, addr: u64) -> Option<&Allocation> {
        self.allocations
            .iter()
            .find(|a| a.alive && addr >= a.base && addr < a.end())
    }

    // ----- access checking ---------------------------------------------------

    fn check_access(&self, ptr: &PointerValue, len: u64, is_store: bool) -> ModelResult<AllocId> {
        if ptr.function.is_some() {
            return Err(MemError::new(
                UbKind::InvalidLvalue,
                "object access through a function pointer",
            ));
        }
        if ptr.is_null() {
            return Err(MemError::new(
                UbKind::NullPointerDeref,
                "access through a null pointer",
            ));
        }
        // A CHERI capability is the bounds of the allocation the provenance
        // names: no allocation moves or resizes, and nothing clears a tag.
        // So an access inside those bounds passes under either reading of
        // `cheri`, and only a rejecting check consults it.
        let prov_alloc = ptr.prov.alloc_id().and_then(|id| self.allocation(id));
        match prov_alloc {
            Some(alloc) if alloc.contains_range(ptr.addr, len) => {}
            _ if !self.consult(FieldSet::CHERI).cheri => {}
            Some(_) => {
                return Err(MemError::new(
                    UbKind::OutOfBoundsAccess,
                    "capability bounds violation",
                ))
            }
            None => {
                return Err(MemError::new(
                    UbKind::AccessWithoutProvenance,
                    "access through an untagged CHERI pointer",
                ))
            }
        }
        // An allocation the provenance names, live and holding the whole
        // access, is the one both readings of `provenance_checking` pick:
        // live allocations never overlap, since no address is reused.
        let named =
            prov_alloc.filter(|alloc| alloc.alive && alloc.contains_range(ptr.addr, len.max(1)));
        let id = if let Some(alloc) = named {
            alloc.id
        } else if self
            .consult(FieldSet::PROVENANCE_CHECKING)
            .provenance_checking
        {
            match ptr.prov {
                Provenance::Alloc(id) => {
                    let alloc = self.allocation(id).ok_or_else(|| {
                        MemError::new(UbKind::OutOfBoundsAccess, "unknown allocation")
                    })?;
                    if !alloc.alive {
                        return Err(MemError::new(
                            UbKind::AccessOutsideLifetime,
                            format!("access to {} after its lifetime ended", describe(alloc)),
                        ));
                    }
                    if !alloc.contains_range(ptr.addr, len) {
                        return Err(MemError::new(
                            UbKind::OutOfBoundsAccess,
                            format!(
                                "address 0x{:x} (+{len}) is outside the footprint of {}",
                                ptr.addr,
                                describe(alloc)
                            ),
                        ));
                    }
                    id
                }
                Provenance::Empty => {
                    return Err(MemError::new(
                        UbKind::AccessWithoutProvenance,
                        "access through a pointer with empty provenance",
                    ))
                }
                Provenance::Wildcard => {
                    let alloc = self.find_alloc_by_addr(ptr.addr).ok_or_else(|| {
                        MemError::new(
                            UbKind::OutOfBoundsAccess,
                            "wildcard pointer does not refer to any live allocation",
                        )
                    })?;
                    if !alloc.contains_range(ptr.addr, len) {
                        return Err(MemError::new(UbKind::OutOfBoundsAccess, "partial overlap"));
                    }
                    alloc.id
                }
            }
        } else {
            let alloc = self.find_alloc_by_addr(ptr.addr).ok_or_else(|| {
                MemError::new(
                    UbKind::OutOfBoundsAccess,
                    format!("address 0x{:x} is not within any live allocation", ptr.addr),
                )
            })?;
            if !alloc.contains_range(ptr.addr, len) {
                return Err(MemError::new(
                    UbKind::OutOfBoundsAccess,
                    "access straddles allocations",
                ));
            }
            alloc.id
        };
        if is_store && self.allocations[id as usize].readonly {
            return Err(MemError::new(
                UbKind::StringLiteralModification,
                "store into a read-only (string literal) object",
            ));
        }
        Ok(id)
    }

    fn check_effective_type(
        &mut self,
        id: AllocId,
        access_ty: &Ctype,
        is_store: bool,
    ) -> ModelResult<()> {
        if access_ty.is_character() {
            return Ok(());
        }
        let alloc = &self.allocations[id as usize];
        match alloc.declared_ty.as_ref().or(alloc.effective_ty.as_ref()) {
            None => {
                if is_store {
                    self.allocations[id as usize].effective_ty = Some(access_ty.clone());
                }
                Ok(())
            }
            Some(decl)
                if types_alias_compatible(decl, access_ty)
                    || !self.consult(FieldSet::EFFECTIVE_TYPES).effective_types =>
            {
                Ok(())
            }
            Some(decl) => Err(MemError::new(
                UbKind::EffectiveTypeViolation,
                format!("access at type {access_ty} to an object with effective type {decl}"),
            )),
        }
    }

    // ----- serialisation -----------------------------------------------------

    fn int_to_bytes(&self, value: i128, size: u64, prov: Provenance) -> Vec<AbsByte> {
        let mut out = Vec::with_capacity(size as usize);
        let uval = value as u128;
        for i in 0..size {
            out.push(AbsByte {
                prov,
                value: Some(((uval >> (8 * i)) & 0xff) as u8),
            });
        }
        out
    }

    fn bytes_to_int(&self, bytes: &[AbsByte], signed: bool) -> Option<(i128, Provenance)> {
        let mut value: u128 = 0;
        let mut prov = Provenance::Empty;
        for (i, b) in bytes.iter().enumerate() {
            let v = b.value?;
            value |= (v as u128) << (8 * i as u32);
            prov = prov.combine(b.prov);
        }
        let width = 8 * bytes.len() as u32;
        let mut signed_value = value as i128;
        if signed && width < 128 {
            let sign_bit = 1u128 << (width - 1);
            if value & sign_bit != 0 {
                signed_value = (value as i128) - (1i128 << width);
            }
        }
        Some((signed_value, prov))
    }

    /// Serialise a memory value at a C type into representation bytes.
    pub fn serialize(&self, ty: &Ctype, value: &MemValue) -> ModelResult<Vec<AbsByte>> {
        let size = self.size_of(ty)?;
        match (ty, value) {
            (_, MemValue::Unspecified(_)) => Ok(vec![AbsByte::unspec(); size as usize]),
            (Ctype::Integer(it), MemValue::Integer(_, iv)) => {
                Ok(self.int_to_bytes(iv.value, self.env.integer_size(*it), iv.prov))
            }
            (Ctype::Integer(it), MemValue::Pointer(_, pv)) => {
                // Storing a pointer at an integer type (e.g. uintptr_t).
                Ok(self.int_to_bytes(pv.addr as i128, self.env.integer_size(*it), pv.prov))
            }
            (Ctype::Pointer(..), MemValue::Pointer(_, pv)) => {
                Ok(self.int_to_bytes(pv.addr as i128, self.env.pointer_size, pv.prov))
            }
            (Ctype::Pointer(..), MemValue::Integer(_, iv)) => {
                Ok(self.int_to_bytes(iv.value, self.env.pointer_size, iv.prov))
            }
            (Ctype::Array(elem, _), MemValue::Array(items)) => {
                let mut out = Vec::with_capacity(size as usize);
                for item in items {
                    out.extend(self.serialize(elem, item)?);
                }
                out.resize(size as usize, AbsByte::unspec());
                Ok(out)
            }
            (Ctype::Struct(tag), MemValue::Struct(_, members)) => {
                let lay = layout::layout_of_tag(*tag, &self.env, &self.tags)
                    .map_err(|e| MemError::new(UbKind::InvalidLvalue, e.to_string()))?;
                let mut out = vec![AbsByte::unspec(); size as usize];
                let def = self
                    .tags
                    .get(*tag)
                    .ok_or_else(|| MemError::new(UbKind::InvalidLvalue, "incomplete struct"))?
                    .clone();
                for (member, (_, offset, _)) in def.members.iter().zip(lay.members.iter()) {
                    let value = members
                        .iter()
                        .find(|(n, _)| n == &member.name)
                        .map(|(_, v)| v.clone())
                        .unwrap_or(MemValue::Unspecified(member.ty.clone()));
                    let bytes = self.serialize(&member.ty, &value)?;
                    for (i, b) in bytes.into_iter().enumerate() {
                        out[*offset as usize + i] = b;
                    }
                }
                // Padding bytes stay unspecified; the configured padding
                // semantics is applied by `store`.
                Ok(out)
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
                let mut out = vec![AbsByte::unspec(); size as usize];
                for (i, b) in self.serialize(&m.ty, inner)?.into_iter().enumerate() {
                    out[i] = b;
                }
                Ok(out)
            }
            (Ctype::Floating, MemValue::Integer(_, iv)) => {
                Ok(self.int_to_bytes(iv.value, 8, iv.prov))
            }
            (ty, value) => Err(MemError::new(
                UbKind::InvalidLvalue,
                format!("cannot represent {value} at type {ty}"),
            )),
        }
    }

    /// Deserialise representation bytes at a C type into a memory value.
    pub fn deserialize(&self, ty: &Ctype, bytes: &[AbsByte]) -> ModelResult<MemValue> {
        match ty {
            Ctype::Integer(it) => {
                let signed = self.env.is_signed(*it);
                match self.bytes_to_int(bytes, signed) {
                    Some((v, prov)) => Ok(MemValue::Integer(*it, IntegerValue::with_prov(v, prov))),
                    None => Ok(MemValue::Unspecified(ty.clone())),
                }
            }
            Ctype::Pointer(_, pointee) => match self.bytes_to_int(bytes, false) {
                Some((v, prov)) => {
                    let addr = v as u64;
                    if let Some(name) = self.functions_by_addr.get(&addr) {
                        return Ok(MemValue::Pointer(
                            (**pointee).clone(),
                            PointerValue {
                                prov: Provenance::Empty,
                                addr,
                                function: Some(name.clone()),
                            },
                        ));
                    }
                    Ok(MemValue::Pointer(
                        (**pointee).clone(),
                        PointerValue::object(prov, addr),
                    ))
                }
                None => Ok(MemValue::Unspecified(ty.clone())),
            },
            Ctype::Array(elem, Some(n)) => {
                let esize = self.size_of(elem)? as usize;
                let mut items = Vec::with_capacity(*n as usize);
                for i in 0..*n as usize {
                    items.push(self.deserialize(elem, &bytes[i * esize..(i + 1) * esize])?);
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
                for (member, (_, offset, msize)) in def.members.iter().zip(lay.members.iter()) {
                    let slice = &bytes[*offset as usize..(*offset + *msize) as usize];
                    members.push((member.name.clone(), self.deserialize(&member.ty, slice)?));
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
                let fsize = self.size_of(&first.ty)? as usize;
                let inner = self.deserialize(&first.ty, &bytes[..fsize])?;
                Ok(MemValue::Union(*tag, first.name.clone(), Box::new(inner)))
            }
            Ctype::Floating => match self.bytes_to_int(bytes, true) {
                Some((v, prov)) => Ok(MemValue::Integer(
                    IntegerType::LongLong,
                    IntegerValue::with_prov(v, prov),
                )),
                None => Ok(MemValue::Unspecified(ty.clone())),
            },
            _ => Err(MemError::new(
                UbKind::InvalidLvalue,
                format!("cannot load at type {ty}"),
            )),
        }
    }

    // ----- load / store ------------------------------------------------------

    fn is_one_past_store(&self, ptr: &PointerValue, len: u64) -> bool {
        match ptr.prov.alloc_id().and_then(|id| self.allocation(id)) {
            Some(alloc) => {
                ptr.addr == alloc.end() && self.find_alloc_by_addr(ptr.addr).is_some() && len > 0
            }
            None => false,
        }
    }

    fn padding_offsets(&self, ty: &Ctype) -> ModelResult<Vec<u64>> {
        match ty {
            Ctype::Struct(tag) => {
                let lay = layout::layout_of_tag(*tag, &self.env, &self.tags)
                    .map_err(|e| MemError::new(UbKind::InvalidLvalue, e.to_string()))?;
                let mut out = Vec::new();
                for p in &lay.padding {
                    for off in p.offset..p.offset + p.len {
                        out.push(off);
                    }
                }
                Ok(out)
            }
            _ => Ok(Vec::new()),
        }
    }
}

impl MemoryModel for MemState {
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
        MemState::new(self.config.clone(), self.env.clone(), self.tags.clone())
    }

    fn consulted(&self) -> FieldSet {
        self.consulted.get()
    }

    fn create(
        &mut self,
        ty: &Ctype,
        kind: AllocKind,
        name: Option<&str>,
    ) -> ModelResult<PointerValue> {
        let size = self.size_of(ty)?;
        let align = self.align_of(ty)?;
        Ok(self.push_allocation(size, align, kind, Some(ty.clone()), name, false))
    }

    fn alloc(&mut self, size: u64, align: u64) -> ModelResult<PointerValue> {
        Ok(self.push_allocation(
            size.max(1),
            align.max(1),
            AllocKind::Dynamic,
            None,
            None,
            false,
        ))
    }

    fn create_string_literal(&mut self, bytes: &[u8]) -> ModelResult<PointerValue> {
        let mut contents = bytes.to_vec();
        contents.push(0);
        let ptr = self.push_allocation(
            contents.len() as u64,
            1,
            AllocKind::StringLiteral,
            Some(Ctype::array(
                Ctype::integer(IntegerType::Char),
                contents.len() as u64,
            )),
            None,
            true,
        );
        let id = ptr
            .prov
            .alloc_id()
            .expect("fresh string allocation has a provenance");
        let alloc = &mut self.allocations[id as usize];
        for (i, b) in contents.iter().enumerate() {
            alloc.bytes[i] = AbsByte {
                prov: Provenance::Empty,
                value: Some(*b),
            };
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
        let id = self.resolve_allocation(ptr)?;
        let alloc = &mut self.allocations[id as usize];
        if !alloc.alive {
            return Err(MemError::new(
                UbKind::InvalidFree,
                "object lifetime already ended",
            ));
        }
        if dynamic {
            if alloc.kind != AllocKind::Dynamic {
                return Err(MemError::new(
                    UbKind::InvalidFree,
                    "free of a pointer not obtained from an allocation function",
                ));
            }
            if ptr.addr != alloc.base {
                return Err(MemError::new(
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
        let id = match self.check_access(ptr, len, true) {
            Ok(id) => id,
            Err(e)
                if e.ub == UbKind::OutOfBoundsAccess
                    && self
                        .consult(FieldSet::PROVENANCE_OPTIMISING_STORES)
                        .provenance_optimising_stores
                    && self.is_one_past_store(ptr, len) =>
            {
                // GCC-like provenance reasoning: the store is assumed not to
                // alias any other object, so it lands in a shadow visible only
                // through this provenance.
                let bytes = self.serialize(ty, value)?;
                self.shadow.insert(ptr.addr, bytes);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        self.check_effective_type(id, ty, true)?;
        let bytes = self.serialize(ty, value)?;
        let padding_offsets = self.padding_offsets(ty)?;
        // Every padding offset lies within the stored bytes.
        let clobbers = !padding_offsets.is_empty()
            && self.consult(FieldSet::PADDING).padding == PaddingSemantics::MemberStoreClobbers;
        let alloc = &mut self.allocations[id as usize];
        let start = (ptr.addr - alloc.base) as usize;
        for (i, b) in bytes.into_iter().enumerate() {
            let dst = &mut alloc.bytes[start + i];
            if !padding_offsets.contains(&(i as u64)) {
                *dst = b;
            } else if clobbers {
                *dst = AbsByte::unspec();
            }
        }
        Ok(())
    }

    fn load(&mut self, ty: &Ctype, ptr: &PointerValue) -> ModelResult<MemValue> {
        let len = self.size_of(ty)?;
        // Shadowed GCC-like loads: a load through a provenance whose store was
        // redirected reads the shadow. Only such a store fills the shadow.
        if let Some(bytes) = self.shadow.get(&ptr.addr) {
            if self
                .consult(FieldSet::PROVENANCE_OPTIMISING_STORES)
                .provenance_optimising_stores
                && self.is_one_past_store(ptr, len)
            {
                return self.deserialize(ty, bytes);
            }
        }
        let id = self.check_access(ptr, len, false)?;
        self.check_effective_type(id, ty, false)?;
        let alloc = &self.allocations[id as usize];
        let start = (ptr.addr - alloc.base) as usize;
        let bytes: Vec<AbsByte> = alloc.bytes[start..start + len as usize].to_vec();
        let value = self.deserialize(ty, &bytes)?;
        if value.is_unspecified()
            && ty.is_scalar()
            && !ty.is_character()
            && self.consult(FieldSet::UNINIT).uninit == UninitSemantics::Undefined
        {
            return Err(MemError::new(
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
        if a.addr != b.addr || a.prov == b.prov {
            return Ok(a.addr == b.addr);
        }
        // GCC observably treats pointers with the same representation but
        // different provenances as unequal when the information is
        // statically available (Q2); CHERI's exact-equals compares the
        // metadata too.
        Ok(!(self
            .consult(FieldSet::EQUALITY_USES_PROVENANCE)
            .equality_uses_provenance
            || self.consult(FieldSet::CHERI).cheri))
    }

    fn ptr_rel(&self, a: &PointerValue, b: &PointerValue) -> ModelResult<std::cmp::Ordering> {
        let same_object = match (a.prov.alloc_id(), b.prov.alloc_id()) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        };
        if !same_object
            && self.consult(FieldSet::RELATIONAL).relational == RelationalSemantics::Undefined
        {
            return Err(MemError::new(
                UbKind::RelationalCompareDifferentObjects,
                "relational comparison of pointers to different objects",
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
        if !same_object
            && self
                .consult(FieldSet::PROVENANCE_CHECKING)
                .provenance_checking
        {
            return Err(MemError::new(
                UbKind::PointerSubtractionDifferentObjects,
                "subtraction of pointers into different objects",
            ));
        }
        let diff = (a.addr as i128 - b.addr as i128) / elem_size.max(1) as i128;
        // "Subtraction of two values produces a pure integer (to use as an
        // offset)" (§5.9).
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
            return PointerValue {
                prov: Provenance::Empty,
                addr,
                function: Some(name.clone()),
            };
        }
        let prov = match self.consult(FieldSet::INT_TO_PTR).int_to_ptr {
            IntToPtrSemantics::TrackedProvenance => iv.prov,
            IntToPtrSemantics::Wildcard => Provenance::Wildcard,
            IntToPtrSemantics::Forbidden => Provenance::Empty,
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
        if let Some(alloc) = ptr.prov.alloc_id().and_then(|id| self.allocation(id)) {
            if (new_addr < alloc.base || new_addr > alloc.end())
                && !self
                    .consult(FieldSet::ALLOW_OOB_POINTER_ARITH)
                    .allow_oob_pointer_arith
            {
                return Err(MemError::new(
                    UbKind::OutOfBoundsPointerArithmetic,
                    "pointer arithmetic leaves the object (and its one-past point)",
                ));
            }
        }
        Ok(ptr.with_addr(new_addr))
    }

    fn copy_bytes(&mut self, dst: &PointerValue, src: &PointerValue, n: u64) -> ModelResult<()> {
        if n == 0 {
            return Ok(());
        }
        let src_id = self.check_access(src, n, false)?;
        let dst_id = self.check_access(dst, n, true)?;
        let src_alloc = &self.allocations[src_id as usize];
        let start = (src.addr - src_alloc.base) as usize;
        let bytes: Vec<AbsByte> = src_alloc.bytes[start..start + n as usize].to_vec();
        let dst_alloc = &mut self.allocations[dst_id as usize];
        let dstart = (dst.addr - dst_alloc.base) as usize;
        dst_alloc.bytes[dstart..dstart + n as usize].copy_from_slice(&bytes);
        Ok(())
    }

    /// `memcmp(a, b, n)`: compare representation bytes. Unspecified bytes
    /// compare as zero under the liberal configurations and are an error under
    /// strict uninitialised-read semantics.
    fn compare_bytes(&self, a: &PointerValue, b: &PointerValue, n: u64) -> ModelResult<i32> {
        if n == 0 {
            return Ok(0);
        }
        let a_id = self.check_access(a, n, false)?;
        let b_id = self.check_access(b, n, false)?;
        let aa = &self.allocations[a_id as usize];
        let ba = &self.allocations[b_id as usize];
        let astart = (a.addr - aa.base) as usize;
        let bstart = (b.addr - ba.base) as usize;
        for i in 0..n as usize {
            let x = aa.bytes[astart + i].value;
            let y = ba.bytes[bstart + i].value;
            let (x, y) = match (x, y) {
                (Some(x), Some(y)) => (x, y),
                _ if self.consult(FieldSet::UNINIT).uninit == UninitSemantics::Undefined => {
                    return Err(MemError::new(
                        UbKind::IndeterminateValueUse,
                        "memcmp over unspecified bytes",
                    ))
                }
                (x, y) => (x.unwrap_or(0), y.unwrap_or(0)),
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
        let id = self.check_access(dst, n, true)?;
        let alloc = &mut self.allocations[id as usize];
        let start = (dst.addr - alloc.base) as usize;
        for b in &mut alloc.bytes[start..start + n as usize] {
            *b = AbsByte {
                prov: Provenance::Empty,
                value: Some(byte),
            };
        }
        Ok(())
    }

    fn read_c_string(&self, ptr: &PointerValue) -> ModelResult<Vec<u8>> {
        let mut out = Vec::new();
        let mut addr = ptr.addr;
        loop {
            let p = ptr.with_addr(addr);
            let id = self.check_access(&p, 1, false)?;
            let alloc = &self.allocations[id as usize];
            let b = alloc.bytes[(addr - alloc.base) as usize]
                .value
                .ok_or_else(|| {
                    MemError::new(UbKind::IndeterminateValueUse, "unspecified byte in string")
                })?;
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
            addr += 1;
            if out.len() > 1_000_000 {
                return Err(MemError::new(
                    UbKind::OutOfBoundsAccess,
                    "unterminated string",
                ));
            }
        }
    }
}

fn describe(alloc: &Allocation) -> String {
    match &alloc.name {
        Some(name) => format!("allocation @{} ({name})", alloc.id),
        None => format!("allocation @{}", alloc.id),
    }
}

/// Whether an access at `access` to an object whose effective type is `decl`
/// is permitted by 6.5p7 (restricted to the supported fragment: identical
/// types, signed/unsigned pairs of the same width, and array-element access).
fn types_alias_compatible(decl: &Ctype, access: &Ctype) -> bool {
    if decl == access {
        return true;
    }
    match (decl, access) {
        (Ctype::Array(elem, _), a) => types_alias_compatible(elem, a),
        (Ctype::Integer(a), Ctype::Integer(b)) => a.to_unsigned() == b.to_unsigned(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cerberus_ast::ctype::Member;
    use cerberus_ast::layout::TagKind;

    fn int_ty() -> Ctype {
        Ctype::integer(IntegerType::Int)
    }

    fn new_state(config: ModelConfig) -> MemState {
        MemState::new(config, ImplEnv::lp64(), TagRegistry::new())
    }

    #[test]
    fn store_load_round_trip() {
        let mut mem = new_state(ModelConfig::de_facto());
        let p = mem
            .create(&int_ty(), AllocKind::Automatic, Some("x"))
            .unwrap();
        mem.store(&int_ty(), &p, &MemValue::int(IntegerType::Int, -7))
            .unwrap();
        assert_eq!(mem.load(&int_ty(), &p).unwrap().as_int(), Some(-7));
    }

    #[test]
    fn uninitialised_reads_follow_config() {
        let mut liberal = new_state(ModelConfig::de_facto());
        let p = liberal
            .create(&int_ty(), AllocKind::Automatic, None)
            .unwrap();
        assert!(liberal.load(&int_ty(), &p).unwrap().is_unspecified());

        let mut strict = new_state(ModelConfig::strict_iso());
        let q = strict
            .create(&int_ty(), AllocKind::Automatic, None)
            .unwrap();
        let err = strict.load(&int_ty(), &q).unwrap_err();
        assert_eq!(err.ub, UbKind::IndeterminateValueUse);
    }

    #[test]
    fn static_objects_are_zero_initialised() {
        let mut mem = new_state(ModelConfig::de_facto());
        let p = mem.create(&int_ty(), AllocKind::Static, Some("g")).unwrap();
        assert_eq!(mem.load(&int_ty(), &p).unwrap().as_int(), Some(0));
    }

    #[test]
    fn provenance_checked_oob_store_is_ub() {
        // The DR260 example: one-past-x aliases y; under the candidate de
        // facto model the store is undefined behaviour.
        let mut mem = new_state(ModelConfig::de_facto());
        let x = mem.create(&int_ty(), AllocKind::Static, Some("x")).unwrap();
        let _y = mem.create(&int_ty(), AllocKind::Static, Some("y")).unwrap();
        let one_past = mem.array_shift(&x, &int_ty(), 1).unwrap();
        let err = mem
            .store(&int_ty(), &one_past, &MemValue::int(IntegerType::Int, 11))
            .unwrap_err();
        assert_eq!(err.ub, UbKind::OutOfBoundsAccess);
    }

    #[test]
    fn concrete_model_lets_the_oob_store_hit_the_neighbour() {
        let mut mem = new_state(ModelConfig::concrete());
        let x = mem.create(&int_ty(), AllocKind::Static, Some("x")).unwrap();
        let y = mem.create(&int_ty(), AllocKind::Static, Some("y")).unwrap();
        mem.store(&int_ty(), &y, &MemValue::int(IntegerType::Int, 2))
            .unwrap();
        let one_past = mem.array_shift(&x, &int_ty(), 1).unwrap();
        assert_eq!(one_past.addr, y.addr);
        mem.store(&int_ty(), &one_past, &MemValue::int(IntegerType::Int, 11))
            .unwrap();
        assert_eq!(mem.load(&int_ty(), &y).unwrap().as_int(), Some(11));
    }

    #[test]
    fn gcc_like_redirects_the_oob_store_to_a_shadow() {
        let mut mem = new_state(ModelConfig::gcc_like());
        let x = mem.create(&int_ty(), AllocKind::Static, Some("x")).unwrap();
        let y = mem.create(&int_ty(), AllocKind::Static, Some("y")).unwrap();
        mem.store(&int_ty(), &y, &MemValue::int(IntegerType::Int, 2))
            .unwrap();
        let one_past = mem.array_shift(&x, &int_ty(), 1).unwrap();
        mem.store(&int_ty(), &one_past, &MemValue::int(IntegerType::Int, 11))
            .unwrap();
        // y keeps its old value (the compiler assumed no aliasing) …
        assert_eq!(mem.load(&int_ty(), &y).unwrap().as_int(), Some(2));
        // … while a load through p sees the stored value.
        assert_eq!(mem.load(&int_ty(), &one_past).unwrap().as_int(), Some(11));
    }

    #[test]
    fn pointer_equality_may_use_provenance() {
        let mut plain = new_state(ModelConfig::de_facto());
        let x = plain
            .create(&int_ty(), AllocKind::Static, Some("x"))
            .unwrap();
        let y = plain
            .create(&int_ty(), AllocKind::Static, Some("y"))
            .unwrap();
        let one_past = plain.array_shift(&x, &int_ty(), 1).unwrap();
        assert!(plain.ptr_eq(&one_past, &y).unwrap());

        let mut gcc = new_state(ModelConfig::gcc_like());
        let x = gcc.create(&int_ty(), AllocKind::Static, Some("x")).unwrap();
        let y = gcc.create(&int_ty(), AllocKind::Static, Some("y")).unwrap();
        let one_past = gcc.array_shift(&x, &int_ty(), 1).unwrap();
        assert!(!gcc.ptr_eq(&one_past, &y).unwrap());
    }

    #[test]
    fn relational_comparison_across_objects_follows_config() {
        let mut df = new_state(ModelConfig::de_facto());
        let a = df.create(&int_ty(), AllocKind::Static, None).unwrap();
        let b = df.create(&int_ty(), AllocKind::Static, None).unwrap();
        assert_eq!(df.ptr_rel(&a, &b).unwrap(), std::cmp::Ordering::Less);

        let mut iso = new_state(ModelConfig::strict_iso());
        let a = iso.create(&int_ty(), AllocKind::Static, None).unwrap();
        let b = iso.create(&int_ty(), AllocKind::Static, None).unwrap();
        assert_eq!(
            iso.ptr_rel(&a, &b).unwrap_err().ub,
            UbKind::RelationalCompareDifferentObjects
        );
    }

    #[test]
    fn oob_pointer_construction_follows_config() {
        let mut df = new_state(ModelConfig::de_facto());
        let a = df
            .create(&Ctype::array(int_ty(), 4), AllocKind::Automatic, None)
            .unwrap();
        // Transiently out of bounds (Q31): allowed under the de facto model …
        assert!(df.array_shift(&a, &int_ty(), 10).is_ok());
        // … but dereferencing there is undefined behaviour.
        let oob = df.array_shift(&a, &int_ty(), 10).unwrap();
        assert!(df.load(&int_ty(), &oob).is_err());

        let mut iso = new_state(ModelConfig::strict_iso());
        let a = iso
            .create(&Ctype::array(int_ty(), 4), AllocKind::Automatic, None)
            .unwrap();
        assert_eq!(
            iso.array_shift(&a, &int_ty(), 10).unwrap_err().ub,
            UbKind::OutOfBoundsPointerArithmetic
        );
        // One-past is always permitted.
        assert!(iso.array_shift(&a, &int_ty(), 4).is_ok());
    }

    #[test]
    fn int_ptr_round_trips_preserve_provenance_when_tracked() {
        let mut mem = new_state(ModelConfig::de_facto());
        let p = mem.create(&int_ty(), AllocKind::Automatic, None).unwrap();
        mem.store(&int_ty(), &p, &MemValue::int(IntegerType::Int, 5))
            .unwrap();
        let i = mem.int_from_ptr(&p);
        assert_eq!(i.prov, p.prov);
        let q = mem.ptr_from_int(&i);
        assert_eq!(mem.load(&int_ty(), &q).unwrap().as_int(), Some(5));

        // Under the block model the round trip loses the ability to access.
        let mut blk = new_state(ModelConfig::block());
        let p = blk.create(&int_ty(), AllocKind::Automatic, None).unwrap();
        blk.store(&int_ty(), &p, &MemValue::int(IntegerType::Int, 5))
            .unwrap();
        let i = blk.int_from_ptr(&p);
        let q = blk.ptr_from_int(&i);
        assert_eq!(
            blk.load(&int_ty(), &q).unwrap_err().ub,
            UbKind::AccessWithoutProvenance
        );
    }

    #[test]
    fn bytewise_pointer_copies_keep_their_provenance() {
        // Q13: copying a pointer via its representation bytes must yield a
        // usable pointer under the candidate model.
        let mut mem = new_state(ModelConfig::de_facto());
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
    fn lifetime_end_makes_accesses_ub() {
        let mut mem = new_state(ModelConfig::de_facto());
        let p = mem.create(&int_ty(), AllocKind::Automatic, None).unwrap();
        mem.kill(&p, false).unwrap();
        assert_eq!(
            mem.load(&int_ty(), &p).unwrap_err().ub,
            UbKind::AccessOutsideLifetime
        );
    }

    #[test]
    fn free_errors() {
        let mut mem = new_state(ModelConfig::de_facto());
        let p = mem.alloc(16, 16).unwrap();
        mem.kill(&p, true).unwrap();
        assert_eq!(mem.kill(&p, true).unwrap_err().ub, UbKind::InvalidFree);
        let q = mem.create(&int_ty(), AllocKind::Automatic, None).unwrap();
        assert_eq!(mem.kill(&q, true).unwrap_err().ub, UbKind::InvalidFree);
        // free(NULL) is fine.
        mem.kill(&PointerValue::null(), true).unwrap();
    }

    #[test]
    fn string_literals_are_read_only() {
        let mut mem = new_state(ModelConfig::de_facto());
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
    fn struct_store_respects_padding_config() {
        let mut tags = TagRegistry::new();
        let tag = tags.define(
            TagKind::Struct,
            &Ident::new("s"),
            vec![
                Member {
                    name: Ident::new("c"),
                    ty: Ctype::integer(IntegerType::Char),
                },
                Member {
                    name: Ident::new("i"),
                    ty: int_ty(),
                },
            ],
        );
        let sty = Ctype::Struct(tag);
        let value = MemValue::Struct(
            tag,
            vec![
                (Ident::new("c"), MemValue::int(IntegerType::Char, 1)),
                (Ident::new("i"), MemValue::int(IntegerType::Int, 2)),
            ],
        );

        // Clobbering configuration: padding bytes become unspecified.
        let mut cfg = ModelConfig::de_facto();
        cfg.padding = PaddingSemantics::MemberStoreClobbers;
        let mut mem = MemState::new(cfg, ImplEnv::lp64(), tags);
        let p = mem.create(&sty, AllocKind::Automatic, None).unwrap();
        mem.set_bytes(&p, 0xAA, 8).unwrap();
        mem.store(&sty, &p, &value).unwrap();
        let char_ty = Ctype::integer(IntegerType::Char);
        let pad = mem.array_shift(&p, &char_ty, 1).unwrap();
        assert!(mem.load(&char_ty, &pad).unwrap().is_unspecified());
    }

    #[test]
    fn effective_types_reject_mismatched_access_when_enforced() {
        let mut iso = new_state(ModelConfig::strict_iso());
        let p = iso.create(&int_ty(), AllocKind::Automatic, None).unwrap();
        iso.store(&int_ty(), &p, &MemValue::int(IntegerType::Int, 1))
            .unwrap();
        // Access at an incompatible non-character type: UB under strict ISO.
        let short_ty = Ctype::integer(IntegerType::Short);
        assert_eq!(
            iso.load(&short_ty, &p).unwrap_err().ub,
            UbKind::EffectiveTypeViolation
        );
        // Character-typed access is always permitted.
        let char_ty = Ctype::integer(IntegerType::UChar);
        assert!(iso.load(&char_ty, &p).is_ok());
        // Unsigned variant of the same width is permitted.
        let uint_ty = Ctype::integer(IntegerType::UInt);
        assert!(iso.load(&uint_ty, &p).is_ok());
    }

    #[test]
    fn char_array_reuse_is_allowed_when_effective_types_are_off() {
        // Q75: using a char array to hold other types — permitted by the
        // candidate de facto model, rejected by a strict ISO reading (where
        // the declared type governs).
        let char_arr = Ctype::array(Ctype::integer(IntegerType::UChar), 8);
        let mut df = new_state(ModelConfig::de_facto());
        let p = df.create(&char_arr, AllocKind::Automatic, None).unwrap();
        df.store(&int_ty(), &p, &MemValue::int(IntegerType::Int, 3))
            .unwrap();
        assert_eq!(df.load(&int_ty(), &p).unwrap().as_int(), Some(3));

        let mut iso = new_state(ModelConfig::strict_iso());
        let p = iso.create(&char_arr, AllocKind::Automatic, None).unwrap();
        assert_eq!(
            iso.store(&int_ty(), &p, &MemValue::int(IntegerType::Int, 3))
                .unwrap_err()
                .ub,
            UbKind::EffectiveTypeViolation
        );
    }

    #[test]
    fn cheri_capability_bounds_are_enforced() {
        let mut mem = new_state(ModelConfig::cheri());
        let arr = Ctype::array(int_ty(), 2);
        let p = mem.create(&arr, AllocKind::Automatic, None).unwrap();
        let last = mem.array_shift(&p, &int_ty(), 1).unwrap();
        mem.store(&int_ty(), &last, &MemValue::int(IntegerType::Int, 4))
            .unwrap();
        assert_eq!(mem.load(&int_ty(), &last).unwrap().as_int(), Some(4));
        let oob = mem.array_shift(&p, &int_ty(), 5).unwrap();
        assert_eq!(
            mem.load(&int_ty(), &oob).unwrap_err().ub,
            UbKind::OutOfBoundsAccess
        );
    }

    fn concrete_presets() -> impl Iterator<Item = ModelConfig> {
        ModelConfig::all_named()
            .into_iter()
            .filter(|c| c.engine == crate::config::EngineKind::Concrete)
    }

    #[test]
    fn accesses_within_the_provenance_bounds_never_consult_cheri() {
        let arr = Ctype::array(int_ty(), 2);
        let pty = Ctype::pointer(int_ty());
        for config in concrete_presets() {
            let name = config.name;
            let mut mem = new_state(config);
            let p = mem.create(&arr, AllocKind::Automatic, Some("a")).unwrap();
            let last = mem.array_shift(&p, &int_ty(), 1).unwrap();
            let one_past = mem.array_shift(&p, &int_ty(), 2).unwrap();
            assert_eq!(mem.array_shift(&one_past, &int_ty(), -2).unwrap(), p);
            mem.store(&int_ty(), &last, &MemValue::int(IntegerType::Int, 3))
                .unwrap();
            assert_eq!(mem.load(&int_ty(), &last).unwrap().as_int(), Some(3));
            let slot = mem.create(&pty, AllocKind::Automatic, Some("q")).unwrap();
            mem.store(&pty, &slot, &MemValue::Pointer(int_ty(), last.clone()))
                .unwrap();
            let loaded = mem.load(&pty, &slot).unwrap();
            assert_eq!(loaded.as_pointer(), Some(&last));
            let round_trip = mem.ptr_from_int(&mem.int_from_ptr(&last));
            assert_eq!(round_trip.addr, last.addr);
            let consulted = mem.consulted();
            assert!(
                !consulted.contains(FieldSet::CHERI),
                "{name}: {consulted:?}"
            );
        }
    }

    #[test]
    fn a_load_past_the_end_consults_cheri_under_every_preset() {
        let arr = Ctype::array(int_ty(), 2);
        for config in concrete_presets() {
            let name = config.name;
            let mut mem = new_state(config);
            let p = mem.create(&arr, AllocKind::Automatic, None).unwrap();
            let one_past = mem.array_shift(&p, &int_ty(), 2).unwrap();
            assert!(mem.load(&int_ty(), &one_past).is_err(), "{name}");
            let consulted = mem.consulted();
            assert!(consulted.contains(FieldSet::CHERI), "{name}: {consulted:?}");
        }
    }

    #[test]
    fn cheri_rejects_an_access_without_provenance() {
        let mut mem = new_state(ModelConfig::cheri());
        let p = mem.create(&int_ty(), AllocKind::Automatic, None).unwrap();
        mem.store(&int_ty(), &p, &MemValue::int(IntegerType::Int, 1))
            .unwrap();
        let bare = PointerValue::object(Provenance::Empty, p.addr);
        assert_eq!(
            mem.load(&int_ty(), &bare).unwrap_err().ub,
            UbKind::AccessWithoutProvenance
        );
        assert!(mem.consulted().contains(FieldSet::CHERI));
    }

    #[test]
    fn a_range_that_wraps_the_address_space_is_out_of_bounds() {
        let mut mem = new_state(ModelConfig::de_facto());
        let arr = Ctype::array(Ctype::integer(IntegerType::Char), 4);
        let p = mem.create(&arr, AllocKind::Automatic, None).unwrap();
        let alloc = mem.allocation(0).unwrap();
        assert!(alloc.contains_range(p.addr, 4));
        assert!(!alloc.contains_range(p.addr, u64::MAX));
        assert!(!alloc.contains_range(u64::MAX - 3, 8));
        assert_eq!(
            mem.set_bytes(&p, 0, u64::MAX).unwrap_err().ub,
            UbKind::OutOfBoundsAccess
        );
    }

    #[test]
    fn null_dereference_is_detected() {
        let mut mem = new_state(ModelConfig::de_facto());
        let err = mem.load(&int_ty(), &PointerValue::null()).unwrap_err();
        assert_eq!(err.ub, UbKind::NullPointerDeref);
    }

    #[test]
    fn memcmp_and_memset_work() {
        let mut mem = new_state(ModelConfig::de_facto());
        let arr = Ctype::array(Ctype::integer(IntegerType::Char), 4);
        let a = mem.create(&arr, AllocKind::Automatic, None).unwrap();
        let b = mem.create(&arr, AllocKind::Automatic, None).unwrap();
        mem.set_bytes(&a, 7, 4).unwrap();
        mem.set_bytes(&b, 7, 4).unwrap();
        assert_eq!(mem.compare_bytes(&a, &b, 4).unwrap(), 0);
        mem.set_bytes(&b, 9, 4).unwrap();
        assert_eq!(mem.compare_bytes(&a, &b, 4).unwrap(), -1);
    }

    #[test]
    fn function_pointers_round_trip_through_memory() {
        let mut mem = new_state(ModelConfig::de_facto());
        let f = mem.register_function(&Ident::new("callback"));
        let fn_ptr_ty = Ctype::pointer(Ctype::Function(Box::new(int_ty()), vec![], false));
        let slot = mem.create(&fn_ptr_ty, AllocKind::Automatic, None).unwrap();
        mem.store(
            &fn_ptr_ty,
            &slot,
            &MemValue::Pointer(Ctype::Void, f.clone()),
        )
        .unwrap();
        let loaded = mem.load(&fn_ptr_ty, &slot).unwrap();
        assert_eq!(
            loaded.as_pointer().unwrap().function,
            Some(Ident::new("callback"))
        );
    }

    #[test]
    fn ptr_diff_within_and_across_objects() {
        let mut mem = new_state(ModelConfig::de_facto());
        let arr = Ctype::array(int_ty(), 8);
        let a = mem.create(&arr, AllocKind::Automatic, None).unwrap();
        let a3 = mem.array_shift(&a, &int_ty(), 3).unwrap();
        assert_eq!(mem.ptr_diff(&a3, &a, 4).unwrap().value, 3);
        let other = mem.create(&arr, AllocKind::Automatic, None).unwrap();
        assert_eq!(
            mem.ptr_diff(&other, &a, 4).unwrap_err().ub,
            UbKind::PointerSubtractionDifferentObjects
        );
    }
}
