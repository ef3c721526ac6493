//! Value representations of the memory object models (§5.9).
//!
//! "Pointer values and integer values all contain a provenance, either empty
//! (for the NULL pointer and pure integer values), the original allocation ID
//! of the object the value was derived from, or a wildcard (for pointers from
//! IO)." Memory values are "either unspecified, an integer value of a given
//! integer type, a pointer, or an array, union, or struct of memory values."

use std::fmt;

use cerberus_ast::ctype::{Ctype, IntegerType, TagId};
use cerberus_ast::ident::Ident;

/// Identifier of an allocation (the "original allocation ID" of DR260).
pub type AllocId = u64;

/// The provenance component of pointer and integer values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Provenance {
    /// No provenance: the null pointer and pure integers.
    #[default]
    Empty,
    /// Derived from a single allocation.
    Alloc(AllocId),
    /// Unknown origin (pointers read from IO, or integer-to-pointer casts
    /// under the wildcard semantics).
    Wildcard,
}

impl Provenance {
    /// Combine the provenances of two operands of an arithmetic operation:
    /// "most arithmetic involving one provenanced value and one pure value
    /// preserves the provenance", while "arithmetic involving two values with
    /// distinct provenance … produces a pure integer" (§5.9).
    pub fn combine(self, other: Provenance) -> Provenance {
        use Provenance::*;
        match (self, other) {
            (Empty, p) | (p, Empty) => p,
            (Alloc(a), Alloc(b)) if a == b => Alloc(a),
            (Wildcard, Wildcard) => Wildcard,
            (Wildcard, Alloc(a)) | (Alloc(a), Wildcard) => Alloc(a),
            _ => Empty,
        }
    }

    /// Whether this provenance identifies a single allocation.
    pub fn alloc_id(self) -> Option<AllocId> {
        match self {
            Provenance::Alloc(id) => Some(id),
            _ => None,
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Provenance::Empty => write!(f, "@empty"),
            Provenance::Alloc(id) => write!(f, "@{id}"),
            Provenance::Wildcard => write!(f, "@wild"),
        }
    }
}

/// An integer value: a mathematical value plus provenance ("our formal model
/// associates provenances with all integer values", Q5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntegerValue {
    /// The numeric value (wide enough for every supported C integer type).
    pub value: i128,
    /// The provenance carried through casts and arithmetic.
    pub prov: Provenance,
}

impl IntegerValue {
    /// A pure integer with empty provenance.
    pub fn pure(value: i128) -> Self {
        IntegerValue {
            value,
            prov: Provenance::Empty,
        }
    }

    /// An integer carrying the given provenance.
    pub fn with_prov(value: i128, prov: Provenance) -> Self {
        IntegerValue { value, prov }
    }
}

impl fmt::Display for IntegerValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.prov {
            Provenance::Empty => write!(f, "{}", self.value),
            p => write!(f, "{}{p}", self.value),
        }
    }
}

/// A pointer value: provenance and concrete address. "Abstract pointer values
/// must also … contain concrete addresses" because real C exposes them
/// (§2.1).
///
/// A pointer stores no CHERI capability (§4). Every capability the engine
/// would build is the bounds of the allocation the provenance names, and no
/// engine operation clears a tag, so the access check derives the capability
/// from the provenance when it looks that allocation up.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PointerValue {
    /// The provenance (empty for null).
    pub prov: Provenance,
    /// The concrete address; 0 is the null pointer representation (the common
    /// de facto assumption, Q37).
    pub addr: u64,
    /// If this pointer designates a C function rather than an object, its
    /// name (function pointers have no meaningful address arithmetic).
    pub function: Option<Ident>,
}

impl PointerValue {
    /// The null pointer.
    pub fn null() -> Self {
        PointerValue {
            prov: Provenance::Empty,
            addr: 0,
            function: None,
        }
    }

    /// An object pointer with the given provenance and address.
    pub fn object(prov: Provenance, addr: u64) -> Self {
        PointerValue {
            prov,
            addr,
            function: None,
        }
    }

    /// A function designator value.
    pub fn function(name: Ident) -> Self {
        PointerValue {
            prov: Provenance::Empty,
            addr: 0,
            function: Some(name),
        }
    }

    /// Whether this is the null pointer.
    pub fn is_null(&self) -> bool {
        self.addr == 0 && self.function.is_none()
    }

    /// A copy with a different address and the same provenance (pointer
    /// arithmetic).
    pub fn with_addr(&self, addr: u64) -> Self {
        PointerValue {
            addr,
            ..self.clone()
        }
    }
}

impl fmt::Display for PointerValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(name) = &self.function {
            return write!(f, "&{name}");
        }
        if self.is_null() {
            return write!(f, "NULL");
        }
        write!(f, "0x{:x}{}", self.addr, self.prov)
    }
}

/// A structured memory value: what loads return and stores consume.
#[derive(Debug, Clone, PartialEq)]
pub enum MemValue {
    /// An unspecified value of the recorded C type (§2.4).
    Unspecified(Ctype),
    /// An integer value of a given C integer type.
    Integer(IntegerType, IntegerValue),
    /// A pointer value with the referenced C type.
    Pointer(Ctype, PointerValue),
    /// An array of member values.
    Array(Vec<MemValue>),
    /// A struct value: tag and member values in declaration order.
    Struct(TagId, Vec<(Ident, MemValue)>),
    /// A union value: tag, the active member, and its value.
    Union(TagId, Ident, Box<MemValue>),
}

impl MemValue {
    /// A pure integer memory value.
    pub fn int(ty: IntegerType, value: i128) -> Self {
        MemValue::Integer(ty, IntegerValue::pure(value))
    }

    /// The numeric value, if this is a (specified) integer.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            MemValue::Integer(_, iv) => Some(iv.value),
            _ => None,
        }
    }

    /// The pointer value, if this is a pointer.
    pub fn as_pointer(&self) -> Option<&PointerValue> {
        match self {
            MemValue::Pointer(_, pv) => Some(pv),
            _ => None,
        }
    }

    /// Whether the value is (or contains only) unspecified contents.
    pub fn is_unspecified(&self) -> bool {
        match self {
            MemValue::Unspecified(_) => true,
            MemValue::Array(items) => items.iter().all(MemValue::is_unspecified),
            MemValue::Struct(_, members) => members.iter().all(|(_, v)| v.is_unspecified()),
            MemValue::Union(_, _, v) => v.is_unspecified(),
            _ => false,
        }
    }
}

impl fmt::Display for MemValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemValue::Unspecified(ty) => write!(f, "unspec({ty})"),
            MemValue::Integer(ty, iv) => write!(f, "({ty}){iv}"),
            MemValue::Pointer(ty, pv) => write!(f, "({ty}*){pv}"),
            MemValue::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            MemValue::Struct(tag, members) => {
                write!(f, "(struct {tag}){{")?;
                for (i, (name, value)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, ".{name}={value}")?;
                }
                write!(f, "}}")
            }
            MemValue::Union(tag, member, value) => {
                write!(f, "(union {tag}){{.{member}={value}}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_combination_follows_the_model() {
        use Provenance::*;
        assert_eq!(Empty.combine(Alloc(3)), Alloc(3));
        assert_eq!(Alloc(3).combine(Empty), Alloc(3));
        assert_eq!(Alloc(3).combine(Alloc(3)), Alloc(3));
        // Two distinct provenances produce a pure integer (prevents the
        // inter-object per-CPU-variable idiom without annotation, Q9).
        assert_eq!(Alloc(3).combine(Alloc(4)), Empty);
        assert_eq!(Wildcard.combine(Alloc(4)), Alloc(4));
        assert_eq!(Empty.combine(Empty), Empty);
    }

    #[test]
    fn null_pointer_properties() {
        let p = PointerValue::null();
        assert!(p.is_null());
        assert_eq!(p.to_string(), "NULL");
        assert!(!PointerValue::object(Provenance::Alloc(1), 0x1000).is_null());
    }

    #[test]
    fn function_pointers_display() {
        let p = PointerValue::function(Ident::new("main"));
        assert!(!p.is_null());
        assert_eq!(p.to_string(), "&main");
    }

    #[test]
    fn memvalue_accessors() {
        let v = MemValue::int(IntegerType::Int, 7);
        assert_eq!(v.as_int(), Some(7));
        assert!(v.as_pointer().is_none());
        assert!(!v.is_unspecified());
        assert!(MemValue::Unspecified(Ctype::integer(IntegerType::Int)).is_unspecified());
    }

    #[test]
    fn unspecified_aggregates() {
        let u = MemValue::Unspecified(Ctype::integer(IntegerType::Int));
        let arr = MemValue::Array(vec![u.clone(), u.clone()]);
        assert!(arr.is_unspecified());
        let mixed = MemValue::Array(vec![u, MemValue::int(IntegerType::Int, 1)]);
        assert!(!mixed.is_unspecified());
    }

    #[test]
    fn integer_value_display_includes_provenance() {
        assert_eq!(IntegerValue::pure(5).to_string(), "5");
        assert_eq!(
            IntegerValue::with_prov(5, Provenance::Alloc(2)).to_string(),
            "5@2"
        );
    }
}
