//! The C type grammar used throughout the pipeline.
//!
//! This is the "canonical form" of C types that the Cabs-to-Ail desugaring
//! normalises declarators into (§5.1 of the paper): a first-class tree of
//! [`Ctype`] values, with struct/union types referred to by [`TagId`] into a
//! separate [`crate::layout::TagRegistry`] so recursive types are representable
//! without reference cycles.

use std::fmt;

use crate::ident::Ident;

/// Identifier of a struct or union definition in a [`crate::layout::TagRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagId(pub u32);

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// The standard integer types (ISO C11 6.2.5), including `_Bool` and the
/// enumerated-type placeholder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IntegerType {
    /// `_Bool`.
    Bool,
    /// Plain `char` (signedness is implementation-defined; see
    /// [`crate::env::ImplEnv::char_is_signed`]).
    Char,
    /// `signed char`.
    SChar,
    /// `unsigned char`.
    UChar,
    /// `short` / `signed short`.
    Short,
    /// `unsigned short`.
    UShort,
    /// `int` / `signed int`.
    Int,
    /// `unsigned int`.
    UInt,
    /// `long` / `signed long`.
    Long,
    /// `unsigned long`.
    ULong,
    /// `long long` / `signed long long`.
    LongLong,
    /// `unsigned long long`.
    ULongLong,
    /// An enumerated type; its compatible implementation-defined integer type
    /// is `int` in this implementation (a common choice).
    Enum,
    /// `size_t` (an unsigned type whose width is implementation-defined).
    SizeT,
    /// `ptrdiff_t` (a signed type whose width is implementation-defined).
    PtrdiffT,
    /// `intptr_t`.
    IntptrT,
    /// `uintptr_t`.
    UintptrT,
}

impl IntegerType {
    /// Whether values of the type are signed, given the implementation's
    /// choice for plain `char`.
    pub fn is_signed(self, char_is_signed: bool) -> bool {
        use IntegerType::*;
        match self {
            Bool | UChar | UShort | UInt | ULong | ULongLong | SizeT | UintptrT => false,
            SChar | Short | Int | Long | LongLong | Enum | PtrdiffT | IntptrT => true,
            Char => char_is_signed,
        }
    }

    /// The conversion rank of the type (ISO C11 6.3.1.1p1). Larger is higher.
    pub fn rank(self) -> u8 {
        use IntegerType::*;
        match self {
            Bool => 0,
            Char | SChar | UChar => 1,
            Short | UShort => 2,
            Int | UInt | Enum => 3,
            Long | ULong | SizeT | PtrdiffT | IntptrT | UintptrT => 4,
            LongLong | ULongLong => 5,
        }
    }

    /// The unsigned integer type with the same rank, used by the usual
    /// arithmetic conversions.
    pub fn to_unsigned(self) -> IntegerType {
        use IntegerType::*;
        match self {
            Bool => Bool,
            Char | SChar | UChar => UChar,
            Short | UShort => UShort,
            Int | UInt | Enum => UInt,
            Long | ULong => ULong,
            LongLong | ULongLong => ULongLong,
            SizeT => SizeT,
            PtrdiffT | IntptrT => UintptrT,
            UintptrT => UintptrT,
        }
    }

    /// All integer types, useful for exhaustive property tests.
    pub fn all() -> &'static [IntegerType] {
        use IntegerType::*;
        &[
            Bool, Char, SChar, UChar, Short, UShort, Int, UInt, Long, ULong, LongLong, ULongLong,
            Enum, SizeT, PtrdiffT, IntptrT, UintptrT,
        ]
    }
}

impl fmt::Display for IntegerType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use IntegerType::*;
        let s = match self {
            Bool => "_Bool",
            Char => "char",
            SChar => "signed char",
            UChar => "unsigned char",
            Short => "short",
            UShort => "unsigned short",
            Int => "int",
            UInt => "unsigned int",
            Long => "long",
            ULong => "unsigned long",
            LongLong => "long long",
            ULongLong => "unsigned long long",
            Enum => "enum",
            SizeT => "size_t",
            PtrdiffT => "ptrdiff_t",
            IntptrT => "intptr_t",
            UintptrT => "uintptr_t",
        };
        f.write_str(s)
    }
}

/// Type qualifiers (we track `const` only; `volatile` and `restrict` are
/// outside the supported fragment, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Qualifiers {
    /// `const`-qualification.
    pub constant: bool,
}

impl Qualifiers {
    /// No qualifiers.
    pub const fn none() -> Self {
        Qualifiers { constant: false }
    }

    /// `const` qualification.
    pub const fn const_() -> Self {
        Qualifiers { constant: true }
    }

    /// Union of two qualifier sets.
    pub fn merge(self, other: Qualifiers) -> Qualifiers {
        Qualifiers {
            constant: self.constant || other.constant,
        }
    }
}

/// A canonical C type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ctype {
    /// `void`.
    Void,
    /// An integer type.
    Integer(IntegerType),
    /// A floating type. Only `double` constants are parsed; no floating
    /// arithmetic is supported (as in the paper's stated scope).
    Floating,
    /// A pointer to a (possibly qualified) referenced type.
    Pointer(Qualifiers, Box<Ctype>),
    /// An array of a known element count (we do not support VLAs).
    Array(Box<Ctype>, Option<u64>),
    /// A function type: return type and parameter types, with a flag for
    /// variadic prototypes (only used for builtin `printf`).
    Function(Box<Ctype>, Vec<Ctype>, bool),
    /// A struct type, by tag.
    Struct(TagId),
    /// A union type, by tag.
    Union(TagId),
}

impl Ctype {
    /// Convenience constructor for an integer type.
    pub fn integer(it: IntegerType) -> Self {
        Ctype::Integer(it)
    }

    /// Convenience constructor for an unqualified pointer type.
    pub fn pointer(to: Ctype) -> Self {
        Ctype::Pointer(Qualifiers::none(), Box::new(to))
    }

    /// Convenience constructor for an array type.
    pub fn array(elem: Ctype, n: u64) -> Self {
        Ctype::Array(Box::new(elem), Some(n))
    }

    /// Whether the type is an integer type (6.2.5p17).
    pub fn is_integer(&self) -> bool {
        matches!(self, Ctype::Integer(_))
    }

    /// Whether the type is an arithmetic type (6.2.5p18); floats are included
    /// for classification even though arithmetic on them is unsupported.
    pub fn is_arithmetic(&self) -> bool {
        matches!(self, Ctype::Integer(_) | Ctype::Floating)
    }

    /// Whether the type is a scalar type (6.2.5p21).
    pub fn is_scalar(&self) -> bool {
        self.is_arithmetic() || matches!(self, Ctype::Pointer(..))
    }

    /// Whether the type is a pointer type.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Ctype::Pointer(..))
    }

    /// Whether the type is a (possibly qualified) character type (6.2.5p15),
    /// relevant for the effective-type rules.
    pub fn is_character(&self) -> bool {
        matches!(
            self,
            Ctype::Integer(IntegerType::Char)
                | Ctype::Integer(IntegerType::SChar)
                | Ctype::Integer(IntegerType::UChar)
        )
    }

    /// The integer type inside the `Ctype`, if any.
    pub fn as_integer(&self) -> Option<IntegerType> {
        match self {
            Ctype::Integer(it) => Some(*it),
            _ => None,
        }
    }

    /// The pointee of a pointer type.
    pub fn pointee(&self) -> Option<&Ctype> {
        match self {
            Ctype::Pointer(_, to) => Some(to),
            _ => None,
        }
    }

    /// Perform array-to-pointer and function-to-pointer decay (6.3.2.1).
    pub fn decay(&self) -> Ctype {
        match self {
            Ctype::Array(elem, _) => Ctype::pointer((**elem).clone()),
            Ctype::Function(..) => Ctype::pointer(self.clone()),
            other => other.clone(),
        }
    }

    /// Whether two types are *compatible* in the (simplified) sense of 6.2.7:
    /// identical canonical structure, ignoring top-level qualifiers on
    /// pointees only when both sides carry them equally.
    pub fn compatible(&self, other: &Ctype) -> bool {
        self == other
    }
}

impl fmt::Display for Ctype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ctype::Void => f.write_str("void"),
            Ctype::Integer(it) => write!(f, "{it}"),
            Ctype::Floating => f.write_str("double"),
            Ctype::Pointer(q, to) => {
                if q.constant {
                    write!(f, "{to} *const")
                } else {
                    write!(f, "{to}*")
                }
            }
            Ctype::Array(elem, Some(n)) => write!(f, "{elem}[{n}]"),
            Ctype::Array(elem, None) => write!(f, "{elem}[]"),
            Ctype::Function(ret, params, variadic) => {
                write!(f, "{ret}(")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{p}")?;
                }
                if *variadic {
                    if !params.is_empty() {
                        f.write_str(", ")?;
                    }
                    f.write_str("...")?;
                }
                f.write_str(")")
            }
            Ctype::Struct(tag) => write!(f, "struct {tag}"),
            Ctype::Union(tag) => write!(f, "union {tag}"),
        }
    }
}

/// A struct or union member: name and type (no bitfields, per the supported
/// fragment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// Member name.
    pub name: Ident,
    /// Member type.
    pub ty: Ctype,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_ordered() {
        assert!(IntegerType::Bool.rank() < IntegerType::Char.rank());
        assert!(IntegerType::Char.rank() < IntegerType::Short.rank());
        assert!(IntegerType::Short.rank() < IntegerType::Int.rank());
        assert!(IntegerType::Int.rank() < IntegerType::Long.rank());
        assert!(IntegerType::Long.rank() < IntegerType::LongLong.rank());
    }

    #[test]
    fn signedness_depends_on_char_choice() {
        assert!(IntegerType::Char.is_signed(true));
        assert!(!IntegerType::Char.is_signed(false));
        assert!(IntegerType::Int.is_signed(false));
        assert!(!IntegerType::UInt.is_signed(true));
    }

    #[test]
    fn array_decays_to_pointer() {
        let arr = Ctype::array(Ctype::integer(IntegerType::Int), 4);
        assert_eq!(
            arr.decay(),
            Ctype::pointer(Ctype::integer(IntegerType::Int))
        );
    }

    #[test]
    fn function_decays_to_function_pointer() {
        let fun = Ctype::Function(Box::new(Ctype::Void), vec![], false);
        assert!(
            matches!(fun.decay(), Ctype::Pointer(_, inner) if matches!(*inner, Ctype::Function(..)))
        );
    }

    #[test]
    fn character_types_are_recognised() {
        assert!(Ctype::integer(IntegerType::Char).is_character());
        assert!(Ctype::integer(IntegerType::UChar).is_character());
        assert!(!Ctype::integer(IntegerType::Int).is_character());
    }

    #[test]
    fn scalar_classification() {
        assert!(Ctype::integer(IntegerType::Int).is_scalar());
        assert!(Ctype::pointer(Ctype::Void).is_scalar());
        assert!(!Ctype::Struct(TagId(0)).is_scalar());
        assert!(!Ctype::Void.is_scalar());
    }

    #[test]
    fn display_is_readable() {
        let t = Ctype::pointer(Ctype::integer(IntegerType::UInt));
        assert_eq!(t.to_string(), "unsigned int*");
        let a = Ctype::array(Ctype::integer(IntegerType::Char), 3);
        assert_eq!(a.to_string(), "char[3]");
    }

    #[test]
    fn to_unsigned_keeps_rank() {
        for &it in IntegerType::all() {
            assert_eq!(it.rank(), it.to_unsigned().rank(), "{it}");
            assert!(!it.to_unsigned().is_signed(true) || it.to_unsigned() == IntegerType::Bool);
        }
    }
}
