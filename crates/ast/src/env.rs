//! Implementation-defined environments.
//!
//! The ISO standard leaves many properties to the implementation: the widths
//! and alignments of the integer types, the signedness of plain `char`, the
//! representation of null pointers, and so on. Cerberus resolves these through
//! an explicit environment so that the same semantics can be instantiated for
//! different ABIs (the paper's elaboration consults "implementation-defined
//! constants"; this type plays that role).

use crate::ctype::{Ctype, IntegerType};

/// An implementation-defined environment: the sizes, alignments and signedness
/// choices the semantics needs to evaluate programs. Object representations
/// are little-endian in every environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplEnv {
    /// Human-readable name (e.g. `"lp64"`).
    pub name: &'static str,
    /// Whether plain `char` behaves as a signed type.
    pub char_is_signed: bool,
    /// `sizeof(short)` in bytes.
    pub short_size: u64,
    /// `sizeof(int)` in bytes.
    pub int_size: u64,
    /// `sizeof(long)` in bytes.
    pub long_size: u64,
    /// `sizeof(long long)` in bytes.
    pub long_long_size: u64,
    /// `sizeof(void *)` in bytes.
    pub pointer_size: u64,
    /// Maximum alignment used for `malloc`-style allocations.
    pub max_align: u64,
}

impl ImplEnv {
    /// The mainstream LP64 environment (Linux/BSD on x86-64 and AArch64): the
    /// environment the paper's de facto discussion targets.
    pub const fn lp64() -> Self {
        ImplEnv {
            name: "lp64",
            char_is_signed: true,
            short_size: 2,
            int_size: 4,
            long_size: 8,
            long_long_size: 8,
            pointer_size: 8,
            max_align: 16,
        }
    }

    /// The ILP32 environment (32-bit x86): useful for exercising
    /// implementation-defined divergence in tests.
    pub const fn ilp32() -> Self {
        ImplEnv {
            name: "ilp32",
            char_is_signed: true,
            short_size: 2,
            int_size: 4,
            long_size: 4,
            long_long_size: 8,
            pointer_size: 4,
            max_align: 8,
        }
    }

    /// Size in bytes of an integer type.
    pub fn integer_size(&self, it: IntegerType) -> u64 {
        use IntegerType::*;
        match it {
            Bool | Char | SChar | UChar => 1,
            Short | UShort => self.short_size,
            Int | UInt | Enum => self.int_size,
            Long | ULong => self.long_size,
            LongLong | ULongLong => self.long_long_size,
            SizeT | PtrdiffT | IntptrT | UintptrT => self.pointer_size,
        }
    }

    /// Alignment in bytes of an integer type (natural alignment).
    pub fn integer_align(&self, it: IntegerType) -> u64 {
        self.integer_size(it)
    }

    /// Width in bits of an integer type.
    pub fn integer_width(&self, it: IntegerType) -> u32 {
        (self.integer_size(it) * 8) as u32
    }

    /// Whether an integer type is signed in this environment.
    pub fn is_signed(&self, it: IntegerType) -> bool {
        it.is_signed(self.char_is_signed)
    }

    /// Minimum representable value of an integer type (two's complement is
    /// assumed, as the paper observes mainstream hardware now guarantees).
    pub fn int_min(&self, it: IntegerType) -> i128 {
        if self.is_signed(it) {
            let w = self.integer_width(it);
            -(1i128 << (w - 1))
        } else {
            0
        }
    }

    /// Maximum representable value of an integer type.
    pub fn int_max(&self, it: IntegerType) -> i128 {
        if it == IntegerType::Bool {
            return 1;
        }
        let w = self.integer_width(it);
        if self.is_signed(it) {
            (1i128 << (w - 1)) - 1
        } else {
            (1i128 << w) - 1
        }
    }

    /// Whether `v` is representable in integer type `it`.
    pub fn representable(&self, v: i128, it: IntegerType) -> bool {
        v >= self.int_min(it) && v <= self.int_max(it)
    }

    /// Reduce `v` modulo one more than the maximum representable value of the
    /// unsigned type `it` (the conversion rule of 6.3.1.3p2).
    pub fn wrap_unsigned(&self, v: i128, it: IntegerType) -> i128 {
        let modulus = self.int_max(it) + 1;
        v.rem_euclid(modulus)
    }

    /// Convert `v` to integer type `it` following 6.3.1.3: identity when
    /// representable, modular reduction for unsigned targets, and the
    /// implementation-defined (here: two's-complement wrap) result for signed
    /// targets.
    pub fn convert_int(&self, v: i128, it: IntegerType) -> i128 {
        if it == IntegerType::Bool {
            return i128::from(v != 0);
        }
        if self.representable(v, it) {
            return v;
        }
        if self.is_signed(it) {
            // Implementation-defined: wrap as two's complement.
            let w = self.integer_width(it);
            let modulus = 1i128 << w;
            let wrapped = v.rem_euclid(modulus);
            if wrapped > self.int_max(it) {
                wrapped - modulus
            } else {
                wrapped
            }
        } else {
            self.wrap_unsigned(v, it)
        }
    }

    /// Size of a *basic* (non-struct/union) type. Struct and union sizes need
    /// a [`crate::layout::TagRegistry`]; see [`crate::layout`].
    ///
    /// Returns `None` for incomplete or function types.
    pub fn size_of_basic(&self, ty: &Ctype) -> Option<u64> {
        match ty {
            Ctype::Void | Ctype::Function(..) => None,
            Ctype::Integer(it) => Some(self.integer_size(*it)),
            Ctype::Floating => Some(8),
            Ctype::Pointer(..) => Some(self.pointer_size),
            Ctype::Array(elem, Some(n)) => Some(self.size_of_basic(elem)? * n),
            Ctype::Array(_, None) => None,
            Ctype::Struct(_) | Ctype::Union(_) => None,
        }
    }

    /// The integer promotion of a type (6.3.1.1p2): types with rank below
    /// `int` promote to `int` (all their values fit in `int` in the supported
    /// environments); other types are unchanged.
    pub fn integer_promotion(&self, it: IntegerType) -> IntegerType {
        if it.rank() < IntegerType::Int.rank() {
            IntegerType::Int
        } else {
            it
        }
    }

    /// The usual arithmetic conversions (6.3.1.8) restricted to integer types:
    /// returns the common type of a binary arithmetic operation.
    pub fn usual_arithmetic_conversion(&self, a: IntegerType, b: IntegerType) -> IntegerType {
        let a = self.integer_promotion(a);
        let b = self.integer_promotion(b);
        if a == b {
            return a;
        }
        let (sa, sb) = (self.is_signed(a), self.is_signed(b));
        if sa == sb {
            return if a.rank() >= b.rank() { a } else { b };
        }
        // One signed, one unsigned.
        let (signed, unsigned) = if sa { (a, b) } else { (b, a) };
        if unsigned.rank() >= signed.rank() {
            unsigned
        } else if self.int_max(signed) >= self.int_max(unsigned) {
            // The signed type can represent all values of the unsigned type.
            signed
        } else {
            signed.to_unsigned()
        }
    }
}

impl Default for ImplEnv {
    fn default() -> Self {
        ImplEnv::lp64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp64_sizes() {
        let env = ImplEnv::lp64();
        assert_eq!(env.integer_size(IntegerType::Int), 4);
        assert_eq!(env.integer_size(IntegerType::Long), 8);
        assert_eq!(env.pointer_size, 8);
        assert_eq!(env.size_of_basic(&Ctype::pointer(Ctype::Void)), Some(8));
    }

    #[test]
    fn ilp32_long_is_narrow() {
        let env = ImplEnv::ilp32();
        assert_eq!(env.integer_size(IntegerType::Long), 4);
        assert_eq!(env.pointer_size, 4);
    }

    #[test]
    fn int_ranges() {
        let env = ImplEnv::lp64();
        assert_eq!(env.int_max(IntegerType::Int), i32::MAX as i128);
        assert_eq!(env.int_min(IntegerType::Int), i32::MIN as i128);
        assert_eq!(env.int_max(IntegerType::UInt), u32::MAX as i128);
        assert_eq!(env.int_min(IntegerType::UInt), 0);
        assert_eq!(env.int_max(IntegerType::Bool), 1);
    }

    #[test]
    fn unsigned_conversion_wraps() {
        let env = ImplEnv::lp64();
        assert_eq!(env.convert_int(-1, IntegerType::UInt), u32::MAX as i128);
        assert_eq!(env.convert_int(1i128 << 33, IntegerType::UInt), 0);
    }

    #[test]
    fn signed_conversion_wraps_twos_complement() {
        let env = ImplEnv::lp64();
        assert_eq!(env.convert_int(u32::MAX as i128, IntegerType::Int), -1);
        assert_eq!(
            env.convert_int(i32::MAX as i128 + 1, IntegerType::Int),
            i32::MIN as i128
        );
    }

    #[test]
    fn bool_conversion_is_zero_one() {
        let env = ImplEnv::lp64();
        assert_eq!(env.convert_int(42, IntegerType::Bool), 1);
        assert_eq!(env.convert_int(0, IntegerType::Bool), 0);
    }

    #[test]
    fn promotions_reach_int() {
        let env = ImplEnv::lp64();
        assert_eq!(env.integer_promotion(IntegerType::Char), IntegerType::Int);
        assert_eq!(env.integer_promotion(IntegerType::UShort), IntegerType::Int);
        assert_eq!(env.integer_promotion(IntegerType::UInt), IntegerType::UInt);
        assert_eq!(env.integer_promotion(IntegerType::Long), IntegerType::Long);
    }

    #[test]
    fn usual_arithmetic_conversion_mixed_signs() {
        let env = ImplEnv::lp64();
        // -1 < (unsigned int)0: the common type is unsigned int (the paper's
        // §5.5 example), so -1 converts to UINT_MAX.
        assert_eq!(
            env.usual_arithmetic_conversion(IntegerType::Int, IntegerType::UInt),
            IntegerType::UInt
        );
        // long can represent all unsigned int values on lp64.
        assert_eq!(
            env.usual_arithmetic_conversion(IntegerType::Long, IntegerType::UInt),
            IntegerType::Long
        );
        // but not on ilp32: the result is unsigned long.
        assert_eq!(
            ImplEnv::ilp32().usual_arithmetic_conversion(IntegerType::Long, IntegerType::UInt),
            IntegerType::ULong
        );
    }

    #[test]
    fn representable_is_consistent_with_bounds() {
        let env = ImplEnv::lp64();
        for &it in IntegerType::all() {
            assert!(env.representable(env.int_max(it), it));
            assert!(env.representable(env.int_min(it), it));
            assert!(!env.representable(env.int_max(it) + 1, it));
        }
    }
}
