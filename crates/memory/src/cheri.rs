//! CHERI C capability semantics (§4 of the paper).
//!
//! The paper applied its analysis and test suite to the CHERI C
//! implementation and found several divergences from the expected de facto
//! behaviour. This module models the relevant capability semantics so that
//! those findings can be reproduced as experiments (E12):
//!
//! 1. **Pointer equality**: CHERI originally compared capabilities by address
//!    only, so "two pointers with different provenance compare equal, but not
//!    be interchangeable"; the fix was a compare-exactly-equal instruction
//!    comparing address *and* metadata.
//! 2. **`uintptr_t` bitwise arithmetic**: `(i & 3u) == 0u` evaluated to false
//!    even though the low bits of the address were zero, because the `&` was
//!    applied to the capability's *offset* field rather than the full
//!    address.
//! 3. **Provenance of non-`intptr_t` integers**: CHERI's ordinary integer
//!    values carry no provenance, and provenance in arithmetic is inherited
//!    from the left-hand operand only.

use crate::value::{PointerValue, Provenance};

/// A CHERI capability for a C pointer or `uintptr_t` value: base, length,
/// offset and tag. The represented address is `base + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability {
    /// Base address of the capability's bounds.
    pub base: u64,
    /// Length of the bounds in bytes.
    pub length: u64,
    /// Offset from the base; the capability's address is `base + offset`.
    pub offset: u64,
    /// Validity tag.
    pub tag: bool,
    /// The allocation the capability was derived from.
    pub prov: Provenance,
}

impl Capability {
    /// A capability covering one whole allocation, pointing at its base.
    pub fn for_allocation(base: u64, length: u64, prov: Provenance) -> Self {
        Capability {
            base,
            length,
            offset: 0,
            tag: true,
            prov,
        }
    }

    /// The full address represented by the capability.
    pub fn address(&self) -> u64 {
        self.base + self.offset
    }

    /// Whether an access of `len` bytes at the capability's address is within
    /// bounds.
    pub fn in_bounds(&self, len: u64) -> bool {
        self.tag && self.offset <= self.length && len <= self.length - self.offset
    }

    /// The [`PointerValue`] at the capability's address, with its
    /// provenance. The engine derives bounds from that provenance, so the
    /// pointer carries no capability of its own.
    pub fn to_pointer(self) -> PointerValue {
        PointerValue::object(self.prov, self.address())
    }
}

/// CHERI pointer equality as originally implemented: compares the represented
/// *addresses* only, so capabilities with different provenance can compare
/// equal without being interchangeable (the first §4 finding).
pub fn eq_by_address(a: &Capability, b: &Capability) -> bool {
    a.address() == b.address()
}

/// The compare-exactly-equal semantics the CHERI developers added in response:
/// compares the address and all the metadata.
pub fn eq_exact(a: &Capability, b: &Capability) -> bool {
    a.address() == b.address()
        && a.base == b.base
        && a.length == b.length
        && a.tag == b.tag
        && a.prov == b.prov
}

/// Bitwise AND on a `uintptr_t` value represented as a capability, as the
/// original CHERI implementation computed it: the mask is applied to the
/// **offset** field, and the result is the fat pointer with that offset — so
/// the *represented value* is `base + (offset & mask)`, not
/// `(base + offset) & mask` (the second §4 finding).
pub fn uintptr_bitand_offset_semantics(i: &Capability, mask: u64) -> u64 {
    i.base + (i.offset & mask)
}

/// The value a programmer would expect from `(uintptr_t)p & mask`: the mask
/// applied to the full address.
pub fn uintptr_bitand_address_semantics(i: &Capability, mask: u64) -> u64 {
    i.address() & mask
}

/// CHERI provenance rule for arithmetic on integers: non-`intptr_t` integer
/// values do not carry pointer provenance, and for `uintptr_t` arithmetic the
/// provenance "is only inherited from the left-hand side" (the third §4
/// finding / codified constraint).
pub fn arithmetic_provenance(lhs: Provenance, _rhs: Provenance) -> Provenance {
    lhs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aligned_interior_cap() -> Capability {
        // An allocation at a 16-aligned base; the capability points at offset
        // 6 within it, i.e. at an address whose low bits depend on base+offset.
        Capability {
            base: 0x1_0000,
            length: 64,
            offset: 6,
            tag: true,
            prov: Provenance::Alloc(1),
        }
    }

    #[test]
    fn equality_by_address_vs_exact() {
        let a = Capability {
            base: 0x1_0000,
            length: 4,
            offset: 4,
            tag: true,
            prov: Provenance::Alloc(1),
        };
        let b = Capability {
            base: 0x1_0004,
            length: 4,
            offset: 0,
            tag: true,
            prov: Provenance::Alloc(2),
        };
        // Same represented address (one-past a == base of b) …
        assert_eq!(a.address(), b.address());
        // … so the original semantics calls them equal, although they are not
        // interchangeable; the exact comparison distinguishes them.
        assert!(eq_by_address(&a, &b));
        assert!(!eq_exact(&a, &b));
    }

    #[test]
    fn uintptr_bitand_quirk_reproduces() {
        // (i & 3u) == 0u with i pointing at an address whose low two bits are
        // zero: base = 0x10000, offset = 8 → address 0x10008, aligned.
        let i = Capability {
            base: 0x1_0000,
            length: 64,
            offset: 8,
            tag: true,
            prov: Provenance::Alloc(1),
        };
        assert_eq!(i.address() & 3, 0);
        // Expected (address) semantics: the test passes.
        assert_eq!(uintptr_bitand_address_semantics(&i, 3), 0);
        // CHERI's offset semantics: the result is base + (offset & 3) =
        // 0x10000, which is non-zero, so `(i & 3u) == 0u` is false even
        // though the address is aligned.
        assert_ne!(uintptr_bitand_offset_semantics(&i, 3), 0);
    }

    #[test]
    fn interior_offset_also_differs() {
        let i = aligned_interior_cap();
        assert_ne!(
            uintptr_bitand_offset_semantics(&i, 3),
            uintptr_bitand_address_semantics(&i, 3)
        );
    }

    #[test]
    fn bounds_checking() {
        let c = Capability::for_allocation(0x2_0000, 16, Provenance::Alloc(7));
        assert!(c.in_bounds(16));
        assert!(!c.in_bounds(17));
        assert!(!c.in_bounds(u64::MAX));
        let mut untagged = c;
        untagged.tag = false;
        assert!(!untagged.in_bounds(1));
    }

    #[test]
    fn pointer_round_trip() {
        let c = Capability {
            base: 0x3_0000,
            length: 32,
            offset: 8,
            tag: true,
            prov: Provenance::Alloc(9),
        };
        let p = c.to_pointer();
        assert_eq!(p.addr, 0x3_0008);
        assert_eq!(p.prov, Provenance::Alloc(9));
        assert!(p.function.is_none());
    }

    #[test]
    fn arithmetic_provenance_is_left_biased() {
        assert_eq!(
            arithmetic_provenance(Provenance::Alloc(1), Provenance::Alloc(2)),
            Provenance::Alloc(1)
        );
        assert_eq!(
            arithmetic_provenance(Provenance::Empty, Provenance::Alloc(2)),
            Provenance::Empty
        );
    }
}
