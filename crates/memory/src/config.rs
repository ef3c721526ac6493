//! Memory model configurations: the semantic choices that distinguish the
//! points in the design space the paper explores.
//!
//! Each [`ModelConfig`] fixes an answer to the §2 questions that the memory
//! engine consults at runtime: whether accesses are checked against
//! provenance (DR260), how uninitialised reads behave (Q43 / survey [2/15]),
//! what member stores do to padding (Q59 / [1/15]), whether effective types
//! are enforced (Q75 / [11/15]), whether relational comparison of pointers to
//! different objects is allowed (Q25 / [7/15]), and so on. The presets cover
//! the models discussed in the paper and the tool-emulation profiles of §3.

/// Semantics of reading an uninitialised object (§2.4, survey [2/15]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UninitSemantics {
    /// Option (1): undefined behaviour.
    Undefined,
    /// Option (4): an arbitrary but stable unspecified value.
    StableUnspecified,
}

/// Semantics of padding bytes after a member store (§2.5, survey [1/15]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaddingSemantics {
    /// Options (1)/(2): member writes make subsequent padding unspecified.
    MemberStoreClobbers,
    /// Option (4): member writes never touch padding.
    Preserved,
}

/// Semantics of casting an integer to a pointer (Q5, Q9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntToPtrSemantics {
    /// Track provenance through integers: the resulting pointer carries the
    /// integer's provenance (the candidate de facto model).
    TrackedProvenance,
    /// Give the result a wildcard provenance (most permissive).
    Wildcard,
    /// Forbidden: integer-to-pointer round trips are not given a usable
    /// provenance (abstract block models such as early CompCert).
    Forbidden,
}

/// Semantics of relational comparison of pointers to different objects
/// (Q25, survey [7/15]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelationalSemantics {
    /// Compare the concrete addresses, ignoring provenance (the de facto
    /// expectation: global lock orderings, collection orderings).
    ByAddress,
    /// Undefined behaviour, as ISO 6.5.8p5 has it.
    Undefined,
}

/// Which engine implementation a [`ModelConfig`] instantiates (the two
/// [`crate::model::MemoryModel`] implementations shipped in-tree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The concrete byte-representation engine ([`crate::state::MemState`]):
    /// one flat address space, eager access checks over representation bytes.
    #[default]
    Concrete,
    /// The symbolic provenance engine
    /// ([`crate::symbolic::SymbolicEngine`]): per-allocation address regions,
    /// typed cells, lazy constraint checking.
    Symbolic,
    /// The fault-injection drill ([`crate::model::AnyEngine::Panicking`]):
    /// every execution panics. Used to drill the harness's panic
    /// containment; never part of [`ModelConfig::all_named`].
    Panicking,
}

/// The analysis tools of §3 whose detection envelopes the tool-emulation
/// configurations approximate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ToolProfile {
    /// The Clang address/memory/undefined-behaviour sanitisers (liberal on
    /// provenance and padding, catching gross spatial errors).
    Sanitizer,
    /// TrustInSoft tis-interpreter (strict on unspecified values, assumes a
    /// concrete zero null pointer, rejects representation games).
    TisInterpreter,
    /// KCC / RV-Match (strict on uninitialised reads, laxer on effective
    /// types).
    Kcc,
}

/// A set of [`ModelConfig`]'s semantic fields, one bit each: the fields an
/// execution consulted, as its engine reports them (see
/// [`crate::model::MemoryModel::consulted`] and [`ModelConfig::agrees_on`]).
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FieldSet(u16);

impl FieldSet {
    /// No field.
    pub const EMPTY: FieldSet = FieldSet(0);
    /// [`ModelConfig::provenance_checking`].
    pub const PROVENANCE_CHECKING: FieldSet = FieldSet(1 << 0);
    /// [`ModelConfig::allow_oob_pointer_arith`].
    pub const ALLOW_OOB_POINTER_ARITH: FieldSet = FieldSet(1 << 1);
    /// [`ModelConfig::relational`].
    pub const RELATIONAL: FieldSet = FieldSet(1 << 2);
    /// [`ModelConfig::equality_uses_provenance`].
    pub const EQUALITY_USES_PROVENANCE: FieldSet = FieldSet(1 << 3);
    /// [`ModelConfig::uninit`].
    pub const UNINIT: FieldSet = FieldSet(1 << 4);
    /// [`ModelConfig::padding`].
    pub const PADDING: FieldSet = FieldSet(1 << 5);
    /// [`ModelConfig::effective_types`].
    pub const EFFECTIVE_TYPES: FieldSet = FieldSet(1 << 6);
    /// [`ModelConfig::int_to_ptr`].
    pub const INT_TO_PTR: FieldSet = FieldSet(1 << 7);
    /// [`ModelConfig::cheri`].
    pub const CHERI: FieldSet = FieldSet(1 << 8);
    /// [`ModelConfig::provenance_optimising_stores`].
    pub const PROVENANCE_OPTIMISING_STORES: FieldSet = FieldSet(1 << 9);

    /// Each field with its name, in declaration order.
    const NAMED: [(FieldSet, &'static str); 10] = [
        (FieldSet::PROVENANCE_CHECKING, "provenance_checking"),
        (FieldSet::ALLOW_OOB_POINTER_ARITH, "allow_oob_pointer_arith"),
        (FieldSet::RELATIONAL, "relational"),
        (
            FieldSet::EQUALITY_USES_PROVENANCE,
            "equality_uses_provenance",
        ),
        (FieldSet::UNINIT, "uninit"),
        (FieldSet::PADDING, "padding"),
        (FieldSet::EFFECTIVE_TYPES, "effective_types"),
        (FieldSet::INT_TO_PTR, "int_to_ptr"),
        (FieldSet::CHERI, "cheri"),
        (
            FieldSet::PROVENANCE_OPTIMISING_STORES,
            "provenance_optimising_stores",
        ),
    ];

    /// Every semantic field.
    pub const ALL: FieldSet = FieldSet((1 << FieldSet::NAMED.len()) - 1);

    /// Whether every field of `fields` is in this set.
    pub fn contains(self, fields: FieldSet) -> bool {
        self.0 & fields.0 == fields.0
    }

    /// The fields of this set that are not in `fields`.
    pub fn without(self, fields: FieldSet) -> FieldSet {
        FieldSet(self.0 & !fields.0)
    }
}

impl std::ops::BitOr for FieldSet {
    type Output = FieldSet;

    fn bitor(self, other: FieldSet) -> FieldSet {
        FieldSet(self.0 | other.0)
    }
}

/// Lists the field names, e.g. `{"uninit", "cheri"}`.
impl std::fmt::Debug for FieldSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set()
            .entries(
                FieldSet::NAMED
                    .iter()
                    .filter(|(field, _)| self.contains(*field))
                    .map(|(_, name)| name),
            )
            .finish()
    }
}

/// A complete memory-model configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Human-readable name used in reports and benchmarks.
    pub name: &'static str,
    /// Which engine implementation realises this configuration (see
    /// [`ModelConfig::instantiate`]).
    pub engine: EngineKind,
    /// Check every access against the footprint of the allocation identified
    /// by the pointer's provenance (DR260); disabling this gives the fully
    /// concrete semantics.
    pub provenance_checking: bool,
    /// Permit construction of transiently out-of-bounds pointers (Q31): when
    /// `false`, pointer arithmetic that leaves [base, base+size] is immediate
    /// undefined behaviour (the strict ISO reading of 6.5.6p8).
    pub allow_oob_pointer_arith: bool,
    /// Relational comparison of pointers into different objects.
    pub relational: RelationalSemantics,
    /// Whether pointer equality takes provenance into account (Q2): `true`
    /// makes two pointers with equal addresses but different provenances
    /// compare unequal (observable GCC behaviour within one translation
    /// unit); `false` compares addresses only.
    pub equality_uses_provenance: bool,
    /// Semantics of uninitialised reads.
    pub uninit: UninitSemantics,
    /// Semantics of padding bytes around member stores.
    pub padding: PaddingSemantics,
    /// Enforce the effective-type (strict aliasing) rules of 6.5p6-7.
    pub effective_types: bool,
    /// Semantics of integer-to-pointer casts.
    pub int_to_ptr: IntToPtrSemantics,
    /// CHERI capability semantics: an access must lie within the bounds of
    /// the allocation its pointer's provenance names (the capability), so an
    /// access whose provenance names no allocation is rejected too; and
    /// pointers at one address with two provenances compare unequal (exact
    /// equality compares metadata). Integers keep the engine's provenance
    /// rules; the left-biased arithmetic of the §4 findings is modelled only
    /// by [`crate::cheri::arithmetic_provenance`].
    pub cheri: bool,
    /// Emulate the GCC-style provenance-based alias reasoning on the DR260
    /// example: a store through a pointer whose provenance footprint does not
    /// cover the target address is treated as not affecting the object that
    /// actually lives there (the store is redirected to the one-past shadow of
    /// its provenance allocation), so later loads of the overlapping object
    /// still see its old value — reproducing GCC's `x=1 y=2 *p=11 *q=2`.
    pub provenance_optimising_stores: bool,
}

impl ModelConfig {
    /// The fully concrete semantics: pointers are plain addresses, accesses
    /// are checked only against *some* live allocation, uninitialised reads
    /// give stable unspecified values. This plays the role of the "what the
    /// hardware would do" baseline in §2.1 ("in a concrete semantics we would
    /// expect to see x=1 y=11 *p=11 *q=11").
    pub fn concrete() -> Self {
        ModelConfig {
            name: "concrete",
            engine: EngineKind::Concrete,
            provenance_checking: false,
            allow_oob_pointer_arith: true,
            relational: RelationalSemantics::ByAddress,
            equality_uses_provenance: false,
            uninit: UninitSemantics::StableUnspecified,
            padding: PaddingSemantics::Preserved,
            effective_types: false,
            int_to_ptr: IntToPtrSemantics::Wildcard,
            cheri: false,
            provenance_optimising_stores: false,
        }
    }

    /// The candidate de facto memory object model of §5.9: provenance-checked
    /// accesses, transient out-of-bounds pointers permitted, relational
    /// comparison by address, provenance tracked through integers, effective
    /// types off (systems code compiled with `-fno-strict-aliasing`).
    pub fn de_facto() -> Self {
        ModelConfig {
            name: "de-facto",
            engine: EngineKind::Concrete,
            provenance_checking: true,
            allow_oob_pointer_arith: true,
            relational: RelationalSemantics::ByAddress,
            equality_uses_provenance: false,
            uninit: UninitSemantics::StableUnspecified,
            padding: PaddingSemantics::Preserved,
            effective_types: false,
            int_to_ptr: IntToPtrSemantics::TrackedProvenance,
            cheri: false,
            provenance_optimising_stores: false,
        }
    }

    /// A strict reading of the ISO standard: provenance-checked accesses,
    /// out-of-bounds pointer arithmetic undefined immediately, relational
    /// comparison across objects undefined, uninitialised reads undefined,
    /// effective types enforced.
    pub fn strict_iso() -> Self {
        ModelConfig {
            name: "strict-iso",
            engine: EngineKind::Concrete,
            provenance_checking: true,
            allow_oob_pointer_arith: false,
            relational: RelationalSemantics::Undefined,
            equality_uses_provenance: false,
            uninit: UninitSemantics::Undefined,
            padding: PaddingSemantics::MemberStoreClobbers,
            effective_types: true,
            int_to_ptr: IntToPtrSemantics::TrackedProvenance,
            cheri: false,
            provenance_optimising_stores: false,
        }
    }

    /// A GCC-like optimising interpretation: like the de facto model but with
    /// provenance-aware equality (Q2) and provenance-based alias reasoning on
    /// stores (the §2.1 DR260 example).
    pub fn gcc_like() -> Self {
        ModelConfig {
            name: "gcc-like",
            equality_uses_provenance: true,
            provenance_optimising_stores: true,
            ..ModelConfig::de_facto()
        }
    }

    /// A CompCert-style abstract block model: no usable integer/pointer round
    /// trips, no relational comparison across blocks.
    pub fn block() -> Self {
        ModelConfig {
            name: "block",
            engine: EngineKind::Concrete,
            provenance_checking: true,
            allow_oob_pointer_arith: false,
            relational: RelationalSemantics::Undefined,
            equality_uses_provenance: false,
            uninit: UninitSemantics::Undefined,
            padding: PaddingSemantics::MemberStoreClobbers,
            effective_types: false,
            int_to_ptr: IntToPtrSemantics::Forbidden,
            cheri: false,
            provenance_optimising_stores: false,
        }
    }

    /// The CHERI C model of §4: dynamically enforced spatial safety, each
    /// pointer's capability being the bounds of its provenance's allocation.
    pub fn cheri() -> Self {
        ModelConfig {
            name: "cheri",
            engine: EngineKind::Concrete,
            provenance_checking: true,
            allow_oob_pointer_arith: true,
            relational: RelationalSemantics::ByAddress,
            equality_uses_provenance: true,
            uninit: UninitSemantics::StableUnspecified,
            padding: PaddingSemantics::Preserved,
            effective_types: false,
            int_to_ptr: IntToPtrSemantics::TrackedProvenance,
            cheri: true,
            provenance_optimising_stores: false,
        }
    }

    /// The tool-emulation profile for one of the §3 analysis tools.
    pub fn tool(profile: ToolProfile) -> Self {
        match profile {
            // The sanitisers adopt "a liberal semantics to accommodate the de
            // facto standards": padding and unspecified-value tests pass, and
            // only gross spatial violations are flagged.
            ToolProfile::Sanitizer => ModelConfig {
                name: "sanitizer",
                engine: EngineKind::Concrete,
                provenance_checking: false,
                allow_oob_pointer_arith: true,
                relational: RelationalSemantics::ByAddress,
                equality_uses_provenance: false,
                uninit: UninitSemantics::StableUnspecified,
                padding: PaddingSemantics::Preserved,
                effective_types: false,
                int_to_ptr: IntToPtrSemantics::Wildcard,
                cheri: false,
                provenance_optimising_stores: false,
            },
            // tis-interpreter "aims for a tight semantics", flagging most
            // unspecified-value tests and representation games.
            ToolProfile::TisInterpreter => ModelConfig {
                name: "tis-interpreter",
                engine: EngineKind::Concrete,
                provenance_checking: true,
                allow_oob_pointer_arith: false,
                relational: RelationalSemantics::Undefined,
                equality_uses_provenance: false,
                uninit: UninitSemantics::Undefined,
                padding: PaddingSemantics::MemberStoreClobbers,
                effective_types: false,
                int_to_ptr: IntToPtrSemantics::TrackedProvenance,
                cheri: false,
                provenance_optimising_stores: false,
            },
            // KCC: "a very strict semantics for reading uninitialised values
            // (but not for padding bytes), and permitted some tests that ISO
            // effective types forbid".
            ToolProfile::Kcc => ModelConfig {
                name: "kcc",
                engine: EngineKind::Concrete,
                provenance_checking: true,
                allow_oob_pointer_arith: false,
                relational: RelationalSemantics::Undefined,
                equality_uses_provenance: false,
                uninit: UninitSemantics::Undefined,
                padding: PaddingSemantics::Preserved,
                effective_types: false,
                int_to_ptr: IntToPtrSemantics::TrackedProvenance,
                cheri: false,
                provenance_optimising_stores: false,
            },
        }
    }

    /// The symbolic provenance model: realised by
    /// [`crate::symbolic::SymbolicEngine`] rather than by a configuration of
    /// the concrete engine. Allocations live in disjoint symbolic address
    /// regions (so one-past pointers never alias a neighbour), storage is
    /// typed cells rather than representation bytes, and footprint/lifetime
    /// constraints are checked lazily at use. The flags below record the
    /// semantics the engine realises; only `uninit`, `int_to_ptr` and
    /// `allow_oob_pointer_arith` are read at runtime. The engine logs no
    /// reads, so a run of it is shared only with an identical configuration.
    pub fn symbolic() -> Self {
        ModelConfig {
            name: "symbolic",
            engine: EngineKind::Symbolic,
            provenance_checking: true,
            allow_oob_pointer_arith: true,
            relational: RelationalSemantics::Undefined,
            equality_uses_provenance: true,
            uninit: UninitSemantics::StableUnspecified,
            padding: PaddingSemantics::Preserved,
            effective_types: false,
            int_to_ptr: IntToPtrSemantics::TrackedProvenance,
            cheri: false,
            provenance_optimising_stores: false,
        }
    }

    /// The always-panicking fault-injection model
    /// ([`crate::model::AnyEngine::Panicking`], with de-facto semantics):
    /// every execution under it panics, exercising the differential
    /// harness's panic containment. Deliberately *not* part of
    /// [`ModelConfig::all_named`] — it only enters a matrix when injected
    /// explicitly by a test or a fault drill.
    pub fn panicking() -> Self {
        ModelConfig {
            name: "panicking",
            engine: EngineKind::Panicking,
            ..ModelConfig::de_facto()
        }
    }

    /// All the named model configurations, in a stable order (used by the
    /// experiment harness).
    pub fn all_named() -> Vec<ModelConfig> {
        vec![
            ModelConfig::concrete(),
            ModelConfig::de_facto(),
            ModelConfig::strict_iso(),
            ModelConfig::gcc_like(),
            ModelConfig::block(),
            ModelConfig::cheri(),
            ModelConfig::tool(ToolProfile::Sanitizer),
            ModelConfig::tool(ToolProfile::TisInterpreter),
            ModelConfig::tool(ToolProfile::Kcc),
            ModelConfig::symbolic(),
        ]
    }

    /// Look up a named configuration (the names of [`ModelConfig::all_named`],
    /// e.g. for a command-line `--models concrete,symbolic` selection).
    pub fn by_name(name: &str) -> Option<ModelConfig> {
        ModelConfig::all_named()
            .into_iter()
            .find(|m| m.name == name)
    }

    /// Whether `self` and `other` select the same engine and agree on every
    /// field in `fields`; the names may differ. An execution under `other`
    /// that consulted only `fields` is therefore an execution under `self`
    /// too: it reads the same answers at every step.
    pub fn agrees_on(&self, other: &ModelConfig, fields: FieldSet) -> bool {
        // No `..`: a new field cannot compile until it has a bit.
        let ModelConfig {
            name: _,
            engine,
            provenance_checking,
            allow_oob_pointer_arith,
            relational,
            equality_uses_provenance,
            uninit,
            padding,
            effective_types,
            int_to_ptr,
            cheri,
            provenance_optimising_stores,
        } = self;
        let same = |field: FieldSet, equal: bool| equal || !fields.contains(field);
        *engine == other.engine
            && same(
                FieldSet::PROVENANCE_CHECKING,
                *provenance_checking == other.provenance_checking,
            )
            && same(
                FieldSet::ALLOW_OOB_POINTER_ARITH,
                *allow_oob_pointer_arith == other.allow_oob_pointer_arith,
            )
            && same(FieldSet::RELATIONAL, *relational == other.relational)
            && same(
                FieldSet::EQUALITY_USES_PROVENANCE,
                *equality_uses_provenance == other.equality_uses_provenance,
            )
            && same(FieldSet::UNINIT, *uninit == other.uninit)
            && same(FieldSet::PADDING, *padding == other.padding)
            && same(
                FieldSet::EFFECTIVE_TYPES,
                *effective_types == other.effective_types,
            )
            && same(FieldSet::INT_TO_PTR, *int_to_ptr == other.int_to_ptr)
            && same(FieldSet::CHERI, *cheri == other.cheri)
            && same(
                FieldSet::PROVENANCE_OPTIMISING_STORES,
                *provenance_optimising_stores == other.provenance_optimising_stores,
            )
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig::de_facto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_distinct_names() {
        let mut names: Vec<_> = ModelConfig::all_named().iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
        assert_eq!(before, 10);
    }

    #[test]
    fn by_name_round_trips_every_preset() {
        for config in ModelConfig::all_named() {
            assert_eq!(ModelConfig::by_name(config.name), Some(config.clone()));
        }
        assert_eq!(ModelConfig::by_name("no-such-model"), None);
    }

    #[test]
    fn symbolic_is_the_only_non_concrete_engine() {
        let engines: Vec<_> = ModelConfig::all_named()
            .into_iter()
            .filter(|m| m.engine == EngineKind::Symbolic)
            .map(|m| m.name)
            .collect();
        assert_eq!(engines, vec!["symbolic"]);
    }

    #[test]
    fn the_panicking_model_is_never_named() {
        assert_eq!(ModelConfig::panicking().engine, EngineKind::Panicking);
        assert_eq!(ModelConfig::by_name("panicking"), None);
    }

    #[test]
    fn de_facto_permits_what_iso_forbids() {
        let df = ModelConfig::de_facto();
        let iso = ModelConfig::strict_iso();
        assert!(df.allow_oob_pointer_arith);
        assert!(!iso.allow_oob_pointer_arith);
        assert_eq!(df.relational, RelationalSemantics::ByAddress);
        assert_eq!(iso.relational, RelationalSemantics::Undefined);
        assert!(!df.effective_types);
        assert!(iso.effective_types);
    }

    #[test]
    fn gcc_like_extends_de_facto() {
        let g = ModelConfig::gcc_like();
        assert!(g.provenance_checking);
        assert!(g.equality_uses_provenance);
        assert!(g.provenance_optimising_stores);
    }

    #[test]
    fn sanitizer_is_liberal_tis_is_strict() {
        let san = ModelConfig::tool(ToolProfile::Sanitizer);
        let tis = ModelConfig::tool(ToolProfile::TisInterpreter);
        assert_eq!(san.uninit, UninitSemantics::StableUnspecified);
        assert_eq!(tis.uninit, UninitSemantics::Undefined);
        assert!(!san.provenance_checking);
        assert!(tis.provenance_checking);
    }

    #[test]
    fn kcc_is_strict_on_uninit_but_not_padding() {
        let kcc = ModelConfig::tool(ToolProfile::Kcc);
        assert_eq!(kcc.uninit, UninitSemantics::Undefined);
        assert_eq!(kcc.padding, PaddingSemantics::Preserved);
    }

    #[test]
    fn default_is_the_candidate_model() {
        assert_eq!(ModelConfig::default().name, "de-facto");
    }

    #[test]
    fn every_semantic_field_has_its_own_bit() {
        let base = ModelConfig::de_facto();
        type Flip = fn(&mut ModelConfig);
        let flips: [(FieldSet, Flip); 10] = [
            (FieldSet::PROVENANCE_CHECKING, |c| {
                c.provenance_checking ^= true
            }),
            (FieldSet::ALLOW_OOB_POINTER_ARITH, |c| {
                c.allow_oob_pointer_arith ^= true
            }),
            (FieldSet::RELATIONAL, |c| {
                c.relational = RelationalSemantics::Undefined
            }),
            (FieldSet::EQUALITY_USES_PROVENANCE, |c| {
                c.equality_uses_provenance ^= true
            }),
            (FieldSet::UNINIT, |c| c.uninit = UninitSemantics::Undefined),
            (FieldSet::PADDING, |c| {
                c.padding = PaddingSemantics::MemberStoreClobbers
            }),
            (FieldSet::EFFECTIVE_TYPES, |c| c.effective_types ^= true),
            (FieldSet::INT_TO_PTR, |c| {
                c.int_to_ptr = IntToPtrSemantics::Wildcard
            }),
            (FieldSet::CHERI, |c| c.cheri ^= true),
            (FieldSet::PROVENANCE_OPTIMISING_STORES, |c| {
                c.provenance_optimising_stores ^= true
            }),
        ];
        for (field, flip) in flips {
            let mut other = ModelConfig {
                name: "other",
                ..base.clone()
            };
            flip(&mut other);
            assert!(!base.agrees_on(&other, field), "{field:?}");
            assert!(!base.agrees_on(&other, FieldSet::ALL), "{field:?}");
            assert!(
                base.agrees_on(&other, FieldSet::ALL.without(field)),
                "{field:?}"
            );
        }
        let symbolic = ModelConfig {
            engine: EngineKind::Symbolic,
            ..base.clone()
        };
        assert!(!base.agrees_on(&symbolic, FieldSet::EMPTY));
        assert_eq!(
            format!("{:?}", FieldSet::UNINIT | FieldSet::CHERI),
            r#"{"uninit", "cheri"}"#
        );
    }

    /// The name of `$value`'s variant, and the names of all of `$enum`'s
    /// variants. The match has no `_` arm, so the list is complete.
    macro_rules! variant {
        ($value:ident: $enum:ident { $($variant:ident),* }) => {
            (
                match $value {
                    $($enum::$variant => concat!(stringify!($enum), "::", stringify!($variant))),*
                },
                &[$(concat!(stringify!($enum), "::", stringify!($variant))),*] as &[&str],
            )
        };
    }

    #[test]
    fn every_semantic_choice_is_made_by_some_named_model() {
        let mut declared = std::collections::BTreeSet::new();
        let mut chosen = std::collections::BTreeSet::new();
        for config in ModelConfig::all_named() {
            // No `..`: a new field cannot compile without joining the census.
            let ModelConfig {
                name: _,
                engine: _,
                provenance_checking,
                allow_oob_pointer_arith,
                relational,
                equality_uses_provenance,
                uninit,
                padding,
                effective_types,
                int_to_ptr,
                cheri,
                provenance_optimising_stores,
            } = config;
            for (this, all) in [
                variant!(uninit: UninitSemantics { Undefined, StableUnspecified }),
                variant!(padding: PaddingSemantics { MemberStoreClobbers, Preserved }),
                variant!(relational: RelationalSemantics { ByAddress, Undefined }),
                variant!(int_to_ptr: IntToPtrSemantics { TrackedProvenance, Wildcard, Forbidden }),
            ] {
                chosen.insert(this.to_owned());
                declared.extend(all.iter().map(|name| name.to_string()));
            }
            for (field, value) in [
                ("provenance_checking", provenance_checking),
                ("allow_oob_pointer_arith", allow_oob_pointer_arith),
                ("equality_uses_provenance", equality_uses_provenance),
                ("effective_types", effective_types),
                ("cheri", cheri),
                ("provenance_optimising_stores", provenance_optimising_stores),
            ] {
                chosen.insert(format!("{field}={value}"));
                declared.extend([format!("{field}=true"), format!("{field}=false")]);
            }
        }
        let unchosen: Vec<_> = declared.difference(&chosen).collect();
        assert!(
            unchosen.is_empty(),
            "no named model makes these choices: {unchosen:?}"
        );
    }
}
