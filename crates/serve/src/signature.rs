//! Canonical root-cause signatures: a deterministic normal-form reduction
//! from an event's lifecycle to a stable, versioned signature ID.
//!
//! Deduplication and "same incident class again" tracking need a key that
//! is *stable* — the same physical failure mode must reduce to the same ID
//! across runs and restarts of the serve loop —
//! and *canonical* — superficially different descriptions of the same
//! lifecycle (e.g. "opened isolated, peaked massive" vs "massive with an
//! isolated onset") must collapse to one representative before hashing.
//!
//! The reduction mirrors a normal-form computation: the lifecycle is first
//! projected onto a small schema of boolean/bucketed atoms
//! ([`SignatureAtoms`]), the rewrite rules R1–R4 below canonicalize the
//! atoms, and the canonical word is mixed with [`SIGNATURE_VERSION`] into
//! a 64-bit [`Signature`]. Every step is branch-deterministic integer
//! arithmetic on `Copy` data — no allocation, no floats, no ordering
//! sensitivity — so the reducer is safe on the per-epoch hot path.
//!
//! Rewrite rules (applied by [`SignatureAtoms::normal_form`]):
//!
//! * **R1 — peak dominance**: the lifecycle class is the peak over the
//!   whole lifetime, ranked `Massive > Isolated > Unresolved`; the onset
//!   class never outranks the peak.
//! * **R2 — transition derivation**: the "class transitioned" atom is
//!   *derived* (`onset ≠ peak` after R1), never stored, so inconsistent
//!   inputs cannot produce two signatures for one lifecycle.
//! * **R3 — spread consistency**: an `Isolated` lifecycle affects one
//!   gateway by definition, so its spread is forced to
//!   [`TopologySpread::Gateway`]; a `Massive` lifecycle is collective, so
//!   its spread is floored at [`TopologySpread::Dslam`].
//! * **R4 — bucket saturation**: duration and affected-device counts are
//!   reduced to saturating buckets, so unbounded lifecycles still land in
//!   a finite schema.
//!
//! Bump [`SIGNATURE_VERSION`] whenever the schema, the rules, or the
//! packing change: old and new IDs must never collide silently.
//!
//! # Version history
//!
//! * **v1** — class/spread/duration/affected/straggler word only.
//! * **v2** — adds the component-scoped [`SignatureAtoms::component_root`]
//!   atom: the topology node id of the *lifecycle's own* blast-radius
//!   root, mixed into the ID as a second hashed lane. Two simultaneous
//!   spatially-disjoint outages of the same shape (e.g. two DSLAMs dark
//!   for the same number of epochs) now reduce to two distinct
//!   signatures, one per faulty subtree, instead of colliding on the
//!   shape word alone.

use anomaly_core::AnomalyClass;

/// Version of the atom schema, rewrite rules, and packing. Mixed into
/// every [`Signature`], so IDs from different schema generations never
/// compare equal.
pub const SIGNATURE_VERSION: u32 = 2;

/// The narrowest ISP-tree layer whose single element covers every device
/// an event affected — the blast radius of the inferred root cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TopologySpread {
    /// One home gateway (CPE-local fault).
    Gateway,
    /// One DSLAM subtree.
    Dslam,
    /// One aggregation subtree.
    Aggregation,
    /// Crosses aggregations: only a core covers the affected set.
    Core,
}

impl TopologySpread {
    fn rank(self) -> u64 {
        match self {
            TopologySpread::Gateway => 0,
            TopologySpread::Dslam => 1,
            TopologySpread::Aggregation => 2,
            TopologySpread::Core => 3,
        }
    }
}

/// Rank used by R1: `Massive > Isolated > Unresolved`.
pub(crate) fn class_rank(class: AnomalyClass) -> u64 {
    match class {
        AnomalyClass::Unresolved => 0,
        AnomalyClass::Isolated => 1,
        AnomalyClass::Massive => 2,
    }
}

/// Saturating duration bucket (R4): `≤1`, `2–3`, `4–7`, `8+` epochs.
pub fn duration_bucket(epochs: u64) -> u64 {
    match epochs {
        0 | 1 => 0,
        2..=3 => 1,
        4..=7 => 2,
        _ => 3,
    }
}

/// Saturating affected-device bucket (R4): `≤1`, `2–8`, `9–64`, `65+`.
pub fn affected_bucket(devices: usize) -> u64 {
    match devices {
        0 | 1 => 0,
        2..=8 => 1,
        9..=64 => 2,
        _ => 3,
    }
}

/// The boolean/bucketed atom schema describing one event lifecycle —
/// the input of the signature reduction. All fields are `Copy`; building
/// and reducing atoms never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureAtoms {
    /// Class at onset (first epoch with a verdict).
    pub onset_class: AnomalyClass,
    /// Peak class over the whole lifecycle.
    pub peak_class: AnomalyClass,
    /// Topology spread of the affected-device set.
    pub spread: TopologySpread,
    /// Observed lifetime in epochs (`end - onset`).
    pub duration_epochs: u64,
    /// Cumulative affected-device count.
    pub affected_devices: usize,
    /// Whether the lifecycle overlapped staleness-bridged (straggler)
    /// epochs — detection quality was degraded by silent devices.
    pub straggler_overlap: bool,
    /// Topology node id of the narrowest node covering the lifecycle's
    /// *own* devices — its spatial component's blast-radius root, not the
    /// merged root of whatever alert it folded into. `None` when no
    /// device maps into the topology. Node ids are deterministic per
    /// topology shape, so the atom is stable across runs.
    pub component_root: Option<u32>,
}

impl SignatureAtoms {
    /// Applies the rewrite rules R1–R3, returning the canonical
    /// representative of this lifecycle. Idempotent: normalizing a
    /// normal form is the identity.
    pub fn normal_form(self) -> SignatureAtoms {
        let mut n = self;
        // R1: the peak dominates; the onset never outranks it.
        if class_rank(n.onset_class) > class_rank(n.peak_class) {
            n.peak_class = n.onset_class;
        }
        // R3: isolated lifecycles are single-gateway by definition;
        // massive lifecycles are collective, so at least a DSLAM subtree.
        match n.peak_class {
            AnomalyClass::Isolated => n.spread = TopologySpread::Gateway,
            AnomalyClass::Massive => {
                if n.spread == TopologySpread::Gateway {
                    n.spread = TopologySpread::Dslam;
                }
            }
            AnomalyClass::Unresolved => {}
        }
        n
    }

    /// Reduces the atoms to their canonical [`Signature`]: normal form,
    /// then a fixed-layout packing of the canonical word, mixed with
    /// [`SIGNATURE_VERSION`]. Same lifecycle in, same ID out — always.
    ///
    /// The component root rides in a second hashed lane XORed onto the
    /// shape word's mix: lifecycles with identical shapes but disjoint
    /// spatial roots get distinct IDs, while a rootless lifecycle
    /// (`component_root == None`) reduces exactly like a pure shape word.
    pub fn reduce(self) -> Signature {
        let n = self.normal_form();
        // R2: the transition atom is derived after R1.
        let transitioned = (n.onset_class != n.peak_class) as u64;
        let word = class_rank(n.peak_class)
            | transitioned << 2
            | n.spread.rank() << 3
            | duration_bucket(n.duration_epochs) << 5
            | affected_bucket(n.affected_devices) << 7
            | (n.straggler_overlap as u64) << 9
            | (SIGNATURE_VERSION as u64) << 32;
        // The spatial lane: `root + 1` so node id 0 is distinct from the
        // absent root, mixed independently so the two lanes never cancel.
        let spatial = match n.component_root {
            None => 0,
            Some(root) => mix(u64::from(root) + 1),
        };
        Signature(mix(word) ^ spatial)
    }
}

/// SplitMix64 finalizer: a fixed bijective mixer, so distinct canonical
/// words always map to distinct IDs and the IDs spread over the full
/// 64-bit space.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A canonical root-cause signature ID. Stable across runs and
/// serve-loop restarts; versioned via
/// [`SIGNATURE_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature(pub u64);

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atoms() -> SignatureAtoms {
        SignatureAtoms {
            onset_class: AnomalyClass::Isolated,
            peak_class: AnomalyClass::Massive,
            spread: TopologySpread::Dslam,
            duration_epochs: 5,
            affected_devices: 16,
            straggler_overlap: false,
            component_root: Some(7),
        }
    }

    #[test]
    fn normal_form_is_idempotent() {
        let n = atoms().normal_form();
        assert_eq!(n, n.normal_form());
    }

    #[test]
    fn reduction_is_deterministic() {
        assert_eq!(atoms().reduce(), atoms().reduce());
    }

    #[test]
    fn r1_peak_dominates_onset() {
        let mut a = atoms();
        a.onset_class = AnomalyClass::Massive;
        a.peak_class = AnomalyClass::Isolated;
        // R3 then forces Gateway→Dslam exactly like the canonical form.
        assert_eq!(a.normal_form().peak_class, AnomalyClass::Massive);
    }

    #[test]
    fn r3_forces_spread_consistency() {
        let mut a = atoms();
        a.onset_class = AnomalyClass::Isolated;
        a.peak_class = AnomalyClass::Isolated;
        a.spread = TopologySpread::Aggregation;
        assert_eq!(a.normal_form().spread, TopologySpread::Gateway);
        let mut b = atoms();
        b.spread = TopologySpread::Gateway;
        assert_eq!(b.normal_form().spread, TopologySpread::Dslam);
    }

    #[test]
    fn equivalent_descriptions_share_one_id() {
        // "Massive that started isolated" with a gateway-level spread is
        // the same failure mode as its canonical DSLAM-level form.
        let mut raw = atoms();
        raw.spread = TopologySpread::Gateway;
        assert_eq!(raw.reduce(), atoms().reduce());
    }

    #[test]
    fn distinct_failure_modes_get_distinct_ids() {
        let base = atoms().reduce();
        let mut longer = atoms();
        longer.duration_epochs = 40;
        let mut wider = atoms();
        wider.spread = TopologySpread::Core;
        let mut lone = atoms();
        lone.onset_class = AnomalyClass::Isolated;
        lone.peak_class = AnomalyClass::Isolated;
        lone.affected_devices = 1;
        assert_ne!(base, longer.reduce());
        assert_ne!(base, wider.reduce());
        assert_ne!(base, lone.reduce());
        assert_ne!(longer.reduce(), wider.reduce());
    }

    /// Two same-shape lifecycles rooted at disjoint subtrees must page as
    /// two distinct root causes — the point of the v2 spatial lane.
    #[test]
    fn disjoint_component_roots_get_distinct_ids() {
        let mut other = atoms();
        other.component_root = Some(8);
        assert_ne!(atoms().reduce(), other.reduce());
        let mut rootless = atoms();
        rootless.component_root = None;
        assert_ne!(atoms().reduce(), rootless.reduce());
    }

    /// Node id 0 is a real root, not the absent-root sentinel.
    #[test]
    fn root_zero_is_distinct_from_no_root() {
        let mut zero = atoms();
        zero.component_root = Some(0);
        let mut none = atoms();
        none.component_root = None;
        assert_ne!(zero.reduce(), none.reduce());
    }

    /// Golden value: pins the version-2 schema, rules, and packing. If
    /// this changes, the schema changed — bump [`SIGNATURE_VERSION`].
    #[test]
    fn version_2_signature_is_pinned() {
        let got = atoms().reduce();
        assert_eq!(got, Signature(0x4f79_1c94_eab4_8c71));
        assert_eq!(format!("{got}"), "4f791c94eab48c71");
    }
}
