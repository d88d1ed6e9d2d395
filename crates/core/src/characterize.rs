//! Local characterization (Algorithms 3–5; Theorems 5–7; Corollary 8).
//!
//! [`Analyzer`] precomputes, for every abnormal device, the family of
//! maximal r-consistent motions it belongs to (Algorithm 2) and then decides
//! per device:
//!
//! * [`Analyzer::characterize`] — Algorithm 3: Theorem 5 (no dense motion ⇒
//!   isolated), Theorem 6 (a dense motion inside `J_k(j)` ⇒ massive), else
//!   tentatively unresolved. Cheap, misses ~0.4% of massive devices.
//! * [`Analyzer::characterize_full`] — Algorithms 4–5: additionally runs the
//!   necessary-and-sufficient condition of Theorem 7, searching collections
//!   of pairwise-disjoint dense motions of the `L_k(j)` devices; the verdict
//!   is exact (massive via Theorem 7, or unresolved via Corollary 8).
//!
//! The [`Cost`] attached to every verdict exposes the operation counts
//! reported in Table III of the paper.

use crate::families::Families;
use crate::maximal::{maximal_motions_bounded, MotionOps};
use crate::motion::extends_consistently;
use crate::params::Params;
use crate::set::DeviceSet;
use crate::table::TrajectoryTable;
use anomaly_qos::DeviceId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// The three possible verdicts for an abnormal device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyClass {
    /// Certainly impacted by an isolated anomaly (`j ∈ I_k`).
    Isolated,
    /// Certainly impacted by a massive anomaly (`j ∈ M_k`).
    Massive,
    /// Unresolved configuration: both readings admissible (`j ∈ U_k`).
    Unresolved,
}

impl fmt::Display for AnomalyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AnomalyClass::Isolated => "isolated",
            AnomalyClass::Massive => "massive",
            AnomalyClass::Unresolved => "unresolved",
        };
        f.write_str(s)
    }
}

/// Which result of the paper produced the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Theorem 5: `W̄_k(j) = ∅ ⇔ j ∈ I_k`.
    Theorem5,
    /// Theorem 6: a dense motion within `J_k(j)` (sufficient for `M_k`).
    Theorem6,
    /// Theorem 7: the NSC for `M_k` (collection search succeeded for all).
    Theorem7,
    /// Corollary 8: a witness collection proves `j ∈ U_k`.
    Corollary8,
    /// Algorithm 3's fast path labelled the device unresolved without
    /// running the full NSC — may misclassify ~0.4% of massive devices.
    Algorithm3,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::Theorem5 => "Theorem 5",
            Rule::Theorem6 => "Theorem 6",
            Rule::Theorem7 => "Theorem 7",
            Rule::Corollary8 => "Corollary 8",
            Rule::Algorithm3 => "Algorithm 3",
        };
        f.write_str(s)
    }
}

/// Operation counts behind one verdict (Table III's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// `|M(j)|` — maximal motions the device belongs to (Table III, col. 1).
    pub maximal_motions: usize,
    /// `|W̄_k(j)|` — maximal dense motions (Table III, col. 2).
    pub dense_motions: usize,
    /// Collections of disjoint dense motions tested by the Theorem 7 /
    /// Corollary 8 search (Table III, cols. 3–4). Zero when the search was
    /// not needed.
    pub collections_tested: u64,
    /// Sliding-window placements of Algorithm 2 over the device's closed
    /// neighbourhood `N[j] = N(j) ∪ {j}`. The enumeration runs once per
    /// group of devices sharing that neighbourhood, and every member
    /// reports the group's count — the count a per-device enumeration of
    /// `N[j]` gives.
    pub window_moves: u64,
}

/// Result of the collection search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchOutcome {
    /// Every collection satisfied relation (4) or (5): the device is massive.
    Exhausted,
    /// A witness collection violated both relations: unresolved.
    Violated,
    /// The budget ran out before a conclusion: conservatively unresolved.
    BudgetSpent,
}

/// A verdict with its provenance and cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Characterization {
    class: AnomalyClass,
    rule: Rule,
    cost: Cost,
}

impl Characterization {
    /// The verdict.
    pub fn class(&self) -> AnomalyClass {
        self.class
    }

    /// The theorem/corollary that produced it.
    pub fn rule(&self) -> Rule {
        self.rule
    }

    /// Operation counters.
    pub fn cost(&self) -> Cost {
        self.cost
    }
}

/// Bound on the number of collections the Theorem 7 search visits per
/// device before giving up and reporting the device unresolved (with
/// `Rule::Corollary8` provenance).
///
/// The collection space is exponential in the number of disjoint escape
/// motions around the device; a pathological superposition of many
/// anomalies could otherwise stall a monitoring round indefinitely. Giving
/// up is *conservative*: an unresolved verdict never asserts something
/// false (the device defers and re-samples, per Section VII-C).
pub const DEFAULT_COLLECTION_BUDGET: u64 = 2_000_000;

/// Largest base motion whose dense sub-motions are enumerated by the
/// Theorem 7 search; beyond this the verdict degrades conservatively (the
/// subset count is `2^|M|`).
pub const MAX_BASE_MOTION_FOR_SUBSETS: usize = 16;

/// Default budget on sliding-window placements per device when
/// precomputing maximal motions. Pathological configurations (hundreds of
/// devices inside a few windows) have exponentially many maximal motions;
/// devices whose enumeration exceeds this budget are conservatively
/// reported unresolved instead of stalling the monitoring round.
pub const DEFAULT_ENUMERATION_BUDGET: u64 = 500_000;

/// The maximal motions Algorithm 2 enumerated over one closed
/// neighbourhood `N[j]`, held once behind an `Arc` by the slices of every
/// device of the precompute group that shares it.
///
/// Every member of the group lies in every motion: each member is within
/// `2r` of all of `N[j]`, so it extends any motion there, and a maximal
/// one already holds it. The family is therefore `M(j)` of each member.
#[derive(Debug)]
struct Family {
    /// The maximal motions, sorted; empty when the enumeration overflowed.
    motions: Vec<DeviceSet>,
    /// Indices into `motions` of the τ-dense ones: `W̄_k(j)`.
    dense: Vec<usize>,
    /// Sliding-window placements the enumeration spent.
    window_moves: u64,
    /// True when the enumeration exceeded its budget.
    overflowed: bool,
}

impl Family {
    fn new(motions: Vec<DeviceSet>, params: &Params, ops: MotionOps) -> Self {
        let dense = motions
            .iter()
            .enumerate()
            .filter(|(_, m)| params.is_dense(m.len()))
            .map(|(i, _)| i)
            .collect();
        Family {
            motions,
            dense,
            window_moves: ops.window_moves,
            overflowed: ops.truncated,
        }
    }

    fn dense(&self) -> impl Iterator<Item = &DeviceSet> + '_ {
        self.dense.iter().filter_map(|&i| self.motions.get(i))
    }
}

/// The per-device slice of an [`Analyzer`]'s precomputation: `M(j)`,
/// `W̄_k(j)`, and the enumeration cost, for one device.
///
/// Produced by [`Analyzer::precompute_shard`] — a pure function of the
/// table, the parameters, and the device's closed neighbourhood
/// `N[j] = N(j) ∪ {j}` (each device's computation only reads its
/// `2r`-neighbourhood; Definition 1's locality), so slices computed at
/// different times — fresh ones beside cached ones — merge back into a
/// full engine by [`Analyzer::from_parts`]. A slice is the enumerated
/// family of `N[j]`, shared behind an `Arc` by every device of the group
/// that enumerated it, so cloning one copies a pointer, never device
/// sets. Its window-move count and overflow flag are those of the
/// enumeration of `N[j]`.
#[derive(Debug, Clone)]
pub struct DevicePrecompute {
    family: Arc<Family>,
}

impl DevicePrecompute {
    /// True when the device's motion enumeration exceeded its budget (the
    /// merged analyzer will conservatively report it unresolved).
    pub fn overflowed(&self) -> bool {
        self.family.overflowed
    }

    /// `M(j)` as precomputed: the maximal motions containing the device.
    fn motions(&self) -> impl Iterator<Item = &DeviceSet> + '_ {
        self.family.motions.iter()
    }

    /// `W̄_k(j)` as precomputed: the maximal τ-dense motions containing the
    /// device. Callers that cache slices across instants hand the slices
    /// to [`ComponentPartition::from_slices`] to recover the epoch's
    /// spatial partition without rebuilding an engine.
    pub fn dense(&self) -> impl Iterator<Item = &DeviceSet> + '_ {
        self.family.dense()
    }

    /// What makes two slices twins: the same enumerated family, so the
    /// same `N[j]`, window moves, `M(j)` and `W̄_k(j)`.
    fn twin_key(&self) -> *const Family {
        Arc::as_ptr(&self.family)
    }
}

/// The spatial identity of an epoch's massive verdicts: connected
/// components of overlapping maximal τ-dense motions.
///
/// Two devices share a component iff some chain of τ-dense motions links
/// them (each consecutive pair of motions sharing at least one device).
/// A massive verdict always carries a component — Theorems 6/7 both
/// require a dense motion through the device — while an isolated device
/// (Theorem 5: `W̄_k(j) = ∅`) never does. Components are the unit of
/// "one outage": two simultaneous anomalies whose dense motions never
/// touch land in different components even when both are massive.
///
/// Numbering is deterministic and order-free: components are sorted by
/// their smallest member device id and numbered `0..count`, so any
/// permutation of the input parts — fresh or cached slices — yields byte-identical ids. The ids are **epoch-local**:
/// they are ranks within one instant's partition and must not be compared
/// or cached across instants (a component vanishing elsewhere shifts every
/// later rank).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComponentPartition {
    /// `(device, component rank)` for every device in at least one dense
    /// set, in ascending device order.
    component: Vec<(DeviceId, u32)>,
    /// Number of distinct components.
    count: usize,
}

impl ComponentPartition {
    /// Builds the partition from per-device precompute slices, in any
    /// order. Every member of every dense motion is assigned to a
    /// component; the slices may be freshly computed, cached, or a
    /// mixture, exactly as with [`Analyzer::from_parts`]. Duplicate slices
    /// are harmless.
    ///
    /// Each distinct enumerated family, however many slices share it, has
    /// its dense motions unioned once; a slice's device lies in every
    /// motion of its family, so it needs no join of its own. A pile-up of
    /// `m` devices sharing one family costs `O(m)` here, not `O(m²)`.
    pub fn from_slices<'a>(slices: impl IntoIterator<Item = &'a DevicePrecompute>) -> Self {
        let mut families: BTreeMap<*const Family, &'a Family> = BTreeMap::new();
        for slice in slices {
            families.insert(Arc::as_ptr(&slice.family), &slice.family);
        }
        let motions: Vec<&DeviceSet> = families.values().flat_map(|f| f.dense()).collect();
        ComponentPartition::from_motions(&motions)
    }

    /// The union-find kernel over the union of `motions`.
    ///
    /// Nodes are the sorted, deduplicated members: node `i` is the `i`-th
    /// smallest device, and unions root toward the smaller node, so every
    /// root is the smallest member of its component. Each motion's members
    /// are joined to its first member.
    fn from_motions(motions: &[&DeviceSet]) -> Self {
        let mut devices: Vec<DeviceId> = Vec::new();
        for motion in motions {
            devices.extend_from_slice(motion.as_slice());
        }
        devices.sort_unstable();
        devices.dedup();
        let node = |d: DeviceId| devices.binary_search(&d).ok().map(|i| i as u32);
        let mut parent: Vec<u32> = (0..devices.len() as u32).collect();
        for motion in motions {
            let mut members = motion.iter().filter_map(node);
            if let Some(head) = members.next() {
                for member in members {
                    union_toward_smaller(&mut parent, head, member);
                }
            }
        }
        // Number components by smallest member id: a node that is its own
        // root opens the next rank, and every other node's root is smaller,
        // so its rank is already known.
        let mut ranks: Vec<u32> = Vec::with_capacity(devices.len());
        let mut count = 0u32;
        for i in 0..devices.len() as u32 {
            let root = find_root(&mut parent, i);
            let rank = if root == i {
                count += 1;
                count - 1
            } else {
                ranks.get(root as usize).copied().unwrap_or(0)
            };
            ranks.push(rank);
        }
        ComponentPartition {
            component: devices.into_iter().zip(ranks).collect(),
            count: count as usize,
        }
    }

    /// The component of `j`, or `None` when `j` is in no dense motion
    /// (every isolated device; massive devices always resolve to `Some`).
    pub fn component_of(&self, j: DeviceId) -> Option<u32> {
        self.component
            .binary_search_by_key(&j, |&(d, _)| d)
            .ok()
            .and_then(|i| self.component.get(i))
            .map(|&(_, c)| c)
    }

    /// Number of distinct components this epoch.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when no device belongs to any dense motion.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Every (device, component) assignment in ascending device order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, u32)> + '_ {
        self.component.iter().copied()
    }
}

/// Union-find root of node `x`, halving the path on the way up. Nodes
/// outside `parent` are their own roots.
fn find_root(parent: &mut [u32], mut x: u32) -> u32 {
    while let Some(&p) = parent.get(x as usize) {
        if p == x {
            break;
        }
        let grandparent = parent.get(p as usize).copied().unwrap_or(p);
        if let Some(slot) = parent.get_mut(x as usize) {
            *slot = grandparent;
        }
        x = grandparent;
    }
    x
}

/// Joins the trees of `a` and `b` under the smaller root, so every root
/// stays the smallest node of its tree whatever the union order.
fn union_toward_smaller(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (find_root(parent, a), find_root(parent, b));
    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
    if lo != hi {
        if let Some(slot) = parent.get_mut(hi as usize) {
            *slot = lo;
        }
    }
}

/// Per-population characterization engine.
///
/// Precomputes `M(j)` and `W̄_k(j)` for every device of the table (each
/// computation is local to the device's `2r`-neighbourhood), keeps the
/// per-device slices in one `Vec` indexed by table slot, and answers
/// per-device queries against the table it borrows. See the crate docs
/// for an end-to-end example.
///
/// The slices need not be computed together: the **incremental monitor**
/// merges cached slices of unchanged devices with freshly computed ones,
/// and [`Analyzer::from_parts`] is indifferent to where each
/// [`DevicePrecompute`] came from, as long as the slice is valid for the
/// borrowed table.
#[derive(Debug, Clone)]
pub struct Analyzer<'t> {
    table: &'t TrajectoryTable,
    params: Params,
    /// The slice of the device in each table slot.
    slices: Vec<DevicePrecompute>,
}

/// Algorithm 3's verdict for one device, with the Section V families when
/// it had to build them (every verdict but an overflow of the device's own
/// enumeration and Theorem 5).
type Quick = (Characterization, Option<Families>);

impl<'t> Analyzer<'t> {
    /// Builds the engine over all devices of `table` (conceptually `A_k`).
    ///
    /// Devices whose neighbourhood is so pathological that enumerating its
    /// maximal motions exceeds [`DEFAULT_ENUMERATION_BUDGET`] window moves
    /// are recorded as overflowed and later reported unresolved (a
    /// conservative, never-wrong verdict) instead of stalling.
    pub fn new(table: &'t TrajectoryTable, params: Params) -> Self {
        Analyzer::with_enumeration_budget(table, params, DEFAULT_ENUMERATION_BUDGET)
    }

    /// Rebuilds the engine with a custom per-device enumeration budget
    /// (window moves). Devices exceeding it are reported unresolved.
    pub fn with_enumeration_budget(
        table: &'t TrajectoryTable,
        params: Params,
        max_window_moves: u64,
    ) -> Self {
        let parts = Self::precompute_shard(table, &params, table.ids(), max_window_moves);
        Self::from_parts(table, params, parts)
    }

    /// The per-device phase: precomputes one device's slice of
    /// the engine (`M(j)`, `W̄_k(j)`, enumeration cost).
    ///
    /// Reads only `j`'s `2r`-neighbourhood of `table`, takes no `&mut`
    /// anywhere, and depends on nothing but its arguments, so its result
    /// equals that device's slice of [`Analyzer::new`]. Because the result
    /// depends only on the trajectories of the `2r`-neighbourhood, a caller
    /// may also cache it across instants and reuse it verbatim while that
    /// neighbourhood is unchanged. It is the one-device case of
    /// [`Analyzer::precompute_shard`].
    pub fn precompute_device(
        table: &TrajectoryTable,
        params: &Params,
        j: DeviceId,
        max_window_moves: u64,
    ) -> DevicePrecompute {
        Self::precompute_shard(table, params, &[j], max_window_moves)
            .pop()
            .map(|(_, part)| part)
            .unwrap_or_else(|| unreachable!("one device in, one slice out"))
    }

    /// Precomputes the slices of every device of `shard`, returned in
    /// shard order, running Algorithm 2 once per distinct closed
    /// neighbourhood.
    ///
    /// A device's slice depends only on its closed neighbourhood
    /// `N[j] = N(j) ∪ {j}`: Algorithm 2 enumerates the maximal motions of
    /// that candidate set, and `M(j)` is the enumerated sets that contain
    /// `j`. Devices that move together — a pile-up — share one `N[j]`, so
    /// the shard is grouped by it and each group's family is enumerated
    /// once, under the per-device budget `max_window_moves`, and stored
    /// once behind an `Arc`. Every member's slice is that `Arc`: every
    /// member lies in every enumerated motion (see `Family`), so each
    /// slice describes what a per-device enumeration of `N[j]` gives,
    /// window moves and truncation flag included. Groups are formed in an
    /// ordered map.
    /// The neighbourhoods themselves come from one trajectory index over
    /// the table ([`TrajectoryTable::neighborhoods`]), not a scan per
    /// device.
    ///
    /// # Panics
    ///
    /// Panics if a shard device is not in the table.
    pub fn precompute_shard(
        table: &TrajectoryTable,
        params: &Params,
        shard: &[DeviceId],
        max_window_moves: u64,
    ) -> Vec<(DeviceId, DevicePrecompute)> {
        let window = params.window();
        let mut groups: BTreeMap<DeviceSet, Vec<(usize, DeviceId)>> = BTreeMap::new();
        for ((slot, &j), near) in shard
            .iter()
            .enumerate()
            .zip(table.neighborhoods(shard, window))
        {
            let mut closed: DeviceSet = near.into_iter().collect();
            closed.insert(j);
            groups.entry(closed).or_default().push((slot, j));
        }
        let mut slices: Vec<(usize, DeviceId, DevicePrecompute)> = Vec::with_capacity(shard.len());
        for (candidates, members) in groups {
            let mut ops = MotionOps::default();
            let motions =
                maximal_motions_bounded(table, &candidates, window, &mut ops, max_window_moves)
                    .unwrap_or_default();
            let family = Arc::new(Family::new(motions, params, ops));
            debug_assert!(
                members
                    .iter()
                    .all(|&(_, j)| family.motions.iter().all(|m| m.contains(j))),
                "a group member missing from a motion of its closed neighbourhood"
            );
            for (slot, j) in members {
                let family = Arc::clone(&family);
                slices.push((slot, j, DevicePrecompute { family }));
            }
        }
        slices.sort_unstable_by_key(|&(slot, _, _)| slot);
        slices.into_iter().map(|(_, j, part)| (j, part)).collect()
    }

    /// The merge phase: assembles an engine from per-device slices, in any
    /// order.
    ///
    /// The slices may come from anywhere — a fresh precompute, or a cache
    /// of previous instants' parts for devices whose `2r`-neighbourhood did
    /// not change — as long as together they cover exactly the devices of
    /// `table`. The result is identical to [`Analyzer::new`] whatever the
    /// part order and provenance: each slice lands in its device's table
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics unless `parts` covers exactly the devices of `table` (one
    /// part per id, no strangers).
    pub fn from_parts(
        table: &'t TrajectoryTable,
        params: Params,
        parts: impl IntoIterator<Item = (DeviceId, DevicePrecompute)>,
    ) -> Self {
        let mut slots: Vec<Option<DevicePrecompute>> = vec![None; table.len()];
        for (j, part) in parts {
            let Some(slot) = table.slot(j) else {
                panic!("part for unknown device {j:?}");
            };
            assert!(
                slots[slot].replace(part).is_none(),
                "duplicate part for device {j:?}"
            );
        }
        let slices: Vec<DevicePrecompute> = slots.into_iter().flatten().collect();
        assert_eq!(
            slices.len(),
            table.len(),
            "parts must cover every device of the table exactly once"
        );
        Analyzer {
            table,
            params,
            slices,
        }
    }

    /// Devices whose enumeration overflowed (conservatively unresolved).
    pub fn overflowed_devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.table
            .ids()
            .iter()
            .zip(&self.slices)
            .filter(|(_, slice)| slice.overflowed())
            .map(|(&j, _)| j)
    }

    /// The parameters in force.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The slice of `j`, if `j` is in the table.
    fn try_slice(&self, j: DeviceId) -> Option<&DevicePrecompute> {
        self.table.slot(j).and_then(|slot| self.slices.get(slot))
    }

    /// The slice of `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not in the table.
    fn slice(&self, j: DeviceId) -> &DevicePrecompute {
        match self.try_slice(j) {
            Some(slice) => slice,
            None => panic!("device {j} not in table"),
        }
    }

    /// `M(j)`: all maximal motions containing `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not in the table.
    pub fn motions_of(&self, j: DeviceId) -> impl Iterator<Item = &DeviceSet> + '_ {
        self.slice(j).motions()
    }

    /// `W̄_k(j)`: maximal τ-dense motions containing `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not in the table.
    pub fn wbar_of(&self, j: DeviceId) -> impl Iterator<Item = &DeviceSet> + '_ {
        self.slice(j).dense()
    }

    /// The epoch's [`ComponentPartition`]: connected components of the
    /// merged `W̄_k` dense motions, numbered by smallest member id. The
    /// result is a pure function of the merged parts, so any mix of fresh
    /// and cached parts agrees byte-for-byte with a full recompute.
    pub fn component_partition(&self) -> ComponentPartition {
        ComponentPartition::from_slices(&self.slices)
    }

    /// The Section V families of `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not in the table.
    pub fn families_of(&self, j: DeviceId) -> Families {
        Families::build(j, self.wbar_of(j), |id| {
            self.try_slice(id)
                .into_iter()
                .flat_map(DevicePrecompute::dense)
        })
    }

    /// True when a device the families consulted overflowed its own
    /// enumeration: its escape motions are unknown.
    fn consults_overflow(&self, families: &Families) -> bool {
        families
            .d_set
            .iter()
            .any(|m| self.try_slice(m).is_some_and(DevicePrecompute::overflowed))
    }

    /// Algorithm 3: Theorem 5 / Theorem 6 / tentative unresolved.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not in the table.
    pub fn characterize(&self, j: DeviceId) -> Characterization {
        self.algorithm3(j).0
    }

    /// Algorithm 3 for `j`, keeping the families it built.
    fn algorithm3(&self, j: DeviceId) -> Quick {
        let slice = self.slice(j);
        let verdict = |class, rule| Characterization {
            class,
            rule,
            cost: Cost {
                maximal_motions: slice.family.motions.len(),
                dense_motions: slice.family.dense.len(),
                collections_tested: 0,
                window_moves: slice.family.window_moves,
            },
        };
        // Enumeration overflow: the neighbourhood was too pathological to
        // analyze within budget — conservatively unresolved.
        if slice.overflowed() {
            return (verdict(AnomalyClass::Unresolved, Rule::Algorithm3), None);
        }
        // Theorem 5: no dense motion at all.
        if slice.family.dense.is_empty() {
            return (verdict(AnomalyClass::Isolated, Rule::Theorem5), None);
        }
        let families = self.families_of(j);
        // If any neighbour consulted by the families overflowed its own
        // enumeration, its escape motions are unknown — degrade to
        // unresolved rather than decide from incomplete data.
        if self.consults_overflow(&families) {
            return (
                verdict(AnomalyClass::Unresolved, Rule::Algorithm3),
                Some(families),
            );
        }
        // Theorem 6 via Algorithm 3 line 17: a maximal dense motion whose
        // intersection with J_k(j) is itself dense. (That intersection is a
        // motion — subset of one — and contains j.)
        let tau = self.params.tau();
        let theorem6 = families
            .dense
            .iter()
            .any(|m| m.intersection_len(&families.j_set) > tau);
        let quick = if theorem6 {
            verdict(AnomalyClass::Massive, Rule::Theorem6)
        } else {
            verdict(AnomalyClass::Unresolved, Rule::Algorithm3)
        };
        (quick, Some(families))
    }

    /// Algorithm 3 + Algorithms 4–5: exact verdict via the Theorem 7 NSC
    /// when the fast path is inconclusive. The one-device case of
    /// [`Analyzer::characterize_full_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is not in the table.
    pub fn characterize_full(&self, j: DeviceId) -> Characterization {
        self.characterize_full_batch(&[j])
            .pop()
            .unwrap_or_else(|| unreachable!("one device in, one verdict out"))
    }

    /// [`Analyzer::characterize_full`] of every device of `js`, in order,
    /// `Cost` included, deciding Algorithm 3 once per twin class.
    ///
    /// Twins are devices whose slices share one enumerated family (the
    /// same `N[j]`, so the same window moves, `M(j)` and `W̄_k(j)`).
    /// Algorithm 3 reads a device only
    /// through those, through `D_k(j) = ∪ W̄_k(j)`, and through which
    /// neighbour motions contain it. So once no dense motion of a
    /// `D_k(j)` device contains some twins but not others — checked once
    /// per distinct motion — every twin's families, Theorem 5/6 verdict
    /// and `Cost` (`collections_tested = 0`) equal the first twin's, and
    /// are copied. A class that such a motion splits is decided device by
    /// device; that happens only at the `2r` boundary, where the
    /// enumeration's tolerance puts in one motion two devices that the
    /// exact neighbourhood test keeps apart. The Theorem 7 / Corollary 8
    /// search, when Algorithm 3 is inconclusive, runs per device.
    ///
    /// # Panics
    ///
    /// Panics if a device of `js` is not in the table.
    pub fn characterize_full_batch(&self, js: &[DeviceId]) -> Vec<Characterization> {
        let mut classes: BTreeMap<*const Family, Vec<usize>> = BTreeMap::new();
        for (i, &j) in js.iter().enumerate() {
            classes.entry(self.slice(j).twin_key()).or_default().push(i);
        }
        let mut verdicts: Vec<Option<Characterization>> = vec![None; js.len()];
        for members in classes.values() {
            let Some(&first) = members.first() else {
                continue;
            };
            let class: DeviceSet = members.iter().map(|&i| js[i]).collect();
            let (quick, families) = self.algorithm3(js[first]);
            let twins_agree = families
                .as_ref()
                .is_none_or(|families| !self.splits(families, &class));
            for &i in members {
                let j = js[i];
                verdicts[i] = Some(if twins_agree || i == first {
                    self.finish(j, quick, families.as_ref())
                } else {
                    let (quick, families) = self.algorithm3(j);
                    self.finish(j, quick, families.as_ref())
                });
            }
        }
        verdicts.into_iter().flatten().collect()
    }

    /// True when some dense motion of a member of `families.d_set`
    /// contains some but not all devices of `class`: Algorithm 3 could
    /// then tell them apart. Each distinct family is tested once.
    fn splits(&self, families: &Families, class: &DeviceSet) -> bool {
        if class.len() < 2 {
            return false;
        }
        let mut seen: BTreeSet<*const Family> = BTreeSet::new();
        families.d_set.iter().any(|member| {
            self.try_slice(member).is_some_and(|slice| {
                seen.insert(slice.twin_key())
                    && slice.family.dense().any(|m| {
                        let shared = m.intersection_len(class);
                        shared != 0 && shared != class.len()
                    })
            })
        })
    }

    /// Completes Algorithm 3's verdict for `j`: an inconclusive one on
    /// complete data goes on to the Theorem 7 search, any other stands.
    fn finish(
        &self,
        j: DeviceId,
        quick: Characterization,
        families: Option<&Families>,
    ) -> Characterization {
        // Overflowed neighbourhoods stay conservatively unresolved; the
        // NSC cannot run on incomplete motion families.
        let Some(families) = families else {
            return quick;
        };
        if quick.rule != Rule::Algorithm3 || self.consults_overflow(families) {
            return quick;
        }
        let (massive, tested) = self.nsc_massive(j, families);
        let mut cost = quick.cost;
        cost.collections_tested = tested;
        if massive {
            Characterization {
                class: AnomalyClass::Massive,
                rule: Rule::Theorem7,
                cost,
            }
        } else {
            Characterization {
                class: AnomalyClass::Unresolved,
                rule: Rule::Corollary8,
                cost,
            }
        }
    }

    /// Characterizes every device with the fast path (Algorithm 3).
    pub fn classify_all(&self) -> Vec<(DeviceId, Characterization)> {
        self.table
            .ids()
            .iter()
            .map(|&j| (j, self.characterize(j)))
            .collect()
    }

    /// Characterizes every device exactly (with the Theorem 7 NSC).
    pub fn classify_all_full(&self) -> Vec<(DeviceId, Characterization)> {
        let ids = self.table.ids();
        ids.iter()
            .copied()
            .zip(self.characterize_full_batch(ids))
            .collect()
    }

    /// Theorem 7 search: returns `(j ∈ M_k, collections tested)`.
    ///
    /// The candidate pool is `{B ∈ W_k(ℓ) | ℓ ∈ L_k(j), j ∉ B}` — **all**
    /// τ-dense motions of the escape devices, not only maximal ones: a
    /// non-maximal sub-motion can be pairwise disjoint from another block
    /// where its maximal extension is not, and such shrunken blocks are
    /// exactly how a valid partition keeps `j` sparse. Every such `B` is a
    /// dense subset of some `M' ∈ W̄_k(ℓ)`; when `j ∈ M'`, `B ∪ {j} ⊆ M'`
    /// is consistent, so relation (5) holds and `B` can never witness a
    /// violation — those are pruned, and relation (5) holds for no
    /// collection of the remaining pool. The search enumerates every
    /// collection `C` of pairwise-disjoint pool sets (including the empty
    /// one) and checks relation (4) alone: some `A ∈ W_k(j)` avoids `∪C` —
    /// by subset-closure of consistency this holds iff `|M \ ∪C| > τ` for
    /// some `M ∈ W̄_k(j)` (then `A = M \ ∪C` is a dense motion containing
    /// `j`).
    ///
    /// `j ∈ M_k` iff every collection satisfies (4) or (5); the first
    /// violating collection is a Corollary 8 witness for `j ∈ U_k` and stops
    /// the search. When the pool or the collection count exceeds the
    /// budget, the verdict degrades conservatively to "not provably
    /// massive" (unresolved).
    fn nsc_massive(&self, j: DeviceId, families: &Families) -> (bool, u64) {
        // Deduplicated base motions: maximal dense motions of the escape
        // devices, avoiding j.
        let mut bases: Vec<DeviceSet> = Vec::new();
        for member in &families.l_set {
            for motion in self.wbar_of(member) {
                if !motion.contains(j) && !bases.contains(motion) {
                    bases.push(motion.clone());
                }
            }
        }
        // Expand each base into its useful dense sub-motions.
        let tau = self.params.tau();
        let window = self.params.window();
        let mut pool: BTreeSet<DeviceSet> = BTreeSet::new();
        let mut overflow = false;
        for base in &bases {
            let ids: Vec<DeviceId> = base.iter().collect();
            if ids.len() > MAX_BASE_MOTION_FOR_SUBSETS {
                overflow = true;
                continue;
            }
            for mask in 1u32..(1 << ids.len()) {
                if (mask.count_ones() as usize) <= tau {
                    continue; // not dense
                }
                let candidate: DeviceSet = (0..ids.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| ids[i])
                    .collect();
                // Must contain an escape device and must not absorb j
                // (relation (5) would otherwise hold trivially).
                if candidate.is_disjoint(&families.l_set) {
                    continue;
                }
                if extends_consistently(self.table, &candidate, j, window) {
                    continue;
                }
                pool.insert(candidate);
                if pool.len() as u64 > DEFAULT_COLLECTION_BUDGET {
                    overflow = true;
                    break;
                }
            }
        }
        let pool: Vec<DeviceSet> = pool.into_iter().collect();
        let mut tested = 0u64;
        let mut chosen: Vec<usize> = Vec::new();
        let outcome = self.search_collections(families, &pool, 0, &mut chosen, &mut tested);
        // Budget/size overflow means the violation search was incomplete:
        // conservatively not provably massive.
        let massive = outcome == SearchOutcome::Exhausted && !overflow;
        (massive, tested)
    }

    /// Depth-first enumeration of disjoint collections.
    fn search_collections(
        &self,
        families: &Families,
        pool: &[DeviceSet],
        start: usize,
        chosen: &mut Vec<usize>,
        tested: &mut u64,
    ) -> SearchOutcome {
        *tested += 1;
        if *tested > DEFAULT_COLLECTION_BUDGET {
            return SearchOutcome::BudgetSpent;
        }
        if self.collection_violates(families, pool, chosen) {
            return SearchOutcome::Violated;
        }
        for i in start..pool.len() {
            if chosen.iter().all(|&c| pool[c].is_disjoint(&pool[i])) {
                chosen.push(i);
                let sub = self.search_collections(families, pool, i + 1, chosen, tested);
                chosen.pop();
                if sub != SearchOutcome::Exhausted {
                    return sub;
                }
            }
        }
        SearchOutcome::Exhausted
    }

    /// True when the collection satisfies **neither** relation (4) nor (5).
    /// Relation (5) holds for no collection of the pool
    /// ([`Analyzer::nsc_massive`] drops every set that extends `j`
    /// consistently), so only relation (4) is tested.
    fn collection_violates(
        &self,
        families: &Families,
        pool: &[DeviceSet],
        chosen: &[usize],
    ) -> bool {
        let tau = self.params.tau();
        // Relation (4): some maximal dense motion of j survives the removal
        // of the chosen sets with more than τ members.
        for m in &families.dense {
            let mut survivors = m.len();
            for &c in chosen {
                survivors -= m.intersection_len(&pool[c]);
            }
            if survivors > tau {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(tau: usize) -> Params {
        Params::new(0.05, tau).unwrap()
    }

    /// Five co-movers and a loner (window 0.1).
    fn simple_table() -> TrajectoryTable {
        TrajectoryTable::from_pairs_1d(&[
            (0, 0.10, 0.50),
            (1, 0.11, 0.51),
            (2, 0.12, 0.52),
            (3, 0.13, 0.53),
            (4, 0.14, 0.54),
            (5, 0.80, 0.20),
        ])
    }

    #[test]
    fn loner_is_isolated_by_theorem_5() {
        let t = simple_table();
        let a = Analyzer::new(&t, params(3));
        let c = a.characterize(DeviceId(5));
        assert_eq!(c.class(), AnomalyClass::Isolated);
        assert_eq!(c.rule(), Rule::Theorem5);
        assert_eq!(c.cost().maximal_motions, 1);
        assert_eq!(c.cost().dense_motions, 0);
    }

    #[test]
    fn group_is_massive_by_theorem_6() {
        let t = simple_table();
        let a = Analyzer::new(&t, params(3));
        for id in 0..5 {
            let c = a.characterize(DeviceId(id));
            assert_eq!(c.class(), AnomalyClass::Massive, "device {id}");
            assert_eq!(c.rule(), Rule::Theorem6);
        }
    }

    #[test]
    fn full_agrees_with_quick_on_clear_cases() {
        let t = simple_table();
        let a = Analyzer::new(&t, params(3));
        for &j in t.ids() {
            assert_eq!(a.characterize(j).class(), a.characterize_full(j).class());
        }
    }

    #[test]
    fn sparse_group_is_isolated() {
        // Three co-movers with τ = 3: the motion is sparse.
        let t =
            TrajectoryTable::from_pairs_1d(&[(0, 0.10, 0.50), (1, 0.11, 0.51), (2, 0.12, 0.52)]);
        let a = Analyzer::new(&t, params(3));
        for &j in t.ids() {
            assert_eq!(a.characterize(j).class(), AnomalyClass::Isolated);
        }
    }

    #[test]
    fn figure_3_shape_is_unresolved_at_the_edges() {
        // Five devices, maximal motions {1,2,3,4} and {2,3,4,5}, τ = 3:
        // devices 1 and 5 are unresolved, 2–4 massive (see figures.rs for
        // the full treatment).
        let t = TrajectoryTable::from_pairs_1d(&[
            (1, 0.10, 0.10),
            (2, 0.14, 0.14),
            (3, 0.16, 0.16),
            (4, 0.18, 0.18),
            (5, 0.22, 0.22),
        ]);
        let a = Analyzer::new(&t, params(3));
        let c1 = a.characterize_full(DeviceId(1));
        assert_eq!(c1.class(), AnomalyClass::Unresolved);
        assert_eq!(c1.rule(), Rule::Corollary8);
        assert!(c1.cost().collections_tested >= 1);
        let c3 = a.characterize_full(DeviceId(3));
        assert_eq!(c3.class(), AnomalyClass::Massive);
    }

    #[test]
    fn classify_all_reports_every_device() {
        let t = simple_table();
        let a = Analyzer::new(&t, params(3));
        assert_eq!(a.classify_all().len(), 6);
        assert_eq!(a.classify_all_full().len(), 6);
    }

    #[test]
    fn display_impls() {
        assert_eq!(AnomalyClass::Massive.to_string(), "massive");
        assert_eq!(Rule::Corollary8.to_string(), "Corollary 8");
    }

    #[test]
    fn enumeration_overflow_degrades_to_unresolved() {
        // A starving budget: everything overflows, nothing stalls, and
        // every verdict is the conservative Unresolved.
        let t = simple_table();
        let a = Analyzer::with_enumeration_budget(&t, params(3), 1);
        assert_eq!(a.overflowed_devices().count(), t.len());
        for &j in t.ids() {
            let quick = a.characterize(j);
            assert_eq!(quick.class(), AnomalyClass::Unresolved);
            assert_eq!(quick.rule(), Rule::Algorithm3);
            let full = a.characterize_full(j);
            assert_eq!(full.class(), AnomalyClass::Unresolved);
        }
    }

    #[test]
    fn generous_budget_matches_unbounded() {
        let t = simple_table();
        let bounded = Analyzer::with_enumeration_budget(&t, params(3), 1_000_000);
        let unbounded = Analyzer::new(&t, params(3));
        assert_eq!(bounded.overflowed_devices().count(), 0);
        for &j in t.ids() {
            assert_eq!(
                bounded.characterize_full(j).class(),
                unbounded.characterize_full(j).class()
            );
        }
    }

    #[test]
    fn from_parts_matches_sequential_construction_in_any_order() {
        let t = simple_table();
        let sequential = Analyzer::new(&t, params(3));
        // Parts delivered out of order.
        let mut parts: Vec<(DeviceId, DevicePrecompute)> = t
            .ids()
            .iter()
            .map(|&j| {
                (
                    j,
                    Analyzer::precompute_device(&t, &params(3), j, DEFAULT_ENUMERATION_BUDGET),
                )
            })
            .collect();
        parts.reverse();
        let merged = Analyzer::from_parts(&t, params(3), parts);
        for &j in t.ids() {
            assert_eq!(sequential.characterize_full(j), merged.characterize_full(j));
        }
        assert_eq!(
            sequential.overflowed_devices().count(),
            merged.overflowed_devices().count()
        );
    }

    #[test]
    #[should_panic(expected = "cover every device")]
    fn from_parts_rejects_incomplete_coverage() {
        let t = simple_table();
        let one = Analyzer::precompute_device(&t, &params(3), DeviceId(0), 1_000);
        let _ = Analyzer::from_parts(&t, params(3), vec![(DeviceId(0), one)]);
    }

    #[test]
    #[should_panic(expected = "duplicate part")]
    fn from_parts_rejects_duplicate_parts() {
        let t = simple_table();
        let one = Analyzer::precompute_device(&t, &params(3), DeviceId(0), 1_000);
        let _ = Analyzer::from_parts(
            &t,
            params(3),
            vec![(DeviceId(0), one.clone()), (DeviceId(0), one)],
        );
    }

    #[test]
    fn precompute_device_reports_overflow() {
        let t = simple_table();
        let part = Analyzer::precompute_device(&t, &params(3), DeviceId(0), 1);
        assert!(part.overflowed());
    }

    /// Two spatially disjoint co-moving groups and a loner.
    fn two_group_table() -> TrajectoryTable {
        TrajectoryTable::from_pairs_1d(&[
            (0, 0.10, 0.50),
            (1, 0.11, 0.51),
            (2, 0.12, 0.52),
            (3, 0.13, 0.53),
            (10, 0.70, 0.10),
            (11, 0.71, 0.11),
            (12, 0.72, 0.12),
            (13, 0.73, 0.13),
            (20, 0.40, 0.90),
        ])
    }

    #[test]
    fn disjoint_groups_get_distinct_components_numbered_by_smallest_id() {
        let t = two_group_table();
        let a = Analyzer::new(&t, params(3));
        let p = a.component_partition();
        assert_eq!(p.count(), 2);
        for id in [0, 1, 2, 3] {
            assert_eq!(p.component_of(DeviceId(id)), Some(0), "device {id}");
        }
        for id in [10, 11, 12, 13] {
            assert_eq!(p.component_of(DeviceId(id)), Some(1), "device {id}");
        }
        // The loner has no dense motion, hence no component.
        assert_eq!(p.component_of(DeviceId(20)), None);
        assert_eq!(p.iter().count(), 8);
    }

    #[test]
    fn overlapping_dense_motions_merge_into_one_component() {
        // Figure-3 shape: {1,2,3,4} and {2,3,4,5} overlap, so all five
        // devices share one component.
        let t = TrajectoryTable::from_pairs_1d(&[
            (1, 0.10, 0.10),
            (2, 0.14, 0.14),
            (3, 0.16, 0.16),
            (4, 0.18, 0.18),
            (5, 0.22, 0.22),
        ]);
        let a = Analyzer::new(&t, params(3));
        let p = a.component_partition();
        assert_eq!(p.count(), 1);
        for id in 1..=5 {
            assert_eq!(p.component_of(DeviceId(id)), Some(0), "device {id}");
        }
    }

    #[test]
    fn component_partition_is_independent_of_part_order() {
        let t = two_group_table();
        let sequential = Analyzer::new(&t, params(3)).component_partition();
        let mut parts: Vec<(DeviceId, DevicePrecompute)> = t
            .ids()
            .iter()
            .map(|&j| {
                (
                    j,
                    Analyzer::precompute_device(&t, &params(3), j, DEFAULT_ENUMERATION_BUDGET),
                )
            })
            .collect();
        parts.reverse();
        let from_slices = ComponentPartition::from_slices(parts.iter().map(|(_, part)| part));
        assert_eq!(sequential, from_slices);
        let merged = Analyzer::from_parts(&t, params(3), parts).component_partition();
        assert_eq!(sequential, merged);
    }

    /// The reference partition kernel: a union-find over a `BTreeMap`
    /// parent map, unioning each set with its part's device. Returns every
    /// `(device, rank)` in ascending device order and the component count.
    fn oracle_partition(parts: &[(DeviceId, Vec<DeviceSet>)]) -> (Vec<(DeviceId, u32)>, usize) {
        let mut parent: BTreeMap<DeviceId, DeviceId> = BTreeMap::new();
        fn find(parent: &mut BTreeMap<DeviceId, DeviceId>, mut x: DeviceId) -> DeviceId {
            loop {
                let p = parent[&x];
                if p == x {
                    return x;
                }
                let gp = parent[&p];
                parent.insert(x, gp);
                x = gp;
            }
        }
        for (j, sets) in parts {
            for set in sets {
                let mut anchor: Option<DeviceId> = None;
                for member in set.iter().chain(std::iter::once(*j)) {
                    parent.entry(member).or_insert(member);
                    match anchor {
                        None => anchor = Some(member),
                        Some(a) => {
                            let ra = find(&mut parent, a);
                            let rb = find(&mut parent, member);
                            if ra != rb {
                                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                                parent.insert(hi, lo);
                            }
                        }
                    }
                }
            }
        }
        let devices: Vec<DeviceId> = parent.keys().copied().collect();
        let mut rank_of_root: BTreeMap<DeviceId, u32> = BTreeMap::new();
        let mut component = Vec::new();
        let mut count = 0u32;
        for j in devices {
            let root = find(&mut parent, j);
            let rank = *rank_of_root.entry(root).or_insert_with(|| {
                count += 1;
                count - 1
            });
            component.push((j, rank));
        }
        (component, count as usize)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The distinct-family kernel agrees with the reference on random
        /// dense-set families, whatever order the slices arrive in, whether
        /// the members of a group share one `Arc` or each hold a copy of
        /// their own. As in a precompute group, every motion of a family
        /// holds all of the group's members.
        #[test]
        fn partition_kernel_matches_the_reference(
            groups in proptest::collection::vec(
                (proptest::collection::vec(0u32..48, 1..4),
                 proptest::collection::vec(proptest::collection::vec(0u32..48, 0..7), 0..4)),
                0..12),
            rotate in 0usize..24,
            reverse in 0u8..2,
            share in 0u8..2,
        ) {
            let mut parts: Vec<(DeviceId, Vec<DeviceSet>)> = Vec::new();
            let mut slices: Vec<DevicePrecompute> = Vec::new();
            for (members, sets) in groups {
                let motions: Vec<DeviceSet> = sets
                    .into_iter()
                    .map(|set| set.into_iter().chain(members.iter().copied()).map(DeviceId).collect())
                    .collect();
                let family = Arc::new(dense_family(motions.clone()));
                for &j in &members {
                    parts.push((DeviceId(j), motions.clone()));
                    let family = if share == 1 {
                        Arc::clone(&family)
                    } else {
                        Arc::new(dense_family(motions.clone()))
                    };
                    slices.push(DevicePrecompute { family });
                }
            }
            let expected = oracle_partition(&parts);
            if !slices.is_empty() {
                let by = rotate % slices.len();
                slices.rotate_left(by);
            }
            if reverse == 1 {
                slices.reverse();
            }
            let p = ComponentPartition::from_slices(&slices);
            let got: Vec<(DeviceId, u32)> = p.iter().collect();
            proptest::prop_assert_eq!(&got, &expected.0);
            proptest::prop_assert_eq!(p.count(), expected.1);
            for &(j, c) in &expected.0 {
                proptest::prop_assert_eq!(p.component_of(j), Some(c));
            }
        }
    }

    /// A family whose motions are all dense.
    fn dense_family(motions: Vec<DeviceSet>) -> Family {
        Family {
            dense: (0..motions.len()).collect(),
            motions,
            window_moves: 0,
            overflowed: false,
        }
    }

    #[test]
    fn empty_partition_reports_empty() {
        let p = ComponentPartition::from_slices(&[]);
        assert!(p.is_empty());
        assert_eq!(p.count(), 0);
        assert_eq!(p.component_of(DeviceId(0)), None);
    }

    /// A slice spelled out: `M(j)`, `W̄_k(j)`, window moves, overflow.
    #[derive(Debug, PartialEq)]
    struct Slice {
        motions: Vec<DeviceSet>,
        dense: Vec<DeviceSet>,
        window_moves: u64,
        overflowed: bool,
    }

    impl Slice {
        fn of(part: &DevicePrecompute) -> Slice {
            Slice {
                motions: part.motions().cloned().collect(),
                dense: part.dense().cloned().collect(),
                window_moves: part.family.window_moves,
                overflowed: part.overflowed(),
            }
        }
    }

    /// The per-device reference for [`Analyzer::precompute_shard`]:
    /// Algorithm 2 over `j`'s own closed neighbourhood, with fresh
    /// counters.
    fn reference_slice(t: &TrajectoryTable, p: &Params, j: DeviceId, budget: u64) -> Slice {
        let mut ops = MotionOps::default();
        let motions =
            crate::maximal::maximal_motions_involving_bounded(t, j, p.window(), &mut ops, budget);
        let overflowed = motions.is_none();
        let motions = motions.unwrap_or_default();
        let dense = motions
            .iter()
            .filter(|s| p.is_dense(s.len()))
            .cloned()
            .collect();
        Slice {
            motions,
            dense,
            window_moves: ops.window_moves,
            overflowed,
        }
    }

    fn assert_same_slice(got: &DevicePrecompute, want: &Slice, what: &str) {
        assert_eq!(&Slice::of(got), want, "{what}");
    }

    /// Deterministic Fisher–Yates shuffle driven by `seed`.
    fn shuffled(mut ids: Vec<DeviceId>, seed: u64) -> Vec<DeviceId> {
        let mut state = seed | 1;
        for i in (1..ids.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ids.swap(i, (state >> 33) as usize % (i + 1));
        }
        ids
    }

    /// A table of `d`-service devices around a few anchors: `kind` 0 sits
    /// exactly on its anchor (identical points), 1 on a grid-aligned
    /// offset, 2 anywhere within one window of it.
    fn clustered_table(
        dim: usize,
        anchors: &[f64],
        rows: &[(u8, u8, f64, f64)],
    ) -> TrajectoryTable {
        let rows = rows
            .iter()
            .enumerate()
            .map(|(i, &(anchor, kind, b, a))| {
                let base = anchors[anchor as usize % anchors.len()];
                let (db, da) = match kind {
                    0 => (0.0, 0.0),
                    1 => ((b * 10.0).round() / 100.0, (a * 10.0).round() / 100.0),
                    _ => (b, a),
                };
                let mut row = vec![base + db; dim];
                row.extend(std::iter::repeat_n(base + da, dim));
                (DeviceId(i as u32), row)
            })
            .collect();
        TrajectoryTable::from_concatenated(dim, rows)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Grouping by closed neighbourhood is invisible: every slice of a
        /// shard equals its per-device enumeration, under budgets that
        /// starve, truncate some groups, or leave every group whole, and
        /// whatever order the shard lists its devices in.
        #[test]
        fn precompute_shard_matches_the_per_device_reference(
            rows in proptest::collection::vec(
                (0u8..4, 0u8..3, 0.0..0.1f64, 0.0..0.1f64), 1..36),
            dim in 1usize..3,
            tau in 1usize..6,
            shuffle in 0u64..u64::MAX,
        ) {
            let t = clustered_table(dim, &[0.10, 0.35, 0.60, 0.85], &rows);
            let p = Params::new(0.05, tau).unwrap();
            let shard = shuffled(t.ids().to_vec(), shuffle);
            for budget in [1, 10, 1_000, DEFAULT_ENUMERATION_BUDGET] {
                let got = Analyzer::precompute_shard(&t, &p, &shard, budget);
                let ids: Vec<DeviceId> = got.iter().map(|(j, _)| *j).collect();
                proptest::prop_assert_eq!(&ids, &shard);
                for (j, slice) in &got {
                    let want = reference_slice(&t, &p, *j, budget);
                    assert_same_slice(slice, &want, &format!("device {j}, budget {budget}"));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Deciding twins once is invisible: every batch verdict equals the
        /// device's own Algorithm 3 + Theorem 7 path and its one-device
        /// batch, `Cost` included. Anchors half a window apart make the
        /// clusters overlap, so many precompute groups hold motions with
        /// equal ids (the family must be part of the twin key), neighbours
        /// escape into other clusters (Theorem 7 runs), and gaps of
        /// exactly one window put devices in a neighbour's motion but not
        /// in its closed neighbourhood. Queries come shuffled, some twice,
        /// under a budget that truncates some enumerations and one that
        /// truncates none.
        #[test]
        fn batch_verdicts_match_the_per_device_path(
            rows in proptest::collection::vec(
                (0u8..4, 0u8..3, 0.0..0.1f64, 0.0..0.1f64), 1..16),
            dim in 1usize..3,
            tau in 1usize..5,
            shuffle in 0u64..u64::MAX,
            repeats in 0usize..4,
        ) {
            let t = clustered_table(dim, &[0.10, 0.15, 0.20, 0.30], &rows);
            let p = Params::new(0.05, tau).unwrap();
            let mut js = shuffled(t.ids().to_vec(), shuffle);
            js.extend_from_within(..repeats.min(js.len()));
            for budget in [60, DEFAULT_ENUMERATION_BUDGET] {
                let a = Analyzer::with_enumeration_budget(&t, p, budget);
                let got = a.characterize_full_batch(&js);
                proptest::prop_assert_eq!(got.len(), js.len());
                for (&j, verdict) in js.iter().zip(&got) {
                    let (quick, families) = a.algorithm3(j);
                    let alone = a.finish(j, quick, families.as_ref());
                    proptest::prop_assert_eq!(verdict, &alone, "device {} budget {}", j, budget);
                    proptest::prop_assert_eq!(verdict, &a.characterize_full(j));
                }
            }
        }
    }

    /// Sixty co-located devices share one closed neighbourhood; a budget
    /// between one enumeration's need and the pile-up's total truncates
    /// none of them, and a starving one truncates all of them alike.
    #[test]
    fn a_pile_up_shares_one_enumeration_and_its_budget() {
        let rows: Vec<(u32, f64, f64)> = (0..60)
            .map(|i| (i, 0.30, 0.70))
            .chain([(60, 0.31, 0.71), (61, 0.90, 0.10)])
            .collect();
        let t = TrajectoryTable::from_pairs_1d(&rows);
        let p = params(3);
        let one = reference_slice(&t, &p, DeviceId(0), DEFAULT_ENUMERATION_BUDGET);
        assert!(!one.overflowed);
        for budget in [one.window_moves, one.window_moves - 1] {
            let got = Analyzer::precompute_shard(&t, &p, t.ids(), budget);
            assert_eq!(got.len(), t.len());
            for (j, slice) in &got {
                let want = reference_slice(&t, &p, *j, budget);
                assert_same_slice(slice, &want, &format!("device {j}, budget {budget}"));
            }
            let overflowed = got.iter().filter(|(_, s)| s.overflowed()).count();
            assert!(
                overflowed == 0 || overflowed >= 60,
                "{overflowed} at {budget}"
            );
        }
        assert_same_slice(
            &Analyzer::precompute_device(&t, &p, DeviceId(61), 1_000),
            &reference_slice(&t, &p, DeviceId(61), 1_000),
            "the loner",
        );
    }

    #[test]
    fn bounded_enumeration_signals_truncation() {
        use crate::maximal::{maximal_motions_bounded, MotionOps};
        let t = simple_table();
        let mut ops = MotionOps::default();
        let out = maximal_motions_bounded(&t, &t.device_set(), 0.1, &mut ops, 1);
        assert!(out.is_none());
        assert!(ops.truncated);
    }
}
