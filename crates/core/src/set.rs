use anomaly_qos::DeviceId;
use std::fmt;

/// A set of devices, stored sorted and deduplicated.
///
/// The characterization algorithms manipulate many small sets (motions,
/// partition blocks, families) and constantly ask for membership, subset and
/// disjointness; a sorted `Vec` beats tree/hash sets at these sizes and
/// gives cheap structural equality and hashing for dedup.
///
/// # Example
///
/// ```
/// use anomaly_core::DeviceSet;
/// use anomaly_qos::DeviceId;
///
/// let a: DeviceSet = [3u32, 1, 2, 3].into_iter().map(DeviceId).collect();
/// let b: DeviceSet = [1u32, 2, 3, 4].into_iter().map(DeviceId).collect();
/// assert_eq!(a.len(), 3);          // deduplicated
/// assert!(a.is_subset(&b));
/// assert!(a.contains(DeviceId(2)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceSet {
    ids: Vec<DeviceId>,
}

impl DeviceSet {
    /// The empty set.
    pub fn new() -> Self {
        DeviceSet::default()
    }

    /// Singleton set.
    pub fn singleton(id: DeviceId) -> Self {
        DeviceSet { ids: vec![id] }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, id: DeviceId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Inserts a device, keeping order; returns `true` if newly added.
    pub fn insert(&mut self, id: DeviceId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                true
            }
        }
    }

    /// Removes a device; returns `true` if it was present.
    pub fn remove(&mut self, id: DeviceId) -> bool {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// True if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &DeviceSet) -> bool {
        if self.ids.len() > other.ids.len() {
            return false;
        }
        // Linear merge walk: both sides are sorted.
        let mut it = other.ids.iter();
        'outer: for id in &self.ids {
            for o in it.by_ref() {
                match o.cmp(id) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// True if the two sets share no element.
    pub fn is_disjoint(&self, other: &DeviceSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// Set union.
    pub fn union(&self, other: &DeviceSet) -> DeviceSet {
        let mut ids = Vec::with_capacity(self.ids.len() + other.ids.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    ids.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    ids.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    ids.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        ids.extend_from_slice(&self.ids[i..]);
        ids.extend_from_slice(&other.ids[j..]);
        DeviceSet { ids }
    }

    /// Set difference `self \ other`, by a linear merge walk.
    pub fn difference(&self, other: &DeviceSet) -> DeviceSet {
        let mut ids = Vec::with_capacity(self.ids.len());
        let mut rest = other.ids.iter().peekable();
        for &id in &self.ids {
            while rest.next_if(|&&o| o < id).is_some() {}
            if rest.peek() != Some(&&id) {
                ids.push(id);
            }
        }
        DeviceSet { ids }
    }

    /// Set intersection, by a linear merge walk.
    pub fn intersection(&self, other: &DeviceSet) -> DeviceSet {
        let mut ids = Vec::with_capacity(self.ids.len().min(other.ids.len()));
        let mut rest = other.ids.iter().peekable();
        for &id in &self.ids {
            while rest.next_if(|&&o| o < id).is_some() {}
            if rest.peek() == Some(&&id) {
                ids.push(id);
            }
        }
        DeviceSet { ids }
    }

    /// Number of elements shared with `other`.
    pub fn intersection_len(&self, other: &DeviceSet) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// With `id` added (returns a new set).
    pub fn with(&self, id: DeviceId) -> DeviceSet {
        let mut s = self.clone();
        s.insert(id);
        s
    }

    /// Iterates over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.ids.iter().copied()
    }

    /// Members as a sorted slice.
    pub fn as_slice(&self) -> &[DeviceId] {
        &self.ids
    }
}

impl FromIterator<DeviceId> for DeviceSet {
    fn from_iter<T: IntoIterator<Item = DeviceId>>(iter: T) -> Self {
        let mut ids: Vec<DeviceId> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        DeviceSet { ids }
    }
}

/// Appends every id, then sorts and deduplicates once: unioning `k`
/// overlapping sets of size `m` costs one sort, not `k·m` shifting inserts.
impl Extend<DeviceId> for DeviceSet {
    fn extend<T: IntoIterator<Item = DeviceId>>(&mut self, iter: T) {
        let sorted = self.ids.len();
        self.ids.extend(iter);
        if self.ids.len() > sorted {
            self.ids.sort_unstable();
            self.ids.dedup();
        }
    }
}

impl<'a> IntoIterator for &'a DeviceSet {
    type Item = DeviceId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, DeviceId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter().copied()
    }
}

impl fmt::Display for DeviceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.ids.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

/// Convenience constructor from raw `u32` ids (tests and examples).
impl From<&[u32]> for DeviceSet {
    fn from(ids: &[u32]) -> Self {
        ids.iter().copied().map(DeviceId).collect()
    }
}

impl<const N: usize> From<[u32; N]> for DeviceSet {
    fn from(ids: [u32; N]) -> Self {
        ids.into_iter().map(DeviceId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(ids: &[u32]) -> DeviceSet {
        DeviceSet::from(ids)
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = set(&[5, 1, 3, 1, 5]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().map(|d| d.0).collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn insert_and_remove() {
        let mut s = set(&[1, 3]);
        assert!(s.insert(DeviceId(2)));
        assert!(!s.insert(DeviceId(2)));
        assert_eq!(s.as_slice(), &[DeviceId(1), DeviceId(2), DeviceId(3)]);
        assert!(s.remove(DeviceId(1)));
        assert!(!s.remove(DeviceId(1)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn subset_and_disjoint() {
        assert!(set(&[1, 3]).is_subset(&set(&[1, 2, 3])));
        assert!(!set(&[1, 4]).is_subset(&set(&[1, 2, 3])));
        assert!(set(&[]).is_subset(&set(&[1])));
        assert!(set(&[1, 2]).is_disjoint(&set(&[3, 4])));
        assert!(!set(&[1, 2]).is_disjoint(&set(&[2, 3])));
        assert!(set(&[]).is_disjoint(&set(&[])));
    }

    #[test]
    fn algebra() {
        let a = set(&[1, 2, 3]);
        let b = set(&[3, 4]);
        assert_eq!(a.union(&b), set(&[1, 2, 3, 4]));
        assert_eq!(a.difference(&b), set(&[1, 2]));
        assert_eq!(a.intersection(&b), set(&[3]));
        assert_eq!(a.intersection_len(&b), 1);
        assert_eq!(a.with(DeviceId(9)), set(&[1, 2, 3, 9]));
    }

    #[test]
    fn display_is_braced_list() {
        assert_eq!(set(&[2, 1]).to_string(), "{d1, d2}");
        assert_eq!(set(&[]).to_string(), "{}");
    }

    proptest! {
        /// Subset agrees with the naive definition.
        #[test]
        fn subset_matches_naive(a in proptest::collection::vec(0u32..20, 0..10),
                                b in proptest::collection::vec(0u32..20, 0..10)) {
            let sa = DeviceSet::from(a.as_slice());
            let sb = DeviceSet::from(b.as_slice());
            let naive = sa.iter().all(|x| sb.contains(x));
            prop_assert_eq!(sa.is_subset(&sb), naive);
        }

        /// Disjoint agrees with empty intersection.
        #[test]
        fn disjoint_matches_intersection(a in proptest::collection::vec(0u32..20, 0..10),
                                          b in proptest::collection::vec(0u32..20, 0..10)) {
            let sa = DeviceSet::from(a.as_slice());
            let sb = DeviceSet::from(b.as_slice());
            prop_assert_eq!(sa.is_disjoint(&sb), sa.intersection(&sb).is_empty());
            prop_assert_eq!(sa.intersection_len(&sb), sa.intersection(&sb).len());
        }

        /// Union and difference partition correctly.
        #[test]
        fn union_difference_roundtrip(a in proptest::collection::vec(0u32..20, 0..10),
                                      b in proptest::collection::vec(0u32..20, 0..10)) {
            let sa = DeviceSet::from(a.as_slice());
            let sb = DeviceSet::from(b.as_slice());
            let u = sa.union(&sb);
            prop_assert!(sa.is_subset(&u) && sb.is_subset(&u));
            let d = u.difference(&sb);
            prop_assert!(d.is_disjoint(&sb));
            prop_assert!(d.is_subset(&sa));
        }

        /// The merge walks and the batched `Extend` agree with a
        /// `BTreeSet` reference, on sets that overlap often.
        #[test]
        fn algebra_matches_a_btreeset(a in proptest::collection::vec(0u32..24, 0..16),
                                      b in proptest::collection::vec(0u32..24, 0..16),
                                      c in proptest::collection::vec(0u32..24, 0..16)) {
            use std::collections::BTreeSet;
            let (sa, sb) = (DeviceSet::from(a.as_slice()), DeviceSet::from(b.as_slice()));
            let (ra, rb): (BTreeSet<u32>, BTreeSet<u32>) =
                (a.iter().copied().collect(), b.iter().copied().collect());
            let ids = |s: &DeviceSet| s.iter().map(|d| d.0).collect::<Vec<u32>>();
            prop_assert_eq!(ids(&sa.difference(&sb)), ra.difference(&rb).copied().collect::<Vec<u32>>());
            prop_assert_eq!(ids(&sa.intersection(&sb)), ra.intersection(&rb).copied().collect::<Vec<u32>>());
            prop_assert_eq!(ids(&sa.union(&sb)), ra.union(&rb).copied().collect::<Vec<u32>>());
            let mut grown = sa.clone();
            grown.extend(b.iter().copied().map(DeviceId));
            grown.extend(c.iter().copied().map(DeviceId));
            grown.extend(std::iter::empty());
            let mut want = ra.clone();
            want.extend(b.iter().copied());
            want.extend(c.iter().copied());
            prop_assert_eq!(ids(&grown), want.into_iter().collect::<Vec<u32>>());
        }
    }
}
