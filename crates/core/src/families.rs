//! The neighbourhood families of Section V: `W̄_k(j)`, `D_k(j)`, `J_k(j)`,
//! `L_k(j)`.
//!
//! For a device `j` with at least one τ-dense motion, the devices that share
//! dense motions with `j` (`D_k(j)`) split into
//!
//! * `J_k(j)` — devices **all** of whose maximal dense motions contain `j`
//!   (they cannot be "pulled away" from `j` by any anomaly partition), and
//! * `L_k(j)` — devices with at least one maximal dense motion avoiding `j`
//!   (a partition may group them elsewhere).
//!
//! Theorem 6 needs only this split; Theorem 7 additionally explores the
//! dense motions of the `L_k(j)` devices.

use crate::set::DeviceSet;
use anomaly_qos::DeviceId;

/// The families of Section V for one device `j`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Families {
    /// `W̄_k(j)`: maximal τ-dense motions containing `j`.
    pub dense: Vec<DeviceSet>,
    /// `D_k(j) = ∪ W̄_k(j)`: devices sharing a dense motion with `j`.
    pub d_set: DeviceSet,
    /// `J_k(j)`: members of `D_k(j)` whose every maximal dense motion
    /// contains `j` (includes `j` itself).
    pub j_set: DeviceSet,
    /// `L_k(j) = D_k(j) \ J_k(j)`.
    pub l_set: DeviceSet,
}

impl Families {
    /// Builds the families for `j` from `j`'s maximal dense motions and a
    /// lookup for the maximal dense motions of any neighbour.
    ///
    /// `dense_of(ℓ)` must yield `W̄_k(ℓ)`; it is only called for members of
    /// `D_k(j)`. When `W̄_k(j)` is empty (Theorem 5 applies) all families
    /// are empty.
    pub fn build<'a, D: IntoIterator<Item = &'a DeviceSet>>(
        j: DeviceId,
        wbar_j: impl IntoIterator<Item = &'a DeviceSet>,
        mut dense_of: impl FnMut(DeviceId) -> D,
    ) -> Families {
        let dense: Vec<DeviceSet> = wbar_j.into_iter().cloned().collect();
        let mut d_set = DeviceSet::new();
        d_set.extend(dense.iter().flat_map(DeviceSet::iter));
        let mut j_set = DeviceSet::new();
        let mut l_set = DeviceSet::new();
        for member in &d_set {
            if member == j {
                // j belongs to J_k(j) by definition.
                j_set.insert(member);
                continue;
            }
            let escapes = dense_of(member).into_iter().any(|m| !m.contains(j));
            if escapes {
                l_set.insert(member);
            } else {
                j_set.insert(member);
            }
        }
        Families {
            dense,
            d_set,
            j_set,
            l_set,
        }
    }

    /// True when `j` has no dense motion at all (Theorem 5 ⇒ isolated).
    pub fn is_isolated(&self) -> bool {
        self.dense.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn lookup<'m>(
        map: &'m HashMap<DeviceId, Vec<DeviceSet>>,
    ) -> impl FnMut(DeviceId) -> &'m [DeviceSet] + 'm {
        move |id| map.get(&id).map(|v| v.as_slice()).unwrap_or(&[])
    }

    #[test]
    fn empty_wbar_means_isolated() {
        let map = HashMap::new();
        let f = Families::build(DeviceId(0), &[], lookup(&map));
        assert!(f.is_isolated());
        assert!(f.d_set.is_empty());
        assert!(f.j_set.is_empty());
        assert!(f.l_set.is_empty());
    }

    #[test]
    fn figure_4a_all_in_j() {
        // W̄(4) = {{1,2,3,4},{2,4,5}}; every member's dense motions all
        // contain 4 -> J = D, L = ∅.
        let j = DeviceId(4);
        let c1 = DeviceSet::from([1, 2, 3, 4]);
        let c2 = DeviceSet::from([2, 4, 5]);
        let mut map: HashMap<DeviceId, Vec<DeviceSet>> = HashMap::new();
        map.insert(DeviceId(1), vec![c1.clone()]);
        map.insert(DeviceId(2), vec![c1.clone(), c2.clone()]);
        map.insert(DeviceId(3), vec![c1.clone()]);
        map.insert(DeviceId(5), vec![c2.clone()]);
        let f = Families::build(j, &[c1, c2], lookup(&map));
        assert_eq!(f.d_set, DeviceSet::from([1, 2, 3, 4, 5]));
        assert_eq!(f.j_set, DeviceSet::from([1, 2, 3, 4, 5]));
        assert!(f.l_set.is_empty());
    }

    #[test]
    fn figure_4b_device_5_escapes() {
        // Device 5 also belongs to C3 = {5,6,7} which avoids 4 -> 5 ∈ L(4).
        let j = DeviceId(4);
        let c1 = DeviceSet::from([1, 2, 3, 4]);
        let c2 = DeviceSet::from([2, 4, 5]);
        let c3 = DeviceSet::from([5, 6, 7]);
        let mut map: HashMap<DeviceId, Vec<DeviceSet>> = HashMap::new();
        map.insert(DeviceId(1), vec![c1.clone()]);
        map.insert(DeviceId(2), vec![c1.clone(), c2.clone()]);
        map.insert(DeviceId(3), vec![c1.clone()]);
        map.insert(DeviceId(5), vec![c2.clone(), c3.clone()]);
        let f = Families::build(j, &[c1, c2], lookup(&map));
        assert_eq!(f.j_set, DeviceSet::from([1, 2, 3, 4]));
        assert_eq!(f.l_set, DeviceSet::from([5]));
    }

    #[test]
    fn j_always_contains_itself() {
        let j = DeviceId(9);
        let c = DeviceSet::from([8, 9, 10, 11]);
        let mut map: HashMap<DeviceId, Vec<DeviceSet>> = HashMap::new();
        // Every other member escapes via a disjoint motion.
        for other in [8u32, 10, 11] {
            map.insert(
                DeviceId(other),
                vec![c.clone(), DeviceSet::from([other, 20, 21, 22])],
            );
        }
        let f = Families::build(j, &[c], lookup(&map));
        assert!(f.j_set.contains(j));
        assert_eq!(f.j_set.len(), 1);
        assert_eq!(f.l_set, DeviceSet::from([8, 10, 11]));
    }
}
