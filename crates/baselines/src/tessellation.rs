use crate::Classifier;
use anomaly_core::AnomalyClass;
use anomaly_qos::{DeviceId, StatePair};
use std::collections::BTreeMap;

/// FixMe-style fixed-tessellation classifier (reference \[1\] of the paper).
///
/// The unit QoS space is cut into `cells_per_axis^d` equal buckets. Each
/// abnormal device is keyed by the pair *(bucket before, bucket after)*; all
/// devices sharing a key are presumed to be one anomaly, massive when the
/// group exceeds `τ`.
///
/// The bucket width plays the role the consistency radius `r` plays in the
/// paper — but because buckets are anchored to a fixed grid, a tight group
/// straddling a bucket boundary is split (false isolated), while a large
/// bucket lumps unrelated devices together (false massive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TessellationClassifier {
    cells_per_axis: usize,
    tau: usize,
}

impl TessellationClassifier {
    /// Creates a classifier with `cells_per_axis` buckets per axis and
    /// density threshold `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `cells_per_axis == 0` or `tau == 0`.
    pub fn new(cells_per_axis: usize, tau: usize) -> Self {
        assert!(cells_per_axis > 0, "need at least one cell per axis");
        assert!(tau > 0, "density threshold must be positive");
        TessellationClassifier {
            cells_per_axis,
            tau,
        }
    }

    /// Buckets per axis.
    pub fn cells_per_axis(&self) -> usize {
        self.cells_per_axis
    }

    fn cell_key(&self, coords: &[f64]) -> Vec<usize> {
        coords
            .iter()
            .map(|&c| ((c * self.cells_per_axis as f64) as usize).min(self.cells_per_axis - 1))
            .collect()
    }
}

impl Classifier for TessellationClassifier {
    fn classify(&self, pair: &StatePair, abnormal: &[DeviceId]) -> Vec<(DeviceId, AnomalyClass)> {
        // Group by (cell at k-1, cell at k).
        let mut buckets: BTreeMap<(Vec<usize>, Vec<usize>), Vec<DeviceId>> = BTreeMap::new();
        for &id in abnormal {
            let key = (
                self.cell_key(pair.before().position(id)),
                self.cell_key(pair.after().position(id)),
            );
            buckets.entry(key).or_default().push(id);
        }
        let mut out: Vec<(DeviceId, AnomalyClass)> = Vec::with_capacity(abnormal.len());
        for (_, members) in buckets {
            let class = if members.len() > self.tau {
                AnomalyClass::Massive
            } else {
                AnomalyClass::Isolated
            };
            out.extend(members.into_iter().map(|id| (id, class)));
        }
        out.sort_by_key(|(id, _)| *id);
        out
    }

    fn name(&self) -> String {
        format!("tessellation({} cells/axis)", self.cells_per_axis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomaly_qos::{QosSpace, Snapshot};

    fn pair(rows_before: Vec<Vec<f64>>, rows_after: Vec<Vec<f64>>) -> StatePair {
        let space = QosSpace::new(rows_before[0].len()).unwrap();
        StatePair::new(
            Snapshot::from_rows(&space, rows_before).unwrap(),
            Snapshot::from_rows(&space, rows_after).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn group_in_one_bucket_is_massive() {
        // 5 devices inside one (coarse) bucket at both times; τ = 3.
        let p = pair(
            (0..5).map(|i| vec![0.10 + i as f64 * 0.01]).collect(),
            (0..5).map(|i| vec![0.60 + i as f64 * 0.01]).collect(),
        );
        let c = TessellationClassifier::new(4, 3);
        let ids: Vec<DeviceId> = (0..5).map(DeviceId).collect();
        for (_, class) in c.classify(&p, &ids) {
            assert_eq!(class, AnomalyClass::Massive);
        }
    }

    #[test]
    fn boundary_straddling_group_is_split_false_isolated() {
        // The same tight group, but placed across the 0.25 bucket boundary
        // of a 4-cell grid: the tessellation splits it and reports isolated.
        let p = pair(
            (0..5).map(|i| vec![0.23 + i as f64 * 0.01]).collect(),
            (0..5).map(|i| vec![0.73 + i as f64 * 0.01]).collect(),
        );
        let c = TessellationClassifier::new(4, 3);
        let ids: Vec<DeviceId> = (0..5).map(DeviceId).collect();
        let classes = c.classify(&p, &ids);
        assert!(
            classes.iter().all(|(_, cl)| *cl == AnomalyClass::Isolated),
            "a straddling group must be mis-split: {classes:?}"
        );
    }

    #[test]
    fn coarse_buckets_lump_unrelated_devices_false_massive() {
        // 4 genuinely isolated devices that happen to share the single
        // bucket of a 1-cell grid: all flagged massive.
        let p = pair(
            vec![vec![0.1], vec![0.3], vec![0.6], vec![0.9]],
            vec![vec![0.9], vec![0.7], vec![0.2], vec![0.4]],
        );
        let c = TessellationClassifier::new(1, 3);
        let ids: Vec<DeviceId> = (0..4).map(DeviceId).collect();
        for (_, class) in c.classify(&p, &ids) {
            assert_eq!(class, AnomalyClass::Massive);
        }
    }

    #[test]
    fn requires_same_bucket_at_both_times() {
        // Same bucket before, different buckets after: not grouped.
        let p = pair(
            vec![vec![0.10], vec![0.11], vec![0.12], vec![0.13]],
            vec![vec![0.1], vec![0.4], vec![0.6], vec![0.9]],
        );
        let c = TessellationClassifier::new(4, 3);
        let ids: Vec<DeviceId> = (0..4).map(DeviceId).collect();
        for (_, class) in c.classify(&p, &ids) {
            assert_eq!(class, AnomalyClass::Isolated);
        }
    }

    #[test]
    fn classification_is_invariant_under_input_permutation() {
        // Regression guard from the conformance C2 audit: grouping used to
        // iterate a HashMap — the only hash iteration anywhere in the
        // report path. The audit found no live bug (a device's class
        // depends only on its bucket's population, and the output is
        // id-sorted), but hash order reaching a loop is exactly how
        // determinism dies under refactoring; the BTreeMap grouping plus
        // this test pin it down. Classify the same abnormal set in several
        // input orders and require byte-identical results.
        let p = pair(
            vec![
                vec![0.10],
                vec![0.11],
                vec![0.12],
                vec![0.13],
                vec![0.60],
                vec![0.90],
            ],
            vec![
                vec![0.60],
                vec![0.61],
                vec![0.62],
                vec![0.63],
                vec![0.10],
                vec![0.40],
            ],
        );
        let c = TessellationClassifier::new(4, 3);
        let ids: Vec<DeviceId> = (0..6).map(DeviceId).collect();
        let baseline = c.classify(&p, &ids);
        assert!(baseline.iter().any(|&(_, cl)| cl == AnomalyClass::Massive));
        assert!(baseline.iter().any(|&(_, cl)| cl == AnomalyClass::Isolated));

        let mut reversed = ids.clone();
        reversed.reverse();
        assert_eq!(c.classify(&p, &reversed), baseline);

        let mut rotated = ids.clone();
        rotated.rotate_left(3);
        assert_eq!(c.classify(&p, &rotated), baseline);

        let interleaved: Vec<DeviceId> = [0u32, 5, 1, 4, 2, 3].map(DeviceId).to_vec();
        assert_eq!(c.classify(&p, &interleaved), baseline);
    }

    #[test]
    fn classification_is_stable_across_repeated_runs() {
        // Same process, repeated calls: the result must never depend on
        // allocation addresses or any other per-run state (the failure
        // mode randomized hashers introduce across *processes* shows up
        // here first when someone reintroduces per-call state).
        let p = pair(
            vec![vec![0.10], vec![0.11], vec![0.12], vec![0.13], vec![0.88]],
            vec![vec![0.60], vec![0.61], vec![0.62], vec![0.63], vec![0.22]],
        );
        let c = TessellationClassifier::new(4, 3);
        let ids: Vec<DeviceId> = (0..5).map(DeviceId).collect();
        let baseline = c.classify(&p, &ids);
        for _ in 0..10 {
            assert_eq!(c.classify(&p, &ids), baseline);
        }
    }

    #[test]
    fn name_mentions_resolution() {
        assert!(TessellationClassifier::new(8, 3).name().contains('8'));
    }

    #[test]
    #[should_panic(expected = "cell")]
    fn rejects_zero_cells() {
        TessellationClassifier::new(0, 3);
    }
}
