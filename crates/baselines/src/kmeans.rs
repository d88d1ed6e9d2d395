use crate::Classifier;
use anomaly_core::AnomalyClass;
use anomaly_qos::{DeviceId, StatePair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Centralized k-means classifier (reference \[15\] of the paper).
///
/// A management node collects every abnormal trajectory (as a point in the
/// concatenated `2d`-space), clusters them with Lloyd's algorithm seeded by
/// k-means++-style initialization, and declares a cluster massive when it
/// exceeds `τ`. This models the centralized clustering step the paper's
/// related work relies on and whose scalability it criticizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeansClassifier {
    k: usize,
    tau: usize,
    max_iterations: usize,
    seed: u64,
}

impl KMeansClassifier {
    /// Creates a classifier that clusters into `k` groups with density
    /// threshold `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `tau == 0`.
    pub fn new(k: usize, tau: usize, seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(tau > 0, "density threshold must be positive");
        KMeansClassifier {
            k,
            tau,
            max_iterations: 50,
            seed,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Runs Lloyd's algorithm, returning the assignment of each point.
    fn cluster(&self, points: &[Vec<f64>]) -> Vec<usize> {
        let n = points.len();
        let k = self.k.min(n);
        if k == 0 {
            return Vec::new();
        }
        let dim = points[0].len();
        let mut rng = StdRng::seed_from_u64(self.seed);

        // k-means++ style seeding: first centroid uniform, then farthest-
        // biased choices (squared-distance weighting).
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(points[rng.gen_range(0..n)].clone());
        while centroids.len() < k {
            let d2: Vec<f64> = points
                .iter()
                .map(|p| {
                    centroids
                        .iter()
                        .map(|c| sq_dist(p, c))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            let total: f64 = d2.iter().sum();
            let chosen = if total <= 0.0 {
                rng.gen_range(0..n)
            } else {
                let mut target = rng.gen::<f64>() * total;
                let mut idx = n - 1;
                for (i, &w) in d2.iter().enumerate() {
                    if target < w {
                        idx = i;
                        break;
                    }
                    target -= w;
                }
                idx
            };
            centroids.push(points[chosen].clone());
        }

        let mut assignment = vec![0usize; n];
        for _ in 0..self.max_iterations {
            // Assign.
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let best = (0..k)
                    .min_by(|&a, &b| {
                        sq_dist(p, &centroids[a]).total_cmp(&sq_dist(p, &centroids[b]))
                    })
                    .unwrap_or_else(|| unreachable!("k >= 1"));
                if assignment[i] != best {
                    assignment[i] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            // Update.
            let mut sums = vec![vec![0.0; dim]; k];
            let mut counts = vec![0usize; k];
            for (i, p) in points.iter().enumerate() {
                counts[assignment[i]] += 1;
                for (s, &c) in sums[assignment[i]].iter_mut().zip(p) {
                    *s += c;
                }
            }
            for (c, (sum, count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if *count > 0 {
                    *c = sum.iter().map(|s| s / *count as f64).collect();
                }
            }
        }
        assignment
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl Classifier for KMeansClassifier {
    fn classify(&self, pair: &StatePair, abnormal: &[DeviceId]) -> Vec<(DeviceId, AnomalyClass)> {
        let points: Vec<Vec<f64>> = abnormal
            .iter()
            .map(|&id| {
                let mut v = pair.before().position(id).to_vec();
                v.extend_from_slice(pair.after().position(id));
                v
            })
            .collect();
        let assignment = self.cluster(&points);
        let k = self.k.min(points.len());
        let mut sizes = vec![0usize; k.max(1)];
        for &a in &assignment {
            sizes[a] += 1;
        }
        abnormal
            .iter()
            .zip(&assignment)
            .map(|(&id, &a)| {
                let class = if sizes[a] > self.tau {
                    AnomalyClass::Massive
                } else {
                    AnomalyClass::Isolated
                };
                (id, class)
            })
            .collect()
    }

    fn name(&self) -> String {
        format!("k-means(k={})", self.k)
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
    fn well_separated_groups_are_found() {
        // A tight group of 5 and a loner, k = 2, τ = 3.
        let before: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![0.10 + i as f64 * 0.01])
            .chain([vec![0.9]])
            .collect();
        let after: Vec<Vec<f64>> = (0..5)
            .map(|i| vec![0.60 + i as f64 * 0.01])
            .chain([vec![0.2]])
            .collect();
        let p = pair(before, after);
        let ids: Vec<DeviceId> = (0..6).map(DeviceId).collect();
        let c = KMeansClassifier::new(2, 3, 7);
        let classes = c.classify(&p, &ids);
        for (id, class) in &classes[..5] {
            assert_eq!(*class, AnomalyClass::Massive, "device {id}");
        }
        assert_eq!(classes[5].1, AnomalyClass::Isolated);
    }

    #[test]
    fn wrong_k_merges_unrelated_devices() {
        // Four scattered isolated devices with k = 1: one big cluster,
        // everything misreported massive — the baseline's failure mode.
        let p = pair(
            vec![vec![0.1], vec![0.35], vec![0.6], vec![0.85]],
            vec![vec![0.9], vec![0.6], vec![0.3], vec![0.1]],
        );
        let ids: Vec<DeviceId> = (0..4).map(DeviceId).collect();
        let c = KMeansClassifier::new(1, 3, 7);
        for (_, class) in c.classify(&p, &ids) {
            assert_eq!(class, AnomalyClass::Massive);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let p = pair(
            (0..8).map(|i| vec![0.1 * i as f64]).collect(),
            (0..8).map(|i| vec![0.1 * i as f64]).collect(),
        );
        let ids: Vec<DeviceId> = (0..8).map(DeviceId).collect();
        let c = KMeansClassifier::new(3, 2, 11);
        assert_eq!(c.classify(&p, &ids), c.classify(&p, &ids));
    }

    #[test]
    fn handles_fewer_points_than_k() {
        let p = pair(vec![vec![0.5]], vec![vec![0.6]]);
        let c = KMeansClassifier::new(5, 3, 1);
        let classes = c.classify(&p, &[DeviceId(0)]);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].1, AnomalyClass::Isolated);
    }

    #[test]
    fn handles_empty_input() {
        let p = pair(vec![vec![0.5]], vec![vec![0.6]]);
        let c = KMeansClassifier::new(2, 3, 1);
        assert!(c.classify(&p, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn rejects_zero_k() {
        KMeansClassifier::new(0, 3, 1);
    }
}
