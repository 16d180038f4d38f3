//! Agglomerative clustering via the Lance–Williams update formula.
//!
//! All seven SciPy linkage methods are supported. As in SciPy, the
//! geometric methods (`centroid`, `median`, `ward`) apply the
//! Lance–Williams recurrence to **squared** dissimilarities and report
//! the square root, which makes our merge heights directly comparable
//! to `scipy.cluster.hierarchy.linkage` output.

use crate::dendrogram::{Dendrogram, Merge};
use crate::dist::CondensedMatrix;

/// Linkage method (SciPy names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Nearest neighbour.
    Single,
    /// Farthest neighbour.
    Complete,
    /// UPGMA.
    Average,
    /// WPGMA.
    Weighted,
    /// UPGMC (squared-distance recurrence).
    Centroid,
    /// WPGMC (squared-distance recurrence).
    Median,
    /// Ward variance minimization — the method used for every ranking
    /// table in the paper.
    Ward,
}

impl Method {
    /// All methods, for parameter sweeps.
    pub const ALL: [Method; 7] = [
        Method::Single,
        Method::Complete,
        Method::Average,
        Method::Weighted,
        Method::Centroid,
        Method::Median,
        Method::Ward,
    ];

    /// SciPy's string name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Single => "single",
            Method::Complete => "complete",
            Method::Average => "average",
            Method::Weighted => "weighted",
            Method::Centroid => "centroid",
            Method::Median => "median",
            Method::Ward => "ward",
        }
    }

    fn squared(self) -> bool {
        matches!(self, Method::Centroid | Method::Median | Method::Ward)
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    /// Parse a SciPy linkage name (`ward`, `single`, …).
    fn from_str(name: &str) -> Result<Method, String> {
        Method::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| format!("unknown linkage `{name}`"))
    }
}

impl Method {
    /// Lance–Williams distance of cluster `k` to the merge of `i`+`j`.
    #[allow(clippy::too_many_arguments)]
    fn update(self, dki: f64, dkj: f64, dij: f64, ni: f64, nj: f64, nk: f64) -> f64 {
        match self {
            Method::Single => dki.min(dkj),
            Method::Complete => dki.max(dkj),
            Method::Average => (ni * dki + nj * dkj) / (ni + nj),
            Method::Weighted => 0.5 * (dki + dkj),
            Method::Centroid => {
                let s = ni + nj;
                (ni / s) * dki + (nj / s) * dkj - (ni * nj) / (s * s) * dij
            }
            Method::Median => 0.5 * dki + 0.5 * dkj - 0.25 * dij,
            Method::Ward => {
                let t = ni + nj + nk;
                ((ni + nk) * dki + (nj + nk) * dkj - nk * dij) / t
            }
        }
    }
}

/// Build the dendrogram of `dist` under `method`.
///
/// Deterministic: ties in the nearest-pair search break toward the
/// lexicographically smallest `(i, j)` cluster-ID pair, so repeated runs
/// (and the normal/faulty pair of an experiment) agree on ordering.
#[allow(clippy::needless_range_loop)] // square working-matrix indexing
pub fn linkage(dist: &CondensedMatrix, method: Method) -> Dendrogram {
    let n = dist.len();
    assert!(n >= 1, "cannot cluster zero observations");
    let mut merges: Vec<Merge> = Vec::with_capacity(n.saturating_sub(1));
    if n == 1 {
        return Dendrogram::new(n, merges);
    }

    // Working distance matrix between *active* clusters, full square for
    // simplicity (n is the number of traces — small). Squared methods
    // square on entry and sqrt on report.
    let sq = method.squared();
    let mut d = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in i + 1..n {
            let v = dist.get(i, j);
            let v = if sq { v * v } else { v };
            d[i][j] = v;
            d[j][i] = v;
        }
    }

    // slot i holds: active?, current cluster ID (leaf or n+merge), size.
    let mut active: Vec<bool> = vec![true; n];
    let mut ids: Vec<usize> = (0..n).collect();
    let mut sizes: Vec<f64> = vec![1.0; n];

    for step in 0..n - 1 {
        // Nearest active pair; break ties toward smallest (id_i, id_j).
        let mut best: Option<(usize, usize)> = None;
        for i in 0..n {
            if !active[i] {
                continue;
            }
            for j in i + 1..n {
                if !active[j] {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bi, bj)) => {
                        let cur = d[i][j];
                        let b = d[bi][bj];
                        cur < b
                            || (cur == b
                                && (ids[i].min(ids[j]), ids[i].max(ids[j]))
                                    < (ids[bi].min(ids[bj]), ids[bi].max(ids[bj])))
                    }
                };
                if better {
                    best = Some((i, j));
                }
            }
        }
        let (i, j) = best.expect("at least two active clusters");
        let dij = d[i][j];
        let height = if sq { dij.max(0.0).sqrt() } else { dij };
        let (ida, idb) = (ids[i].min(ids[j]), ids[i].max(ids[j]));
        let new_size = sizes[i] + sizes[j];
        merges.push(Merge {
            a: ida,
            b: idb,
            distance: height,
            size: new_size as usize,
        });

        // Update distances of every other active cluster to the merge;
        // store the merged cluster in slot i, deactivate slot j.
        for k in 0..n {
            if !active[k] || k == i || k == j {
                continue;
            }
            let v = method.update(d[k][i], d[k][j], dij, sizes[i], sizes[j], sizes[k]);
            d[k][i] = v;
            d[i][k] = v;
        }
        active[j] = false;
        sizes[i] = new_size;
        ids[i] = n + step;
    }
    Dendrogram::new(n, merges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dendrogram::fcluster_maxclust;

    /// Chain example verifiable by hand (see module docs of the tests).
    fn chain() -> CondensedMatrix {
        // d01=1 d02=4 d03=5 d12=2 d13=6 d23=3
        let full = vec![
            vec![0.0, 1.0, 4.0, 5.0],
            vec![1.0, 0.0, 2.0, 6.0],
            vec![4.0, 2.0, 0.0, 3.0],
            vec![5.0, 6.0, 3.0, 0.0],
        ];
        CondensedMatrix::from_full(&full)
    }

    #[test]
    fn method_names_parse() {
        for m in Method::ALL {
            let parsed: Method = m.name().parse().unwrap();
            assert_eq!(parsed, m);
        }
        assert!("quantum".parse::<Method>().is_err());
    }

    #[test]
    fn single_linkage_hand_computed() {
        let dend = linkage(&chain(), Method::Single);
        let h: Vec<f64> = dend.merges().iter().map(|m| m.distance).collect();
        // merge(0,1)@1 → min-dist to 2 is 2 → merge@2 → then 3 joins @3.
        assert_eq!(h, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn complete_linkage_hand_computed() {
        let dend = linkage(&chain(), Method::Complete);
        let h: Vec<f64> = dend.merges().iter().map(|m| m.distance).collect();
        // merge(0,1)@1; then {2,3}@3; final max(4,5,2?,6)=6.
        assert_eq!(h, vec![1.0, 3.0, 6.0]);
    }

    #[test]
    fn average_linkage_hand_computed() {
        let dend = linkage(&chain(), Method::Average);
        let h: Vec<f64> = dend.merges().iter().map(|m| m.distance).collect();
        // merge(0,1)@1 → d({01},2)=(4+2)/2=3, d({01},3)=5.5, d(2,3)=3.
        // tie at 3: pair ({01},2) has ids (2,4); (2,3) has ids (2,3) →
        // smaller pair wins: merge (2,3)@3. Then (avg of 4,5,2,6)=4.25.
        assert_eq!(h[0], 1.0);
        assert_eq!(h[1], 3.0);
        assert!((h[2] - 4.25).abs() < 1e-12);
    }

    #[test]
    fn ward_on_one_dimensional_points() {
        // Points at 0, 2, 10, 12 (Euclidean distances).
        let pos = [0.0f64, 2.0, 10.0, 12.0];
        let d = CondensedMatrix::from_fn(4, |i, j| (pos[i] - pos[j]).abs());
        let dend = linkage(&d, Method::Ward);
        let h: Vec<f64> = dend.merges().iter().map(|m| m.distance).collect();
        // First two merges at height 2 (the tight pairs), final merge:
        // Ward distance between {0,2} and {10,12}:
        // sqrt( ((1+1)*d² terms)/… ) — known closed form: for two pairs
        // with centroids 1 and 11, Ward height = sqrt(2*2/(2+2)) * |1-11| ...
        // = sqrt( (2*2)/(4) ) * 10 = 10 * 1 = 10 → but SciPy reports
        // sqrt(2*nm/(n+m)) * ||c1-c2|| = sqrt(4/4)*10? Verify numerically:
        assert!((h[0] - 2.0).abs() < 1e-9);
        assert!((h[1] - 2.0).abs() < 1e-9);
        // Lance-Williams on squared distances gives the ESS increase ×2;
        // the point: the final merge is far larger than the first two.
        assert!(h[2] > 9.0, "far clusters must merge last: {h:?}");
    }

    #[test]
    fn all_methods_produce_full_merge_sequences() {
        for m in Method::ALL {
            let dend = linkage(&chain(), m);
            assert_eq!(dend.merges().len(), 3, "{}", m.name());
            assert_eq!(dend.merges().last().unwrap().size, 4);
        }
    }

    #[test]
    fn reducible_methods_are_monotonic() {
        // single/complete/average/weighted/ward cannot produce
        // inversions (centroid/median can).
        let pos = [0.0f64, 1.3, 2.9, 7.2, 7.9, 15.0];
        let d = CondensedMatrix::from_fn(6, |i, j| (pos[i] - pos[j]).abs());
        for m in [
            Method::Single,
            Method::Complete,
            Method::Average,
            Method::Weighted,
            Method::Ward,
        ] {
            let dend = linkage(&d, m);
            let hs: Vec<f64> = dend.merges().iter().map(|x| x.distance).collect();
            for w in hs.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-12,
                    "{} produced an inversion: {hs:?}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn deterministic_under_ties() {
        let d = CondensedMatrix::from_fn(4, |_, _| 1.0); // all equal
        let a = linkage(&d, Method::Average);
        let b = linkage(&d, Method::Average);
        assert_eq!(a.merges(), b.merges());
        assert_eq!(a.merges()[0].a, 0);
        assert_eq!(a.merges()[0].b, 1);
    }

    #[test]
    fn flat_cut_consistency() {
        let pos = [0.0f64, 0.5, 8.0, 8.5, 20.0];
        let d = CondensedMatrix::from_fn(5, |i, j| (pos[i] - pos[j]).abs());
        let dend = linkage(&d, Method::Ward);
        let l3 = fcluster_maxclust(&dend, 3);
        assert_eq!(l3[0], l3[1]);
        assert_eq!(l3[2], l3[3]);
        assert_ne!(l3[0], l3[2]);
        assert_ne!(l3[2], l3[4]);
    }

    #[test]
    fn single_observation() {
        let d = CondensedMatrix::zeros(1);
        let dend = linkage(&d, Method::Ward);
        assert!(dend.merges().is_empty());
        assert_eq!(fcluster_maxclust(&dend, 1), vec![0]);
    }
}
