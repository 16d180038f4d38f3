//! Equivalence classes of equal items — the unit of work every
//! per-trace layer runs once for.
//!
//! An SPMD run records the same stream on many threads: the demo LULESH
//! pair holds 7 distinct streams among its 32 normal traces and 11
//! among its 29 faulty ones. [`first_equal`] finds, for each item of a
//! slice, the first item equal to it; [`Classes`] numbers those classes
//! by first occurrence. A layer then computes one result per class, in
//! class order (which is first-occurrence order, so anything numbered
//! as it goes — loop ids — numbers as a trace-by-trace pass would), and
//! hands each member its class's result.

use std::collections::HashMap;

/// For each item, the index of the first item whose `key` equals its
/// own (its own index when it is the first). Keys are bucketed by
/// length and confirmed by `==`, so no hash can alias two items.
pub fn first_equal<'a, T, K: PartialEq + 'a>(
    items: &'a [T],
    key: impl Fn(&'a T) -> &'a [K],
) -> Vec<usize> {
    let mut firsts: HashMap<usize, Vec<usize>> = HashMap::new();
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let k = key(item);
            let bucket = firsts.entry(k.len()).or_default();
            match bucket.iter().find(|&&f| key(&items[f]) == k) {
                Some(&f) => f,
                None => {
                    bucket.push(i);
                    i
                }
            }
        })
        .collect()
}

/// Items grouped into classes of equal keys ([`first_equal`]), numbered
/// by first occurrence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Classes {
    /// The class of each item.
    pub of: Vec<usize>,
    /// The index of each class's first item (its representative), in
    /// class order — ascending.
    pub reps: Vec<usize>,
}

impl Classes {
    /// Group `items` by equal `key`.
    pub fn new<'a, T, K: PartialEq + 'a>(
        items: &'a [T],
        key: impl Fn(&'a T) -> &'a [K],
    ) -> Classes {
        let mut of = Vec::with_capacity(items.len());
        let mut reps = Vec::new();
        for (i, first) in first_equal(items, key).into_iter().enumerate() {
            if first == i {
                of.push(reps.len());
                reps.push(i);
            } else {
                let class = of[first];
                of.push(class);
            }
        }
        Classes { of, reps }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_equal_points_at_the_first_equal_item() {
        let items: Vec<Vec<u32>> = vec![
            vec![1, 2],
            vec![3],
            vec![1, 2],
            vec![],
            vec![2, 1],
            vec![3],
            vec![],
        ];
        assert_eq!(
            first_equal(&items, |v| v.as_slice()),
            vec![0, 1, 0, 3, 4, 1, 3]
        );
        let c = Classes::new(&items, |v| v.as_slice());
        assert_eq!(c.of, vec![0, 1, 0, 2, 3, 1, 2]);
        assert_eq!(c.reps, vec![0, 1, 3, 4]);
        assert_eq!(c.len(), 4);
        assert!(Classes::new(&[] as &[Vec<u32>], |v| v.as_slice()).is_empty());
    }

    #[test]
    fn equal_lengths_are_confirmed_by_content() {
        let items: Vec<&[u8]> = vec![b"ab", b"ba", b"ab", b"bb"];
        assert_eq!(first_equal(&items, |v| *v), vec![0, 1, 0, 3]);
    }
}
