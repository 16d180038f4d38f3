//! Witness cycles of a directed graph — the one routine behind
//! hbcheck's deadlock cycles (HB001) and racecheck's lock-order
//! inversions (RC003).

use std::collections::{BTreeMap, VecDeque};

/// One witness cycle per cyclic strongly-connected component of the
/// graph `adj` (node `v`'s successors are `adj[v]`, ascending). Each
/// witness is the shortest cycle through its component's smallest
/// node, found by BFS in ascending successor order, so it is
/// deterministic. A component of one node counts only with a
/// self-loop. `[v0, v1, …, vk]` means `v0 → v1 → … → vk → v0`; the
/// cycles come back sorted.
///
/// A caller whose nodes are labels numbers them in label order, so
/// that mapping the result back keeps it sorted.
pub fn witness_cycles(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = sccs(adj)
        .into_iter()
        .filter(|scc| scc.len() > 1 || adj[scc[0]].contains(&scc[0]))
        .filter_map(|scc| shortest_cycle_within(adj, &scc))
        .collect();
    out.sort();
    out
}

/// Strongly-connected components (iterative Tarjan), each sorted
/// ascending, in sorted order.
fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSET: usize = usize::MAX;
    let n = adj.len();
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS frames: (node, next child position).
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*child) {
                *child += 1;
                if index[w] == UNSET {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs.sort();
    sccs
}

/// BFS for the shortest cycle `root → … → root` through the nodes of
/// `scc`, whose smallest node is `root`.
fn shortest_cycle_within(adj: &[Vec<usize>], scc: &[usize]) -> Option<Vec<usize>> {
    let root = scc[0];
    let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v] {
            if w == root {
                // Reconstruct root → … → v, then close the loop.
                let mut path = vec![v];
                let mut cur = v;
                while cur != root {
                    cur = pred[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            if scc.contains(&w) && !pred.contains_key(&w) {
                pred.insert(w, v);
                queue.push_back(w);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acyclic_graph_has_no_witness() {
        assert!(witness_cycles(&[vec![1], vec![2], vec![]]).is_empty());
        assert!(witness_cycles(&[]).is_empty());
    }

    #[test]
    fn one_witness_per_component_shortest_through_the_smallest_node() {
        // {0, 1, 2}: 0 → 1 → 2 → 0 and the shortcut 0 → 2 → 0;
        // {3}: a self-loop; {4, 5}: a two-cycle; 6 only points in.
        let adj = vec![
            vec![1, 2],
            vec![2],
            vec![0],
            vec![3],
            vec![5],
            vec![4],
            vec![0, 4],
        ];
        assert_eq!(witness_cycles(&adj), vec![vec![0, 2], vec![3], vec![4, 5]]);
    }
}
