//! Compressed-domain race-fact extraction: [`crate::TraceRaceFacts`]
//! computed **directly on the NLR term**, without expanding loops.
//!
//! The ZipTrack observation (Kini et al., PLDI 2018) adapted to the
//! barrier-phase/lockset abstraction: everything the race rules need
//! from a subterm is a small **summary** — its symbol length, its
//! barrier count, its net lock effect, and its access groups keyed by
//! a lockset *relative to the unknown entry lockset* — and summaries
//! compose associatively, so each loop body is summarized once and
//! `body^n` is applied in closed form. A million-iteration loop costs
//! O(|body|), which is the asymptotic win `checker_bench` measures.
//!
//! # The relative-lockset algebra
//!
//! Inside a term, the absolute lockset of an access is determined by
//! the term's own acquire/release history plus whatever was held at
//! term entry (`E`). Because a lock's membership depends only on the
//! *last* operation touching it, every access point is captured by two
//! disjoint sets: `acq` (locks whose last op before the access was an
//! acquire) and `rel` (last op was a release). The absolute lockset is
//! then
//!
//! ```text
//! L(E) = acq ∪ (E  \  (acq ∪ rel))
//! ```
//!
//! Sequential composition `A · B` rewrites each B-side context against
//! A's exit effect (`exit_acq`/`exit_rel`, same shape):
//!
//! ```text
//! acq' = acq ∪ (A.exit_acq \ (acq ∪ rel))
//! rel' = rel ∪ (A.exit_rel \ (acq ∪ rel))
//! ```
//!
//! and repetition exploits that the exit effect is idempotent
//! (`exit(T·T) = exit(T)`), so iterations 2…n all see the same entry
//! context: their groups are one rewritten copy with `count × (n−1)`,
//! `first_offset + len` (the iteration-2 witness is the earliest),
//! and the phase envelope `[phase_first + barriers,
//! phase_last + (n−1)·barriers]`. Offsets shift by `len` per
//! iteration, phases by `barriers` per iteration; both are exact, not
//! approximations, because the expanded domain also only keeps the
//! (min offset, phase min/max) envelope per group.

use crate::{AccessGroup, AccessKind, RaceSym, RaceVocab, TraceRaceFacts};
use dt_trace::race::RaceOp;
use dt_trace::TraceId;
use nlr::{LoopTable, Nlr, Summarizer, Summary};
use std::collections::{BTreeMap, BTreeSet};

/// An access-group key relative to the term's entry lockset: the
/// target, the kind, and the (acq, rel) context sets.
type RelKey = (String, AccessKind, BTreeSet<String>, BTreeSet<String>);

/// Aggregated values of one relative group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GroupVal {
    count: u64,
    first_offset: u64,
    phase_first: u64,
    phase_last: u64,
}

/// The summary of one element sequence (a loop body, or a prefix of
/// the walk): everything needed to place its accesses in any context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermSummary {
    len: u64,
    barriers: u64,
    exit_acq: BTreeSet<String>,
    exit_rel: BTreeSet<String>,
    groups: BTreeMap<RelKey, GroupVal>,
}

impl TermSummary {
    /// Record one access at the current end of the summary.
    fn record(&mut self, var: &str, kind: AccessKind) {
        let key = (
            var.to_string(),
            kind,
            self.exit_acq.clone(),
            self.exit_rel.clone(),
        );
        let val = GroupVal {
            count: 1,
            first_offset: self.len,
            phase_first: self.barriers,
            phase_last: self.barriers,
        };
        merge_group(&mut self.groups, key, val);
    }

    /// Rewrite a context set pair against this summary's exit effect
    /// (the composition rule from the module docs).
    fn rewrite(
        &self,
        acq: &BTreeSet<String>,
        rel: &BTreeSet<String>,
    ) -> (BTreeSet<String>, BTreeSet<String>) {
        let mut acq2 = acq.clone();
        let mut rel2 = rel.clone();
        for l in &self.exit_acq {
            if !acq.contains(l) && !rel.contains(l) {
                acq2.insert(l.clone());
            }
        }
        for l in &self.exit_rel {
            if !acq.contains(l) && !rel.contains(l) {
                rel2.insert(l.clone());
            }
        }
        (acq2, rel2)
    }
}

impl Summary for TermSummary {
    type Ctx = RaceVocab;

    fn identity() -> TermSummary {
        TermSummary {
            len: 0,
            barriers: 0,
            exit_acq: BTreeSet::new(),
            exit_rel: BTreeSet::new(),
            groups: BTreeMap::new(),
        }
    }

    /// Append one raw symbol.
    fn push_symbol(&mut self, sym: u32, vocab: &RaceVocab) {
        if sym & 1 == 0 {
            match vocab.classify(sym >> 1) {
                RaceSym::Barrier => self.barriers += 1,
                RaceSym::Op(RaceOp::Read(v)) => self.record(&v.clone(), AccessKind::Read),
                RaceSym::Op(RaceOp::Write(v)) => self.record(&v.clone(), AccessKind::Write),
                RaceSym::Op(RaceOp::Acquire(l)) => {
                    let l = l.clone();
                    self.record(&l, AccessKind::Acquire);
                    self.exit_acq.insert(l.clone());
                    self.exit_rel.remove(&l);
                }
                RaceSym::Op(RaceOp::Release(l)) => {
                    let l = l.clone();
                    self.exit_rel.insert(l.clone());
                    self.exit_acq.remove(&l);
                }
                RaceSym::Other => {}
            }
        }
        self.len += 1;
    }

    /// Append a whole summary (sequential composition `self · next`).
    fn append(&mut self, next: &TermSummary) {
        for ((var, kind, acq, rel), val) in &next.groups {
            let (acq2, rel2) = self.rewrite(acq, rel);
            let key = (var.clone(), *kind, acq2, rel2);
            merge_group(
                &mut self.groups,
                key,
                GroupVal {
                    count: val.count,
                    first_offset: val.first_offset.saturating_add(self.len),
                    phase_first: val.phase_first.saturating_add(self.barriers),
                    phase_last: val.phase_last.saturating_add(self.barriers),
                },
            );
        }
        let (exit_acq, exit_rel) = next.rewrite(&self.exit_acq, &self.exit_rel);
        // `next`'s own exit effect wins for locks it touched.
        let mut acq = next.exit_acq.clone();
        let mut rel = next.exit_rel.clone();
        for l in exit_acq {
            if !next.exit_acq.contains(&l) && !next.exit_rel.contains(&l) {
                acq.insert(l);
            }
        }
        for l in exit_rel {
            if !next.exit_acq.contains(&l) && !next.exit_rel.contains(&l) {
                rel.insert(l);
            }
        }
        self.exit_acq = acq;
        self.exit_rel = rel;
        self.len = self.len.saturating_add(next.len);
        self.barriers = self.barriers.saturating_add(next.barriers);
    }

    /// `self` repeated `count` times, in closed form: iteration 1
    /// verbatim, iterations 2…count as one rewritten copy (the exit
    /// effect is idempotent, so they all share a context).
    fn repeat(&self, count: u64) -> TermSummary {
        match count {
            0 => return TermSummary::identity(),
            1 => return self.clone(),
            _ => {}
        }
        let mut out = TermSummary {
            len: self.len.saturating_mul(count),
            barriers: self.barriers.saturating_mul(count),
            exit_acq: self.exit_acq.clone(),
            exit_rel: self.exit_rel.clone(),
            groups: self.groups.clone(),
        };
        let tail = count - 1;
        for ((var, kind, acq, rel), val) in &self.groups {
            let (acq2, rel2) = self.rewrite(acq, rel);
            merge_group(
                &mut out.groups,
                (var.clone(), *kind, acq2, rel2),
                GroupVal {
                    count: val.count.saturating_mul(tail),
                    first_offset: val.first_offset.saturating_add(self.len),
                    phase_first: val.phase_first.saturating_add(self.barriers),
                    phase_last: val
                        .phase_last
                        .saturating_add(self.barriers.saturating_mul(tail)),
                },
            );
        }
        out
    }
}

fn merge_group<K: Ord>(groups: &mut BTreeMap<K, GroupVal>, key: K, val: GroupVal) {
    groups
        .entry(key)
        .and_modify(|g| {
            g.count = g.count.saturating_add(val.count);
            g.first_offset = g.first_offset.min(val.first_offset);
            g.phase_first = g.phase_first.min(val.phase_first);
            g.phase_last = g.phase_last.max(val.phase_last);
        })
        .or_insert(val);
}

/// Summarize one NLR term — must equal [`crate::expanded::summarize`]
/// on the term's expansion.
pub fn summarize(
    table: &LoopTable,
    vocab: &RaceVocab,
    id: TraceId,
    term: &Nlr,
    truncated: bool,
) -> TraceRaceFacts {
    let s: TermSummary = Summarizer::new(table, vocab).summary_of(term.elements());
    // Top level: the entry lockset is empty, so the absolute
    // lockset of a group is exactly its `acq` context; groups that
    // differ only in `rel` collapse together.
    let mut groups: BTreeMap<(String, AccessKind, BTreeSet<String>), GroupVal> = BTreeMap::new();
    for ((var, kind, acq, _rel), val) in s.groups {
        merge_group(&mut groups, (var, kind, acq), val);
    }
    TraceRaceFacts {
        id,
        groups: groups
            .into_iter()
            .map(|((var, kind, lockset), v)| AccessGroup {
                var,
                kind,
                lockset,
                count: v.count,
                first_offset: v.first_offset,
                phase_first: v.phase_first,
                phase_last: v.phase_last,
            })
            .collect(),
        barriers: s.barriers,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expanded;
    use dt_trace::FunctionRegistry;
    use nlr::{Element, NlrBuilder};
    use proptest::prelude::*;

    fn call(f: dt_trace::FnId) -> u32 {
        f.0 << 1
    }
    fn ret(f: dt_trace::FnId) -> u32 {
        (f.0 << 1) | 1
    }

    /// Registry with the standard test vocabulary; returns marker ids.
    fn vocabulary() -> (FunctionRegistry, Vec<(u32, u32)>) {
        let reg = FunctionRegistry::new();
        let names = [
            "omp_read@x",
            "omp_write@x",
            "omp_read@y",
            "omp_write@y",
            "omp_acquire@A",
            "omp_release@A",
            "omp_acquire@B",
            "omp_release@B",
            "GOMP_barrier",
            "compute",
            "helper",
        ];
        let pairs = names
            .iter()
            .map(|n| {
                let f = reg.intern(n);
                (call(f), ret(f))
            })
            .collect();
        (reg, pairs)
    }

    fn agree(reg: &FunctionRegistry, symbols: &[u32], truncated: bool) {
        let vocab = RaceVocab::build(reg);
        let mut table = LoopTable::new();
        let term = NlrBuilder::new(10).build(symbols, &mut table);
        assert_eq!(term.expand(&table), symbols, "NLR must be lossless");
        let id = TraceId::new(0, 1);
        assert_eq!(
            summarize(&table, &vocab, id, &term, truncated),
            expanded::summarize(id, symbols, truncated, &vocab),
        );
    }

    #[test]
    fn locked_loop_agrees_with_expanded() {
        let (reg, p) = vocabulary();
        let (acq_a, rel_a) = (p[4], p[5]);
        let (w_x, r_x) = (p[1], p[0]);
        let mut syms = Vec::new();
        for _ in 0..40 {
            syms.extend_from_slice(&[
                acq_a.0, acq_a.1, r_x.0, r_x.1, w_x.0, w_x.1, rel_a.0, rel_a.1,
            ]);
        }
        agree(&reg, &syms, false);
    }

    #[test]
    fn barrier_phased_loop_agrees_with_expanded() {
        let (reg, p) = vocabulary();
        let bar = p[8];
        let w_x = p[1];
        let mut syms = Vec::new();
        for _ in 0..25 {
            syms.extend_from_slice(&[w_x.0, w_x.1, bar.0, bar.1]);
        }
        agree(&reg, &syms, false);
    }

    #[test]
    fn lock_held_across_loop_iterations_agrees() {
        let (reg, p) = vocabulary();
        let (acq_a, rel_a) = (p[4], p[5]);
        let w_x = p[1];
        // acquire A; (write x)^30; release A — the loop body has no
        // lock ops of its own, the context comes from outside.
        let mut syms = vec![acq_a.0, acq_a.1];
        for _ in 0..30 {
            syms.extend_from_slice(&[w_x.0, w_x.1]);
        }
        syms.extend_from_slice(&[rel_a.0, rel_a.1]);
        agree(&reg, &syms, false);
    }

    #[test]
    fn acquire_release_inside_loop_body_agrees() {
        let (reg, p) = vocabulary();
        let (acq_a, rel_a) = (p[4], p[5]);
        let (acq_b, rel_b) = (p[6], p[7]);
        let (w_x, w_y) = (p[1], p[3]);
        // Nested lock order A → B inside a loop, plus an unlocked write.
        let mut syms = Vec::new();
        for _ in 0..20 {
            syms.extend_from_slice(&[
                acq_a.0, acq_a.1, acq_b.0, acq_b.1, w_x.0, w_x.1, rel_b.0, rel_b.1, rel_a.0,
                rel_a.1, w_y.0, w_y.1,
            ]);
        }
        agree(&reg, &syms, true);
    }

    #[test]
    fn net_lock_effect_across_body_boundary_agrees() {
        let (reg, p) = vocabulary();
        let (acq_a, rel_a) = (p[4], p[5]);
        let w_x = p[1];
        let bar = p[8];
        // Each iteration ends holding A and releases it at the top of
        // the next — the rotated-body case where acquire/release pairs
        // straddle the NLR loop-body boundary.
        let mut syms = Vec::new();
        for _ in 0..15 {
            syms.extend_from_slice(&[
                acq_a.0, acq_a.1, bar.0, bar.1, w_x.0, w_x.1, rel_a.0, rel_a.1,
            ]);
            syms.extend_from_slice(&[w_x.0, w_x.1]);
        }
        agree(&reg, &syms, false);
    }

    #[test]
    fn high_repetition_counts_fold_without_expansion() {
        let (reg, p) = vocabulary();
        let vocab = RaceVocab::build(&reg);
        let (acq_a, rel_a) = (p[4], p[5]);
        let w_x = p[1];
        let bar = p[8];
        let mut table = LoopTable::new();
        let body = table.intern(vec![
            Element::Sym(acq_a.0),
            Element::Sym(acq_a.1),
            Element::Sym(w_x.0),
            Element::Sym(w_x.1),
            Element::Sym(rel_a.0),
            Element::Sym(rel_a.1),
            Element::Sym(bar.0),
            Element::Sym(bar.1),
        ]);
        let elements = vec![Element::Loop {
            body,
            count: 1_000_000,
        }];
        let sum: TermSummary = Summarizer::new(&table, &vocab).summary_of(&elements);
        assert_eq!(sum.len, 8_000_000);
        assert_eq!(sum.barriers, 1_000_000);
        // Relative groups: the iteration-1 acquire sees an untouched
        // context while iterations 2…n see `A` as released — distinct
        // keys that the top-level collapse merges (same `acq` set).
        assert_eq!(sum.groups.len(), 3);
        let term = Nlr::from_parts(elements, 8_000_000);
        let facts = summarize(&table, &vocab, TraceId::new(0, 1), &term, false);
        // One write group (under A) and one acquire group, each hit
        // once per iteration.
        assert_eq!(facts.groups.len(), 2);
        for g in &facts.groups {
            assert_eq!(g.count, 1_000_000);
        }
        assert_eq!(facts.barriers, 1_000_000);
    }

    /// Random marker streams: build a symbol stream from a random
    /// script of operations and assert fact equality in both domains.
    fn script_strategy() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..12, 0..60)
    }

    proptest! {
        #[test]
        fn facts_agree_on_random_scripts(script in script_strategy(), reps in 1usize..20) {
            let (reg, p) = vocabulary();
            let mut syms = Vec::new();
            // A looped section: the script repeated `reps` times.
            for _ in 0..reps {
                for &op in &script {
                    let (c, r) = p[op as usize % p.len()];
                    syms.push(c);
                    syms.push(r);
                }
            }
            // Plus an unlooped coda from the same script, reversed.
            for &op in script.iter().rev() {
                let (c, r) = p[op as usize % p.len()];
                syms.push(c);
                syms.push(r);
            }
            agree(&reg, &syms, false);
        }

        #[test]
        fn facts_agree_on_truncated_random_scripts(script in script_strategy()) {
            let (reg, p) = vocabulary();
            let mut syms = Vec::new();
            for _ in 0..8 {
                for &op in &script {
                    let (c, _r) = p[op as usize % p.len()];
                    // Calls without returns: maximally unbalanced.
                    syms.push(c);
                }
            }
            agree(&reg, &syms, true);
        }
    }
}
