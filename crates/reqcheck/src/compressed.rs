//! Compressed-domain request-fact extraction: [`crate::TraceReqFacts`]
//! computed **directly on the NLR term**, without expanding loops.
//!
//! The ZipTrack observation (Kini et al., PLDI 2018) adapted to
//! request accounting: everything the RQ rules need from a subterm is
//! a small **summary** — its symbol length, its post/complete
//! counters, the minimum of its prefix balances, its finalize epoch,
//! and its run-length-encoded collective sequences — and summaries
//! compose associatively, so each loop body is summarized once and
//! `body^n` is applied in closed form.
//!
//! # The repeat rules
//!
//! With `d = posted − completed` per iteration, the balance before
//! copy `k` is `(k−1)·d`, so the prefix minimum of `body^n` is
//!
//! ```text
//! min(bodyⁿ) = min(body)            if d ≥ 0   (copy 1 is lowest)
//! min(bodyⁿ) = (n−1)·d + min(body)  if d < 0   (copy n is lowest)
//! ```
//!
//! with the witness offset shifting by `(n−1)·len` in the second case
//! (the per-copy minimum strictly decreases, so the first attainment
//! is in the last copy; `d < 0` also forces `min(body) < 0`, so a
//! witness exists). After-finalize completions are `after + (n−1)·c`
//! when the body finalizes (every completion of copies 2…n is late),
//! and the collective RLE of a uniform body multiplies its single run
//! by `n` in O(1) — a mixed body concatenates honestly, which is the
//! same output size the expanded walk would produce. A uniform
//! million-iteration loop therefore costs O(|body|), which is the
//! asymptotic win `checker_bench` measures.

use crate::expanded::rle_push;
use crate::{CollRun, ReqSym, ReqVocab, TraceReqFacts};
use dt_trace::TraceId;
use nlr::{LoopTable, Nlr, Summarizer, Summary};
use std::collections::BTreeMap;

/// Append `src` (shifted by `shift` symbols) onto `dst`, merging the
/// boundary runs when their values match.
fn rle_append(dst: &mut Vec<CollRun>, src: &[CollRun], shift: u64) {
    for run in src {
        if let Some(last) = dst.last_mut() {
            if last.sig == run.sig {
                last.count = last.count.saturating_add(run.count);
                continue;
            }
        }
        dst.push(CollRun {
            sig: run.sig.clone(),
            count: run.count,
            first_offset: run.first_offset.saturating_add(shift),
        });
    }
}

/// `runs` repeated `count` times (each copy `len` symbols long). A
/// single-run body folds in O(1); a mixed body concatenates honestly —
/// its canonical RLE genuinely grows with `count`.
fn rle_repeat(runs: &[CollRun], count: u64, len: u64) -> Vec<CollRun> {
    match (runs.len(), count) {
        (0, _) | (_, 0) => return Vec::new(),
        (_, 1) => return runs.to_vec(),
        (1, _) => {
            return vec![CollRun {
                sig: runs[0].sig.clone(),
                count: runs[0].count.saturating_mul(count),
                first_offset: runs[0].first_offset,
            }]
        }
        _ => {}
    }
    let mut out = runs.to_vec();
    for k in 1..count {
        rle_append(&mut out, runs, len.saturating_mul(k));
    }
    out
}

/// The summary of one element sequence (a loop body, or a prefix of
/// the walk): everything needed to place its request activity in any
/// context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermSummary {
    len: u64,
    posted: u64,
    completed: u64,
    /// Minimum over all prefixes of the running `posted − completed`
    /// balance (≤ 0; the empty prefix counts).
    min_bal: i64,
    /// Offset first attaining `min_bal`; `Some` iff `min_bal < 0`.
    min_off: Option<u64>,
    first_post: Option<u64>,
    first_complete: Option<u64>,
    finalized: bool,
    /// Completions after a finalize *within this term*.
    after_fin: u64,
    /// Offset of the first such completion; `Some` iff `after_fin > 0`.
    after_off: Option<u64>,
    kinds: Vec<CollRun>,
    sigs: Vec<CollRun>,
    pending: BTreeMap<String, u64>,
}

impl TermSummary {
    /// Net request balance of the whole term.
    fn delta(&self) -> i64 {
        i64::try_from(self.posted)
            .unwrap_or(i64::MAX)
            .saturating_sub(i64::try_from(self.completed).unwrap_or(i64::MAX))
    }
}

impl Summary for TermSummary {
    type Ctx = ReqVocab;

    fn identity() -> TermSummary {
        TermSummary {
            len: 0,
            posted: 0,
            completed: 0,
            min_bal: 0,
            min_off: None,
            first_post: None,
            first_complete: None,
            finalized: false,
            after_fin: 0,
            after_off: None,
            kinds: Vec::new(),
            sigs: Vec::new(),
            pending: BTreeMap::new(),
        }
    }

    /// Append one raw symbol.
    fn push_symbol(&mut self, sym: u32, vocab: &ReqVocab) {
        if sym & 1 == 0 {
            match vocab.classify(sym >> 1) {
                ReqSym::Post => {
                    self.posted += 1;
                    if self.first_post.is_none() {
                        self.first_post = Some(self.len);
                    }
                }
                ReqSym::Wait => {
                    self.completed += 1;
                    if self.first_complete.is_none() {
                        self.first_complete = Some(self.len);
                    }
                    let bal = self.delta();
                    if bal < self.min_bal {
                        self.min_bal = bal;
                        self.min_off = Some(self.len);
                    }
                    if self.finalized {
                        self.after_fin += 1;
                        if self.after_off.is_none() {
                            self.after_off = Some(self.len);
                        }
                    }
                }
                ReqSym::Finalize => self.finalized = true,
                ReqSym::Coll(kind) => rle_push(&mut self.kinds, kind, self.len),
                ReqSym::Sig(sig) => rle_push(&mut self.sigs, sig, self.len),
                ReqSym::Pending(origin) => {
                    *self.pending.entry(origin.clone()).or_insert(0) += 1;
                }
                ReqSym::Other => {}
            }
        }
        self.len += 1;
    }

    /// Append a whole summary (sequential composition `self · next`).
    fn append(&mut self, next: &TermSummary) {
        // Prefix minima: `next`'s dips ride on `self`'s net balance.
        let shifted = self.delta().saturating_add(next.min_bal);
        if shifted < self.min_bal {
            self.min_bal = shifted;
            self.min_off = next.min_off.map(|o| o.saturating_add(self.len));
        }
        // After-finalize completions, using `self`'s epoch state: once
        // `self` finalized, *every* completion of `next` is late.
        if self.after_fin == 0 {
            self.after_off = if self.finalized {
                next.first_complete.map(|o| o.saturating_add(self.len))
            } else {
                next.after_off.map(|o| o.saturating_add(self.len))
            };
        }
        self.after_fin = self.after_fin.saturating_add(if self.finalized {
            next.completed
        } else {
            next.after_fin
        });
        self.finalized = self.finalized || next.finalized;
        if self.first_post.is_none() {
            self.first_post = next.first_post.map(|o| o.saturating_add(self.len));
        }
        if self.first_complete.is_none() {
            self.first_complete = next.first_complete.map(|o| o.saturating_add(self.len));
        }
        self.posted = self.posted.saturating_add(next.posted);
        self.completed = self.completed.saturating_add(next.completed);
        rle_append(&mut self.kinds, &next.kinds, self.len);
        rle_append(&mut self.sigs, &next.sigs, self.len);
        for (origin, n) in &next.pending {
            *self.pending.entry(origin.clone()).or_insert(0) += n;
        }
        self.len = self.len.saturating_add(next.len);
    }

    /// `self` repeated `count` times, in closed form (module docs).
    fn repeat(&self, count: u64) -> TermSummary {
        match count {
            0 => return TermSummary::identity(),
            1 => return self.clone(),
            _ => {}
        }
        let tail = count - 1;
        let d = self.delta();
        let mut out = self.clone();
        out.len = self.len.saturating_mul(count);
        out.posted = self.posted.saturating_mul(count);
        out.completed = self.completed.saturating_mul(count);
        if d < 0 {
            // The per-copy minimum strictly decreases, so the global
            // minimum is first attained in the last copy.
            out.min_bal = d
                .saturating_mul(i64::try_from(tail).unwrap_or(i64::MAX))
                .saturating_add(self.min_bal);
            out.min_off = self
                .min_off
                .map(|o| o.saturating_add(self.len.saturating_mul(tail)));
        }
        if self.finalized {
            out.after_fin = self
                .after_fin
                .saturating_add(self.completed.saturating_mul(tail));
            if self.after_fin == 0 {
                // First offender: the first completion of copy 2.
                out.after_off = self.first_complete.map(|o| o.saturating_add(self.len));
            }
        }
        out.kinds = rle_repeat(&self.kinds, count, self.len);
        out.sigs = rle_repeat(&self.sigs, count, self.len);
        for n in out.pending.values_mut() {
            *n = n.saturating_mul(count);
        }
        out
    }
}

/// Summarize one NLR term — must equal [`crate::expanded::summarize`]
/// on the term's expansion.
pub fn summarize(
    table: &LoopTable,
    vocab: &ReqVocab,
    id: TraceId,
    term: &Nlr,
    truncated: bool,
) -> TraceReqFacts {
    let s: TermSummary = Summarizer::new(table, vocab).summary_of(term.elements());
    TraceReqFacts {
        id,
        posted: s.posted,
        completed: s.completed,
        min_balance: s.min_bal,
        min_balance_offset: s.min_off,
        first_post_offset: s.first_post,
        finalized: s.finalized,
        after_finalize: s.after_fin,
        after_finalize_offset: s.after_off,
        kinds: s.kinds,
        sigs: s.sigs,
        pending: s.pending.into_iter().collect(),
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
            "MPI_Isend",
            "MPI_Irecv",
            "MPI_Wait",
            "MPI_Finalize",
            "MPI_Barrier",
            "MPI_Allreduce",
            "MPI_Bcast",
            "mpi_coll@MPI_Allreduce:4:-:sum",
            "mpi_coll@MPI_Allreduce:4:-:max",
            "mpi_req_pending@MPI_Isend:dst=1,tag=7",
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
        let vocab = ReqVocab::build(reg);
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
    fn balanced_request_loop_agrees() {
        let (reg, p) = vocabulary();
        let (isend, wait) = (p[0], p[2]);
        let mut syms = Vec::new();
        for _ in 0..40 {
            syms.extend_from_slice(&[isend.0, isend.1, wait.0, wait.1]);
        }
        agree(&reg, &syms, false);
    }

    #[test]
    fn leaking_loop_agrees() {
        let (reg, p) = vocabulary();
        let isend = p[0];
        let mut syms = Vec::new();
        for _ in 0..30 {
            syms.extend_from_slice(&[isend.0, isend.1]);
        }
        agree(&reg, &syms, false);
    }

    #[test]
    fn overdraining_loop_puts_the_minimum_in_the_last_copy() {
        let (reg, p) = vocabulary();
        let (isend, wait) = (p[0], p[2]);
        // Net −1 per iteration: post once, wait twice.
        let mut syms = Vec::new();
        for _ in 0..20 {
            syms.extend_from_slice(&[isend.0, isend.1, wait.0, wait.1, wait.0, wait.1]);
        }
        agree(&reg, &syms, false);
        let vocab = ReqVocab::build(&reg);
        let facts = expanded::summarize(TraceId::new(0, 1), &syms, false, &vocab);
        assert_eq!(facts.min_balance, -20);
        // First attained by the last iteration's second wait.
        assert_eq!(facts.min_balance_offset, Some(19 * 6 + 4));
    }

    #[test]
    fn finalize_inside_the_loop_agrees() {
        let (reg, p) = vocabulary();
        let (isend, wait, fin) = (p[0], p[2], p[3]);
        let mut syms = vec![isend.0, isend.1];
        for _ in 0..15 {
            syms.extend_from_slice(&[fin.0, fin.1, wait.0, wait.1]);
        }
        agree(&reg, &syms, false);
    }

    #[test]
    fn alternating_collectives_agree() {
        let (reg, p) = vocabulary();
        let (bar, red, sig_sum) = (p[4], p[5], p[7]);
        let mut syms = Vec::new();
        for _ in 0..25 {
            syms.extend_from_slice(&[
                bar.0, bar.1, red.0, sig_sum.0, sig_sum.1, red.1, bar.0, bar.1,
            ]);
        }
        // Coda rotates the pattern so runs straddle loop boundaries.
        syms.extend_from_slice(&[bar.0, bar.1, bar.0, bar.1]);
        agree(&reg, &syms, false);
    }

    #[test]
    fn high_repetition_counts_fold_without_expansion() {
        let (reg, p) = vocabulary();
        let vocab = ReqVocab::build(&reg);
        let (isend, wait, bar, sig_sum) = (p[0], p[2], p[4], p[7]);
        let mut table = LoopTable::new();
        let body = table.intern(vec![
            Element::Sym(isend.0),
            Element::Sym(isend.1),
            Element::Sym(wait.0),
            Element::Sym(wait.1),
            Element::Sym(bar.0),
            Element::Sym(bar.1),
            Element::Sym(sig_sum.0),
            Element::Sym(sig_sum.1),
        ]);
        let elements = vec![Element::Loop {
            body,
            count: 1_000_000,
        }];
        let sum: TermSummary = Summarizer::new(&table, &vocab).summary_of(&elements);
        assert_eq!(sum.len, 8_000_000);
        let term = Nlr::from_parts(elements, 8_000_000);
        let facts = summarize(&table, &vocab, TraceId::new(0, 1), &term, false);
        assert_eq!((facts.posted, facts.completed), (1_000_000, 1_000_000));
        assert_eq!(facts.min_balance, 0);
        assert_eq!(facts.min_balance_offset, None);
        // Uniform bodies fold to a single multiplied run.
        assert_eq!(
            facts.kinds,
            vec![CollRun {
                sig: "MPI_Barrier".into(),
                count: 1_000_000,
                first_offset: 4
            }]
        );
        assert_eq!(
            facts.sigs,
            vec![CollRun {
                sig: "MPI_Allreduce:4:-:sum".into(),
                count: 1_000_000,
                first_offset: 6
            }]
        );
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
