//! Incremental concept-lattice construction (Godin's algorithm).
//!
//! A **concept** of context `(G, M, I)` is a pair `(X, Y)` with
//! `X ⊆ G`, `Y ⊆ M`, where `X` is exactly the set of objects having all
//! attributes in `Y`, and `Y` is exactly the set of attributes shared
//! by all objects in `X`. The concepts ordered by extent inclusion form
//! the complete lattice `B(G, M, I)`.
//!
//! [`ConceptLattice::add_object`] performs Godin-style incremental
//! insertion: when object `g` with intent `A` arrives,
//!
//! 1. every existing concept whose intent is a subset of `A` gains `g`
//!    in its extent (*modified concepts*),
//! 2. for every existing intent `Y`, the intersection `Y ∩ A` (and `A`
//!    itself) becomes a concept if it is not one already (*new
//!    concepts*), with extent recomputed over the objects seen so far.
//!
//! This maintains exactly the set of closed pairs after each insertion
//! (verified against a brute-force closure enumeration in the tests).
//! Hasse-diagram cover edges are derived on demand ([`ConceptLattice::covers`])
//! since only lattice *rendering* needs them; similarity queries use
//! extents/intents directly.

use crate::bitset::BitSet;
use crate::context::FormalContext;
use std::collections::HashMap;

/// A formal concept: closed (extent, intent) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Concept {
    /// Objects having all attributes of `intent`.
    pub extent: BitSet,
    /// Attributes shared by all objects of `extent`.
    pub intent: BitSet,
}

impl Concept {
    /// `|extent|`.
    pub fn extent_len(&self) -> usize {
        self.extent.len()
    }

    /// `|intent|`.
    pub fn intent_len(&self) -> usize {
        self.intent.len()
    }
}

/// The concept lattice, built incrementally object-by-object.
#[derive(Debug, Clone, Default)]
pub struct ConceptLattice {
    concepts: Vec<Concept>,
    /// Canonical intent → concept index.
    by_intent: HashMap<BitSet, usize>,
    /// Intents of the objects inserted so far, in insertion order.
    object_intents: Vec<BitSet>,
    /// Union of all attributes seen.
    all_attrs: BitSet,
}

impl ConceptLattice {
    /// An empty lattice.
    pub fn new() -> ConceptLattice {
        ConceptLattice::default()
    }

    /// Build from a whole context by repeated incremental insertion —
    /// the workflow of the paper (traces are injected one at a time).
    pub fn from_context(ctx: &FormalContext) -> ConceptLattice {
        let mut l = ConceptLattice::new();
        for g in 0..ctx.num_objects() {
            l.add_object(&ctx.object_attrs(g));
        }
        l
    }

    /// Number of objects inserted.
    pub fn num_objects(&self) -> usize {
        self.object_intents.len()
    }

    /// All concepts (unspecified order; use [`ConceptLattice::concepts_by_intent_size`]
    /// for level order).
    pub fn concepts(&self) -> &[Concept] {
        &self.concepts
    }

    /// Insert object `g` (index = number of objects inserted so far)
    /// with attribute set `attrs`. Incremental Godin step.
    ///
    /// When `attrs` is already a concept's intent — a repeated trace,
    /// or one run's trace again in a fleet — step (1) is the whole
    /// update: every `Y ∩ A` of two closed sets is closed, so already a
    /// concept, and `A ⊆ M` leaves the bottom as it was.
    pub fn add_object(&mut self, attrs: &BitSet) {
        let g = self.object_intents.len();
        let attrs = attrs.canonical();
        let all_attrs = self.all_attrs.union(&attrs).canonical();
        let grew = all_attrs != self.all_attrs;
        self.all_attrs = all_attrs;
        self.object_intents.push(attrs.clone());

        // (1) Modified concepts: intent ⊆ A gains g.
        for c in &mut self.concepts {
            if c.intent.is_subset(&attrs) {
                c.extent.insert(g);
            }
        }
        if self.by_intent.contains_key(&attrs) {
            return;
        }

        // (2) Candidate new intents: A and Y ∩ A for every existing
        // intent Y.
        let mut candidates: Vec<BitSet> = Vec::with_capacity(self.concepts.len() + 1);
        candidates.push(attrs.clone());
        for c in &self.concepts {
            candidates.push(c.intent.intersection(&attrs).canonical());
        }
        for cand in candidates {
            if self.by_intent.contains_key(&cand) {
                continue;
            }
            // Extent: objects (so far) whose intent ⊇ cand.
            let mut extent = BitSet::new();
            for (o, oi) in self.object_intents.iter().enumerate() {
                if cand.is_subset(oi) {
                    extent.insert(o);
                }
            }
            // Closure check: the candidate must be *closed* — equal to
            // the common attributes of its extent. Intersections of
            // closed sets with A are closed in the updated context, but
            // guard anyway (cheap) to keep the invariant ironclad.
            let mut closure = self.all_attrs.clone();
            for o in extent.iter() {
                closure = closure.intersection(&self.object_intents[o]);
            }
            let closure = closure.canonical();
            if closure != cand {
                // Not closed: the closure itself is (or will be) a
                // candidate generated by another intersection.
                continue;
            }
            let idx = self.concepts.len();
            self.concepts.push(Concept {
                extent,
                intent: cand.clone(),
            });
            self.by_intent.insert(cand, idx);
        }

        // (3) Ensure the bottom concept (intent = all attributes) exists:
        // classical B(G,M,I) always contains (M′, M).
        let bottom_intent = self.all_attrs.clone();
        if !self.by_intent.contains_key(&bottom_intent) {
            let mut extent = BitSet::new();
            for (o, oi) in self.object_intents.iter().enumerate() {
                if bottom_intent.is_subset(oi) {
                    extent.insert(o);
                }
            }
            let idx = self.concepts.len();
            self.concepts.push(Concept {
                extent,
                intent: bottom_intent.clone(),
            });
            self.by_intent.insert(bottom_intent, idx);
        } else if let Some(&_idx) = self.by_intent.get(&bottom_intent) {
            // Present already; nothing to do.
        }

        // The previous bottom (smaller all_attrs) may now be stale —
        // i.e. no longer closed. Rebuild the index dropping non-closed
        // concepts. Only new attributes can unclose a concept: every
        // other extent's closure is unchanged or meets `A` in its own
        // intent.
        if grew {
            self.drop_unclosed();
        }
    }

    /// Remove concepts whose intent is no longer closed (can happen for
    /// the synthetic bottom when later objects introduce attributes).
    fn drop_unclosed(&mut self) {
        let mut keep: Vec<Concept> = Vec::with_capacity(self.concepts.len());
        let mut by_intent = HashMap::new();
        for c in self.concepts.drain(..) {
            // closure of extent:
            let mut closure = self.all_attrs.clone();
            for o in c.extent.iter() {
                closure = closure.intersection(&self.object_intents[o]);
            }
            let closure = closure.canonical();
            if closure == c.intent && !by_intent.contains_key(&c.intent) {
                by_intent.insert(c.intent.clone(), keep.len());
                keep.push(c);
            }
        }
        self.concepts = keep;
        self.by_intent = by_intent;
    }

    /// The top concept: full extent, attributes common to all objects.
    pub fn top(&self) -> &Concept {
        self.concepts
            .iter()
            .max_by_key(|c| c.extent_len())
            .expect("lattice is empty")
    }

    /// The bottom concept: intent = all attributes.
    pub fn bottom(&self) -> &Concept {
        self.concepts
            .iter()
            .max_by_key(|c| c.intent_len())
            .expect("lattice is empty")
    }

    /// The *object concept* of `g`: the smallest concept whose extent
    /// contains `g` (its intent is exactly `g`'s attribute set closure).
    pub fn object_concept(&self, g: usize) -> &Concept {
        self.concepts
            .iter()
            .filter(|c| c.extent.contains(g))
            .min_by_key(|c| c.extent_len())
            .expect("object not in lattice")
    }

    /// Jaccard similarity of two objects, computed lattice-side from
    /// their object-concept intents (identical to attribute-set Jaccard;
    /// asserted equal in tests).
    pub fn object_jaccard(&self, a: usize, b: usize) -> f64 {
        let ia = &self.object_intents[a];
        let ib = &self.object_intents[b];
        let union = ia.union_len(ib);
        if union == 0 {
            return 1.0;
        }
        ia.intersection_len(ib) as f64 / union as f64
    }

    /// Concept indices sorted by intent size then extent size
    /// (top-down level order for rendering Figure 3).
    pub fn concepts_by_intent_size(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.concepts.len()).collect();
        idx.sort_by_key(|&i| {
            (
                self.concepts[i].intent_len(),
                usize::MAX - self.concepts[i].extent_len(),
            )
        });
        idx
    }

    /// Hasse cover edges `(lower, upper)` meaning `lower`'s extent is a
    /// maximal proper subset of `upper`'s extent.
    pub fn covers(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for (i, ci) in self.concepts.iter().enumerate() {
            for (j, cj) in self.concepts.iter().enumerate() {
                if i == j || !ci.extent.is_proper_subset(&cj.extent) {
                    continue;
                }
                // cover iff no k strictly between
                let between = self.concepts.iter().enumerate().any(|(k, ck)| {
                    k != i
                        && k != j
                        && ci.extent.is_proper_subset(&ck.extent)
                        && ck.extent.is_proper_subset(&cj.extent)
                });
                if !between {
                    edges.push((i, j));
                }
            }
        }
        edges
    }

    /// Export the lattice as a Graphviz DOT digraph (nodes labelled
    /// with extents/intents, edges = Hasse covers) — render Figure 3
    /// with any DOT viewer.
    pub fn to_dot(&self, ctx: &FormalContext) -> String {
        let mut out = String::from("digraph lattice {\n  rankdir=BT;\n  node [shape=box];\n");
        for (i, c) in self.concepts.iter().enumerate() {
            let objs: Vec<&str> = c.extent.iter().map(|g| ctx.object_label(g)).collect();
            let attrs: Vec<&str> = c
                .intent
                .iter()
                .map(|m| ctx.attr_name(crate::context::AttrId(m as u32)))
                .collect();
            out.push_str(&format!(
                "  c{i} [label=\"{{{}}}\\n{{{}}}\"];\n",
                objs.join(", ").replace('"', "'"),
                attrs.join(", ").replace('"', "'")
            ));
        }
        for (lo, hi) in self.covers() {
            out.push_str(&format!("  c{lo} -> c{hi};\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Render the lattice top-down with labels resolved via `ctx`
    /// (Figure 3 of the paper, in text form).
    pub fn render(&self, ctx: &FormalContext) -> String {
        let mut out = String::new();
        for idx in self.concepts_by_intent_size() {
            let c = &self.concepts[idx];
            let objs: Vec<&str> = c.extent.iter().map(|g| ctx.object_label(g)).collect();
            let attrs: Vec<&str> = c
                .intent
                .iter()
                .map(|m| ctx.attr_name(crate::context::AttrId(m as u32)))
                .collect();
            out.push_str(&format!(
                "({{{}}}, {{{}}})\n",
                objs.join(", "),
                attrs.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FormalContext;

    /// Brute-force concept enumeration for validation: all closed
    /// attribute sets via intersections of object intents plus M itself.
    fn brute_force_concepts(ctx: &FormalContext) -> Vec<(BitSet, BitSet)> {
        let n = ctx.num_objects();
        let mut all_attrs = BitSet::new();
        for g in 0..n {
            all_attrs = all_attrs.union(&ctx.object_attrs(g));
        }
        let mut intents: Vec<BitSet> = vec![all_attrs.canonical()];
        // Closed intents = intersections over all subsets of G; generate
        // by fixpoint over pairwise intersections with object intents.
        let mut changed = true;
        while changed {
            changed = false;
            let snapshot = intents.clone();
            for y in &snapshot {
                for g in 0..n {
                    let cand = y.intersection(&ctx.object_attrs(g)).canonical();
                    if !intents.contains(&cand) {
                        intents.push(cand);
                        changed = true;
                    }
                }
            }
        }
        intents
            .into_iter()
            .map(|intent| {
                let mut extent = BitSet::new();
                for g in 0..n {
                    if intent.is_subset(&ctx.object_attrs(g)) {
                        extent.insert(g);
                    }
                }
                (extent, intent)
            })
            .collect()
    }

    fn table_iv() -> FormalContext {
        let mut ctx = FormalContext::new();
        let common = ["MPI_Init", "MPI_Comm_Size", "MPI_Comm_Rank", "MPI_Finalize"];
        for (i, lp) in ["L0", "L1", "L0", "L1"].iter().enumerate() {
            let mut attrs: Vec<&str> = common.to_vec();
            attrs.push(lp);
            ctx.add_object_unweighted(&format!("T{i}"), attrs);
        }
        ctx
    }

    #[test]
    fn table_iv_lattice_structure_matches_figure_3() {
        let ctx = table_iv();
        let l = ConceptLattice::from_context(&ctx);
        // Figure 3: top (all 4 traces share 4 MPI calls), two middle
        // concepts ({T0,T2} with L0, {T1,T3} with L1), bottom (∅ shares
        // everything).
        assert_eq!(l.concepts().len(), 4);
        let top = l.top();
        assert_eq!(top.extent_len(), 4);
        assert_eq!(top.intent_len(), 4);
        let bottom = l.bottom();
        assert_eq!(bottom.extent_len(), 0);
        assert_eq!(bottom.intent_len(), 6);
        let oc0 = l.object_concept(0);
        assert_eq!(oc0.extent.iter().collect::<Vec<_>>(), vec![0, 2]);
        let oc1 = l.object_concept(1);
        assert_eq!(oc1.extent.iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn incremental_matches_brute_force() {
        // Classic "live in / lives with" style random-ish context.
        let mut ctx = FormalContext::new();
        ctx.add_object_unweighted("g1", ["a", "b", "d"]);
        ctx.add_object_unweighted("g2", ["b", "c"]);
        ctx.add_object_unweighted("g3", ["a", "c", "d"]);
        ctx.add_object_unweighted("g4", ["c"]);
        ctx.add_object_unweighted("g5", ["a", "b", "c", "d", "e"]);
        let l = ConceptLattice::from_context(&ctx);
        let mut expected = brute_force_concepts(&ctx);
        let mut got: Vec<(BitSet, BitSet)> = l
            .concepts()
            .iter()
            .map(|c| (c.extent.canonical(), c.intent.canonical()))
            .collect();
        let key = |p: &(BitSet, BitSet)| {
            (
                p.1.iter().collect::<Vec<_>>(),
                p.0.iter().collect::<Vec<_>>(),
            )
        };
        expected.sort_by_key(key);
        got.sort_by_key(key);
        assert_eq!(got, expected);
    }

    /// A repeated object only joins extents; a later object with new
    /// attributes still drops the synthetic bottom it makes stale.
    #[test]
    fn repeated_objects_and_a_growing_universe() {
        let mut ctx = FormalContext::new();
        ctx.add_object_unweighted("g1", ["a"]);
        ctx.add_object_unweighted("g2", ["b"]);
        ctx.add_object_unweighted("g3", ["a"]);
        ctx.add_object_unweighted("g4", ["b"]);
        ctx.add_object_unweighted("g5", ["c"]);
        ctx.add_object_unweighted("g6", ["a"]);
        let l = ConceptLattice::from_context(&ctx);
        let mut expected = brute_force_concepts(&ctx);
        let mut got: Vec<(BitSet, BitSet)> = l
            .concepts()
            .iter()
            .map(|c| (c.extent.canonical(), c.intent.canonical()))
            .collect();
        let key = |p: &(BitSet, BitSet)| {
            (
                p.1.iter().collect::<Vec<_>>(),
                p.0.iter().collect::<Vec<_>>(),
            )
        };
        expected.sort_by_key(key);
        got.sort_by_key(key);
        assert_eq!(got, expected);
        // {a, b} was the bottom before `c` arrived; it is not closed now.
        assert!(l.concepts().iter().all(|c| c.intent.len() != 2));
        assert_eq!(l.bottom().intent_len(), 3);
        assert_eq!(
            l.object_concept(5).extent.iter().collect::<Vec<_>>(),
            [0, 2, 5]
        );
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let objs: Vec<(&str, Vec<&str>)> = vec![
            ("g1", vec!["a", "b"]),
            ("g2", vec!["b", "c", "d"]),
            ("g3", vec!["a", "d"]),
            ("g4", vec!["a", "b", "c"]),
        ];
        let build = |order: &[usize]| {
            let mut ctx = FormalContext::new();
            for &i in order {
                ctx.add_object_unweighted(objs[i].0, objs[i].1.iter().copied());
            }
            let l = ConceptLattice::from_context(&ctx);
            let mut intents: Vec<Vec<String>> = l
                .concepts()
                .iter()
                .map(|c| {
                    c.intent
                        .iter()
                        .map(|m| ctx.attr_name(crate::context::AttrId(m as u32)).to_string())
                        .collect::<Vec<_>>()
                })
                .map(|mut v: Vec<String>| {
                    v.sort();
                    v
                })
                .collect();
            intents.sort();
            intents
        };
        assert_eq!(build(&[0, 1, 2, 3]), build(&[3, 2, 1, 0]));
        assert_eq!(build(&[0, 1, 2, 3]), build(&[2, 0, 3, 1]));
    }

    #[test]
    fn covers_form_a_dag_with_top_and_bottom() {
        let ctx = table_iv();
        let l = ConceptLattice::from_context(&ctx);
        let covers = l.covers();
        // 4-concept diamond: bottom→mid0, bottom→mid1, mid0→top, mid1→top.
        assert_eq!(covers.len(), 4);
    }

    #[test]
    fn object_jaccard_values() {
        let ctx = table_iv();
        let l = ConceptLattice::from_context(&ctx);
        // T0 vs T2: identical attribute sets → 1.0.
        assert!((l.object_jaccard(0, 2) - 1.0).abs() < 1e-12);
        // T0 vs T1: share 4 of 6 attrs → 4/6.
        assert!((l.object_jaccard(0, 1) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn single_object_lattice() {
        let mut ctx = FormalContext::new();
        ctx.add_object_unweighted("only", ["x", "y"]);
        let l = ConceptLattice::from_context(&ctx);
        assert_eq!(l.top().extent_len(), 1);
        assert!(l.top().intent_len() == 2);
    }

    #[test]
    fn render_mentions_objects_and_attrs() {
        let ctx = table_iv();
        let l = ConceptLattice::from_context(&ctx);
        let r = l.render(&ctx);
        assert!(r.contains("T0"));
        assert!(r.contains("MPI_Init"));
        assert!(r.contains("L1"));
    }

    #[test]
    fn dot_export_is_well_formed() {
        let ctx = table_iv();
        let l = ConceptLattice::from_context(&ctx);
        let dot = l.to_dot(&ctx);
        assert!(dot.starts_with("digraph lattice {"));
        assert!(dot.trim_end().ends_with('}'));
        // 4 nodes, 4 cover edges (the diamond).
        assert_eq!(dot.matches("label=").count(), 4);
        assert_eq!(dot.matches("->").count(), 4);
        assert!(dot.contains("T0"));
        assert!(dot.contains("L1"));
    }
}
