//! Formal contexts `K = (G, M, I)` with optionally weighted incidence.

use crate::bitset::BitSet;
use std::collections::{BTreeMap, HashMap};

/// Dense attribute identifier within one context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u32);

impl AttrId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A formal context: objects (trace labels), interned attributes, and
/// one weighted attribute row per object — the incidence relation and
/// the per-(object, attribute) weights in one store.
///
/// Weights implement the paper's Table V frequency modes: under
/// `noFreq` every weight is 1.0 and similarity degenerates to set
/// Jaccard; under `actual`/`log10` the weights carry (a function of)
/// the observed attribute frequency.
#[derive(Debug, Clone, Default)]
pub struct FormalContext {
    attr_names: Vec<String>,
    attr_ids: HashMap<String, AttrId>,
    object_labels: Vec<String>,
    /// Per object: its incident attributes with their weights, sorted
    /// by id, each id once.
    rows: Vec<Vec<(AttrId, f64)>>,
}

impl FormalContext {
    /// An empty context.
    pub fn new() -> FormalContext {
        FormalContext::default()
    }

    /// Intern an attribute name.
    pub fn intern_attr(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.attr_ids.get(name) {
            return id;
        }
        let id = AttrId(self.attr_names.len() as u32);
        self.attr_names.push(name.to_string());
        self.attr_ids.insert(name.to_string(), id);
        id
    }

    /// The name of an attribute.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attr_names[id.index()]
    }

    /// Look up an attribute without interning.
    pub fn resolve_attr(&self, name: &str) -> Option<AttrId> {
        self.attr_ids.get(name).copied()
    }

    /// Add an object with `(attribute, weight)` pairs. Returns its index.
    /// A repeated attribute is one incidence; its last weight wins.
    pub fn add_object<'a, I>(&mut self, label: &str, attrs: I) -> usize
    where
        I: IntoIterator<Item = (&'a str, f64)>,
    {
        let mut row = BTreeMap::new();
        for (name, weight) in attrs {
            row.insert(self.intern_attr(name), weight);
        }
        self.object_labels.push(label.to_string());
        self.rows.push(row.into_iter().collect());
        self.object_labels.len() - 1
    }

    /// Add an object whose attributes all weigh 1.0 (`noFreq`).
    pub fn add_object_unweighted<'a, I>(&mut self, label: &str, attrs: I) -> usize
    where
        I: IntoIterator<Item = &'a str>,
    {
        self.add_object(label, attrs.into_iter().map(|a| (a, 1.0)))
    }

    /// Number of objects `|G|`.
    pub fn num_objects(&self) -> usize {
        self.object_labels.len()
    }

    /// Number of attributes `|M|`.
    pub fn num_attrs(&self) -> usize {
        self.attr_names.len()
    }

    /// Label of object `g`.
    pub fn object_label(&self, g: usize) -> &str {
        &self.object_labels[g]
    }

    /// The attribute row of object `g`: `(attribute, weight)` sorted
    /// by id — the input of [`crate::weighted_jaccard`].
    pub fn row(&self, g: usize) -> &[(AttrId, f64)] {
        &self.rows[g]
    }

    /// Attribute set of object `g`.
    pub fn object_attrs(&self, g: usize) -> BitSet {
        BitSet::from_indices(self.rows[g].iter().map(|(m, _)| m.index()))
    }

    /// Weight of `(g, m)`; 0.0 when not incident.
    pub fn weight(&self, g: usize, m: AttrId) -> f64 {
        self.rows[g]
            .binary_search_by_key(&m, |&(id, _)| id)
            .map_or(0.0, |i| self.rows[g][i].1)
    }

    /// Does object `g` have attribute `m`?
    pub fn incident(&self, g: usize, m: AttrId) -> bool {
        self.rows[g].binary_search_by_key(&m, |&(id, _)| id).is_ok()
    }

    /// Export as CSV: header `object,<attr>,…`; cells carry the weight
    /// (0 = not incident). Interops with pandas/ConExp-style tools.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("object");
        for a in &self.attr_names {
            out.push(',');
            out.push_str(&a.replace(',', ";"));
        }
        out.push('\n');
        for g in 0..self.num_objects() {
            out.push_str(&self.object_labels[g].replace(',', ";"));
            for m in 0..self.num_attrs() {
                let w = self.weight(g, AttrId(m as u32));
                out.push_str(&format!(",{w}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parse the CSV produced by [`FormalContext::to_csv`] (or any
    /// object×attribute weight table). Zero weights mean not incident.
    pub fn from_csv(csv: &str) -> Result<FormalContext, String> {
        let mut lines = csv.lines();
        let header = lines.next().ok_or("empty CSV")?;
        let attrs: Vec<&str> = header.split(',').skip(1).collect();
        let mut ctx = FormalContext::new();
        for (lineno, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut cells = line.split(',');
            let label = cells.next().ok_or("missing object label")?;
            let mut pairs = Vec::new();
            for (a, cell) in attrs.iter().zip(cells.by_ref()) {
                let w: f64 = cell
                    .trim()
                    .parse()
                    .map_err(|_| format!("line {}: bad weight `{cell}`", lineno + 2))?;
                if w != 0.0 {
                    pairs.push((*a, w));
                }
            }
            if cells.next().is_some() {
                return Err(format!("line {}: too many cells", lineno + 2));
            }
            ctx.add_object(label, pairs);
        }
        Ok(ctx)
    }

    /// Render the cross table (Table IV of the paper) as text.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<12}", ""));
        for a in &self.attr_names {
            out.push_str(&format!("{a:<18}"));
        }
        out.push('\n');
        for g in 0..self.num_objects() {
            out.push_str(&format!("{:<12}", self.object_labels[g]));
            for m in 0..self.num_attrs() {
                let mark = if self.incident(g, AttrId(m as u32)) {
                    "×"
                } else {
                    ""
                };
                out.push_str(&format!("{mark:<18}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_iv() -> FormalContext {
        let mut ctx = FormalContext::new();
        let common = ["MPI_Init", "MPI_Comm_Size", "MPI_Comm_Rank", "MPI_Finalize"];
        for (i, lp) in ["L0", "L1", "L0", "L1"].iter().enumerate() {
            let mut attrs: Vec<&str> = common.to_vec();
            attrs.push(lp);
            ctx.add_object_unweighted(&format!("Trace {i}"), attrs);
        }
        ctx
    }

    #[test]
    fn build_and_query() {
        let ctx = table_iv();
        assert_eq!(ctx.num_objects(), 4);
        assert_eq!(ctx.num_attrs(), 6); // 4 common + L0 + L1
        let l0 = ctx.resolve_attr("L0").unwrap();
        let l1 = ctx.resolve_attr("L1").unwrap();
        assert!(ctx.incident(0, l0));
        assert!(!ctx.incident(0, l1));
        assert!(ctx.incident(1, l1));
        assert_eq!(ctx.object_label(2), "Trace 2");
    }

    #[test]
    fn weights_default_and_explicit() {
        let mut ctx = FormalContext::new();
        ctx.add_object("g0", [("a", 3.0), ("b", 1.0)]);
        ctx.add_object_unweighted("g1", ["a"]);
        let a = ctx.resolve_attr("a").unwrap();
        let b = ctx.resolve_attr("b").unwrap();
        assert_eq!(ctx.weight(0, a), 3.0);
        assert_eq!(ctx.weight(1, a), 1.0);
        assert_eq!(ctx.weight(1, b), 0.0);
    }

    #[test]
    fn repeated_attribute_is_one_incidence_and_last_weight_wins() {
        let mut ctx = FormalContext::new();
        ctx.add_object("g0", [("b", 2.0), ("a", 1.0), ("b", 5.0)]);
        let (a, b) = (
            ctx.resolve_attr("a").unwrap(),
            ctx.resolve_attr("b").unwrap(),
        );
        assert_eq!(b, AttrId(0), "interning follows first appearance");
        assert_eq!(ctx.row(0), &[(b, 5.0), (a, 1.0)]);
        assert_eq!(ctx.object_attrs(0).len(), 2);
    }

    #[test]
    fn attr_interning_shared_across_objects() {
        let ctx = table_iv();
        // All four objects share the id for MPI_Init.
        let init = ctx.resolve_attr("MPI_Init").unwrap();
        for g in 0..4 {
            assert!(ctx.incident(g, init));
        }
    }

    #[test]
    fn csv_round_trip() {
        let mut ctx = FormalContext::new();
        ctx.add_object("T0", [("MPI_Init", 1.0), ("L0", 4.0)]);
        ctx.add_object("T1", [("MPI_Init", 1.0), ("L1", 2.0)]);
        let csv = ctx.to_csv();
        let back = FormalContext::from_csv(&csv).unwrap();
        assert_eq!(back.num_objects(), 2);
        assert_eq!(back.num_attrs(), 3);
        let l0 = back.resolve_attr("L0").unwrap();
        assert_eq!(back.weight(0, l0), 4.0);
        assert!(!back.incident(1, l0));
        // Second round trip is byte-stable.
        assert_eq!(back.to_csv(), csv);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(FormalContext::from_csv("").is_err());
        assert!(FormalContext::from_csv("object,a\ng0,notanumber").is_err());
        assert!(FormalContext::from_csv("object,a\ng0,1,2,3").is_err());
        // Blank lines are tolerated.
        let ok = FormalContext::from_csv("object,a\ng0,1\n\n").unwrap();
        assert_eq!(ok.num_objects(), 1);
    }

    #[test]
    fn render_table_marks_incidence() {
        let ctx = table_iv();
        let t = ctx.render_table();
        assert!(t.contains("Trace 0"));
        assert!(t.contains("MPI_Finalize"));
        assert!(t.contains('×'));
    }
}
