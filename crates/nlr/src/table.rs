//! The global table of distinct loop bodies.
//!
//! The paper (§III-A): *"We store all distinct loop bodies in a
//! hash-table, assigning each a unique ID, which can be applied as a
//! heuristic to detect loops not only in the current trace but also in
//! other traces of the same execution."* Sharing one `LoopTable` across
//! all traces of an execution (and across the normal/faulty pair!) is
//! what makes `L0` comparable between traces in Tables III/IV and in
//! diffNLR.

use crate::element::{Element, LoopId};
use std::collections::HashMap;

/// Interning table: loop body (element sequence) → [`LoopId`].
#[derive(Debug, Clone, Default)]
pub struct LoopTable {
    bodies: Vec<Vec<Element>>,
    by_body: HashMap<Vec<Element>, LoopId>,
}

impl LoopTable {
    /// An empty table.
    pub fn new() -> LoopTable {
        LoopTable::default()
    }

    /// Intern `body`, returning its (possibly pre-existing) ID.
    pub fn intern(&mut self, body: Vec<Element>) -> LoopId {
        if let Some(&id) = self.by_body.get(&body) {
            return id;
        }
        let id = LoopId(self.bodies.len() as u32);
        self.bodies.push(body.clone());
        self.by_body.insert(body, id);
        id
    }

    /// Look up a body without interning.
    pub fn resolve(&self, body: &[Element]) -> Option<LoopId> {
        self.by_body.get(body).copied()
    }

    /// The body of `id`. Panics on a foreign ID.
    pub fn body(&self, id: LoopId) -> &[Element] {
        &self.bodies[id.0 as usize]
    }

    /// Number of distinct bodies.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// True if no bodies have been interned.
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// The bodies in ID order, dropping the dedup index.
    pub(crate) fn into_bodies(self) -> Vec<Vec<Element>> {
        self.bodies
    }

    /// Fully expanded body of `id` (recursing through nested loops),
    /// as the flat symbol sequence one iteration produces.
    pub fn expanded_body(&self, id: LoopId) -> Vec<u32> {
        let mut out = Vec::new();
        self.expand_body_into(id, &mut out);
        out
    }

    fn expand_body_into(&self, id: LoopId, out: &mut Vec<u32>) {
        for &e in self.body(id) {
            match e {
                Element::Sym(s) => out.push(s),
                Element::Loop { body, count } => {
                    for _ in 0..count {
                        self.expand_body_into(body, out);
                    }
                }
            }
        }
    }

    /// Nesting depth of `id`'s body: 1 for a flat loop, 2 for a loop
    /// containing loops, etc.
    pub fn depth_of(&self, id: LoopId) -> usize {
        1 + self
            .body(id)
            .iter()
            .map(|e| match e {
                Element::Sym(_) => 0,
                Element::Loop { body, .. } => self.depth_of(*body),
            })
            .max()
            .unwrap_or(0)
    }

    /// Render a body one level deep, with a symbol-name resolver:
    /// `[MPI_Send - MPI_Recv]`, nested loops shown by ID.
    pub fn render_body<F: Fn(u32) -> String>(&self, id: LoopId, name: &F) -> String {
        let parts: Vec<String> = self
            .body(id)
            .iter()
            .map(|e| match e {
                Element::Sym(s) => name(*s),
                Element::Loop { body, count } => format!("{body} ^ {count}"),
            })
            .collect();
        format!("[{}]", parts.join(" - "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut t = LoopTable::new();
        let a = t.intern(vec![Element::Sym(1), Element::Sym(2)]);
        let b = t.intern(vec![Element::Sym(2), Element::Sym(1)]);
        let a2 = t.intern(vec![Element::Sym(1), Element::Sym(2)]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(&[Element::Sym(1), Element::Sym(2)]), Some(a));
        assert_eq!(t.resolve(&[Element::Sym(9)]), None);
    }

    #[test]
    fn expanded_body_recurses() {
        let mut t = LoopTable::new();
        let inner = t.intern(vec![Element::Sym(5)]);
        let outer = t.intern(vec![
            Element::Loop {
                body: inner,
                count: 3,
            },
            Element::Sym(6),
        ]);
        assert_eq!(t.expanded_body(outer), vec![5, 5, 5, 6]);
    }

    #[test]
    fn render_matches_paper_style() {
        let mut t = LoopTable::new();
        let id = t.intern(vec![Element::Sym(0), Element::Sym(1)]);
        let name = |s: u32| {
            if s == 0 {
                "MPI_Send".to_string()
            } else {
                "MPI_Recv".to_string()
            }
        };
        assert_eq!(t.render_body(id, &name), "[MPI_Send - MPI_Recv]");
    }
}
