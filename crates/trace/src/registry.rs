//! Function-name interning.
//!
//! ParLOT assigns every instrumented function a dense integer ID and
//! stores the name table once per execution; trace files then contain
//! only IDs. [`FunctionRegistry`] plays that role here. It is shared
//! (behind an `Arc`) between all simulated processes/threads of one
//! execution so that the *same* function gets the *same* ID everywhere —
//! a property the FCA stage relies on when comparing traces.

use parking_lot::RwLock;
use std::collections::HashMap;

/// Dense identifier of an instrumented function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnId(pub u32);

impl FnId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Default)]
struct Inner {
    names: Vec<String>,
    by_name: HashMap<String, u32>,
}

/// Thread-safe, append-only intern table of function names.
#[derive(Debug, Default)]
pub struct FunctionRegistry {
    inner: RwLock<Inner>,
}

impl FunctionRegistry {
    /// An empty registry.
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Intern `name`, returning its (possibly pre-existing) ID.
    pub fn intern(&self, name: &str) -> FnId {
        if let Some(id) = self.inner.read().by_name.get(name) {
            return FnId(*id);
        }
        let mut inner = self.inner.write();
        // Double-check: another thread may have interned it between the
        // read unlock and the write lock.
        if let Some(id) = inner.by_name.get(name) {
            return FnId(*id);
        }
        let id = inner.names.len() as u32;
        inner.names.push(name.to_string());
        inner.by_name.insert(name.to_string(), id);
        FnId(id)
    }

    /// Look up an existing ID without interning.
    pub fn resolve(&self, name: &str) -> Option<FnId> {
        self.inner.read().by_name.get(name).copied().map(FnId)
    }

    /// The name of `id`. Panics if the ID was not produced by this
    /// registry.
    pub fn name(&self, id: FnId) -> String {
        self.inner.read().names[id.index()].clone()
    }

    /// Number of interned functions.
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// Every event symbol of this registry's functions
    /// ([`crate::TraceEvent::to_symbol`]) is below this: `2 × len`.
    pub fn symbol_bound(&self) -> u64 {
        2 * self.len() as u64
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all names, indexed by `FnId`.
    pub fn names(&self) -> Vec<String> {
        self.inner.read().names.clone()
    }

    /// Rebuild a registry from an ordered name table (used by the trace
    /// store when loading from disk).
    pub fn from_names<I: IntoIterator<Item = String>>(names: I) -> FunctionRegistry {
        let reg = FunctionRegistry::new();
        {
            let mut inner = reg.inner.write();
            for (i, n) in names.into_iter().enumerate() {
                inner.by_name.insert(n.clone(), i as u32);
                inner.names.push(n);
            }
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn intern_is_idempotent() {
        let r = FunctionRegistry::new();
        let a = r.intern("MPI_Send");
        let b = r.intern("MPI_Recv");
        let a2 = r.intern("MPI_Send");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(r.name(a), "MPI_Send");
        assert_eq!(r.resolve("MPI_Recv"), Some(b));
        assert_eq!(r.resolve("nope"), None);
    }

    #[test]
    fn from_names_round_trip() {
        let r = FunctionRegistry::new();
        r.intern("a");
        r.intern("b");
        r.intern("c");
        let r2 = FunctionRegistry::from_names(r.names());
        assert_eq!(r2.len(), 3);
        assert_eq!(r2.resolve("b"), Some(FnId(1)));
        assert_eq!(r2.name(FnId(2)), "c");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let r = Arc::new(FunctionRegistry::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for i in 0..100 {
                    // Heavy collision across threads on the shared names.
                    ids.push(r.intern(&format!("fn_{}", i % 25)));
                    let _ = t;
                }
                ids
            }));
        }
        let all: Vec<Vec<FnId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread must agree on every name's ID.
        for ids in &all[1..] {
            assert_eq!(ids, &all[0]);
        }
        assert_eq!(r.len(), 25);
    }
}
