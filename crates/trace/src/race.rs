//! Shared-memory race-event vocabulary.
//!
//! ParLOT records only function call/return events, so the simulated
//! OpenMP runtime encodes its shared-memory activity the same way the
//! GOMP markers already are: as specially-named leaf call/return pairs.
//! A thread that writes the shared variable `counter` traces a call to
//! `omp_write@counter` immediately followed by its return; a lock
//! acquisition of `lockA` traces `omp_acquire@lockA` (the call returns
//! once the lock is held), and so on. Because the markers are ordinary
//! interned function names, every downstream layer — `.dtts`
//! persistence, NLR summarization, FCA mining — handles them with no
//! special cases; only `racecheck` assigns them meaning, by parsing
//! the names back with [`RaceOp::parse`].

use std::fmt;

/// The barrier marker `racecheck` treats as a phase boundary — the
/// same `GOMP_barrier` the OpenMP runtime already traces.
pub const BARRIER_MARKER: &str = "GOMP_barrier";

/// One shared-memory operation, as encoded in a marker function name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceOp {
    /// Read of a named shared variable (`omp_read@var`).
    Read(String),
    /// Write of a named shared variable (`omp_write@var`).
    Write(String),
    /// Acquisition of a named lock (`omp_acquire@lock`); the marker
    /// call returns once the lock is held.
    Acquire(String),
    /// Release of a named lock (`omp_release@lock`).
    Release(String),
}

impl RaceOp {
    /// The marker function name this operation traces as.
    pub fn marker_name(&self) -> String {
        let (verb, name) = match self {
            RaceOp::Read(v) => ("read", v),
            RaceOp::Write(v) => ("write", v),
            RaceOp::Acquire(l) => ("acquire", l),
            RaceOp::Release(l) => ("release", l),
        };
        format!("omp_{verb}@{name}")
    }

    /// Parse a function name back into the operation it encodes.
    /// Non-marker names (anything without the `omp_<verb>@` shape)
    /// return `None`.
    pub fn parse(name: &str) -> Option<RaceOp> {
        let rest = name.strip_prefix("omp_")?;
        let (verb, target) = rest.split_once('@')?;
        if target.is_empty() {
            return None;
        }
        let target = target.to_string();
        match verb {
            "read" => Some(RaceOp::Read(target)),
            "write" => Some(RaceOp::Write(target)),
            "acquire" => Some(RaceOp::Acquire(target)),
            "release" => Some(RaceOp::Release(target)),
            _ => None,
        }
    }

    /// The named target (variable or lock).
    pub fn target(&self) -> &str {
        match self {
            RaceOp::Read(v) | RaceOp::Write(v) | RaceOp::Acquire(v) | RaceOp::Release(v) => v,
        }
    }
}

impl fmt::Display for RaceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.marker_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_names_roundtrip() {
        for op in [
            RaceOp::Read("counter".into()),
            RaceOp::Write("counter".into()),
            RaceOp::Acquire("lockA".into()),
            RaceOp::Release("lock_b".into()),
        ] {
            assert_eq!(RaceOp::parse(&op.marker_name()), Some(op.clone()));
            assert_eq!(op.to_string(), op.marker_name());
        }
    }

    #[test]
    fn non_markers_do_not_parse() {
        for name in [
            "MPI_Send",
            "GOMP_barrier",
            "GOMP_critical_start",
            "omp_read",
            "omp_read@",
            "omp_frob@x",
            "read@x",
            "compute",
        ] {
            assert_eq!(RaceOp::parse(name), None, "{name}");
        }
    }

    #[test]
    fn markers_survive_the_dtts_roundtrip() {
        use crate::store;
        use crate::{FunctionRegistry, TraceCollector, TraceId};
        use std::sync::Arc;

        let registry = Arc::new(FunctionRegistry::new());
        let collector = TraceCollector::shared(registry.clone());
        let tracer = collector.tracer(TraceId::new(0, 1));
        for op in [
            RaceOp::Acquire("l".into()),
            RaceOp::Read("x".into()),
            RaceOp::Write("x".into()),
            RaceOp::Release("l".into()),
        ] {
            tracer.leaf(&op.marker_name());
        }
        tracer.leaf(BARRIER_MARKER);
        tracer.finish();
        let set = collector.into_trace_set();

        let dir = std::env::temp_dir().join(format!("dtts_race_roundtrip_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("race.dtts");
        store::save(&set, &path).unwrap();
        let loaded = store::IndexedSet::open(&path).unwrap().full_set().unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let t = loaded.get(TraceId::new(0, 1)).unwrap();
        let ops: Vec<Option<RaceOp>> = t
            .calls()
            .map(|e| RaceOp::parse(&loaded.registry.name(e.fn_id())))
            .collect();
        assert_eq!(
            ops,
            vec![
                Some(RaceOp::Acquire("l".into())),
                Some(RaceOp::Read("x".into())),
                Some(RaceOp::Write("x".into())),
                Some(RaceOp::Release("l".into())),
                None, // the barrier is a plain GOMP marker
            ]
        );
    }
}
