//! MPI request-lifecycle and collective-signature vocabulary.
//!
//! `reqcheck` counts ordinary MPI call names that every trace already
//! contains: `MPI_Isend`/`MPI_Irecv` post a nonblocking request,
//! `MPI_Wait` completes one, `MPI_Finalize` closes the epoch, and the
//! collective calls ([`collective_kind`]) form the per-rank collective
//! *order*. Two extra marker families carry information the plain names
//! cannot:
//!
//! * `mpi_coll@<kind:count:root:op>` — the canonical argument signature
//!   of a collective call, traced as a leaf immediately inside the call
//!   so divergent arguments (RQ003) are visible even when every rank
//!   agrees on the collective *kind*.
//! * `mpi_req_pending@<origin>` — emitted at rank teardown for every
//!   request that was posted but never waited on, so an RQ001 witness
//!   names the leaking call site instead of inferring it from stream
//!   end.
//!
//! Like the `omp_*@` race vocabulary, both are ordinary interned
//! function names: persistence, NLR folding, and FCA mining handle them
//! with no special cases; only `reqcheck` parses them back with
//! [`ReqMarker::parse`].

use std::fmt;

/// Call names that post a nonblocking request.
pub const POST_MARKERS: [&str; 2] = ["MPI_Isend", "MPI_Irecv"];

/// Call name that completes a nonblocking request.
pub const WAIT_MARKER: &str = "MPI_Wait";

/// Call name that closes the MPI epoch.
pub const FINALIZE_MARKER: &str = "MPI_Finalize";

/// The MPI collective call names `reqcheck` orders ranks by. Mirrors
/// the simulator's collective surface but is deliberately a plain name
/// list so `dt-trace` (and `dt-reqcheck`) stay independent of `mpisim`.
pub const COLLECTIVE_MARKERS: [&str; 7] = [
    "MPI_Barrier",
    "MPI_Bcast",
    "MPI_Reduce",
    "MPI_Allreduce",
    "MPI_Allgather",
    "MPI_Gather",
    "MPI_Scatter",
];

/// Does `name` post a nonblocking request?
pub fn posts_request(name: &str) -> bool {
    POST_MARKERS.contains(&name)
}

/// The canonical collective kind for a plain MPI call name (the name
/// itself), or `None` if the name is not a collective.
pub fn collective_kind(name: &str) -> Option<&'static str> {
    COLLECTIVE_MARKERS.iter().find(|&&m| m == name).copied()
}

/// One reqcheck marker, as encoded in a leaf function name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReqMarker {
    /// Canonical collective argument signature
    /// (`mpi_coll@kind:count:root:op`); root and op are `-` where the
    /// collective has none.
    CollSig(String),
    /// A request posted but never waited on, exported at rank teardown
    /// (`mpi_req_pending@origin`).
    Pending(String),
}

impl ReqMarker {
    /// Build the signature marker for a collective call. `root` and
    /// `op` render as `-` when the collective has neither.
    pub fn coll_sig(kind: &str, count: usize, root: Option<u32>, op: Option<&str>) -> ReqMarker {
        let root = root.map_or_else(|| "-".to_string(), |r| r.to_string());
        let op = op.unwrap_or("-");
        ReqMarker::CollSig(format!("{kind}:{count}:{root}:{op}"))
    }

    /// The marker function name this traces as.
    pub fn marker_name(&self) -> String {
        match self {
            ReqMarker::CollSig(sig) => format!("mpi_coll@{sig}"),
            ReqMarker::Pending(origin) => format!("mpi_req_pending@{origin}"),
        }
    }

    /// Parse a function name back into the marker it encodes.
    /// Non-marker names return `None`.
    pub fn parse(name: &str) -> Option<ReqMarker> {
        let rest = name.strip_prefix("mpi_")?;
        let (verb, target) = rest.split_once('@')?;
        if target.is_empty() {
            return None;
        }
        match verb {
            "coll" => Some(ReqMarker::CollSig(target.to_string())),
            "req_pending" => Some(ReqMarker::Pending(target.to_string())),
            _ => None,
        }
    }

    /// The marker payload (signature or origin).
    pub fn target(&self) -> &str {
        match self {
            ReqMarker::CollSig(s) | ReqMarker::Pending(s) => s,
        }
    }
}

impl fmt::Display for ReqMarker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.marker_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_names_roundtrip() {
        for m in [
            ReqMarker::coll_sig("MPI_Allreduce", 4, None, Some("sum")),
            ReqMarker::coll_sig("MPI_Bcast", 1, Some(0), None),
            ReqMarker::coll_sig("MPI_Barrier", 0, None, None),
            ReqMarker::Pending("MPI_Isend:dst=1,tag=7".into()),
        ] {
            assert_eq!(ReqMarker::parse(&m.marker_name()), Some(m.clone()));
            assert_eq!(m.to_string(), m.marker_name());
        }
    }

    #[test]
    fn coll_sig_payload_is_canonical() {
        assert_eq!(
            ReqMarker::coll_sig("MPI_Allreduce", 4, None, Some("sum")).target(),
            "MPI_Allreduce:4:-:sum"
        );
        assert_eq!(
            ReqMarker::coll_sig("MPI_Reduce", 2, Some(3), Some("max")).target(),
            "MPI_Reduce:2:3:max"
        );
        assert_eq!(
            ReqMarker::coll_sig("MPI_Barrier", 0, None, None).target(),
            "MPI_Barrier:0:-:-"
        );
    }

    #[test]
    fn non_markers_do_not_parse() {
        for name in [
            "MPI_Send",
            "MPI_Isend",
            "MPI_Wait",
            "mpi_coll",
            "mpi_coll@",
            "mpi_frob@x",
            "coll@x",
            "omp_read@x",
            "compute",
        ] {
            assert_eq!(ReqMarker::parse(name), None, "{name}");
        }
    }

    #[test]
    fn plain_name_classifiers() {
        assert!(posts_request("MPI_Isend"));
        assert!(posts_request("MPI_Irecv"));
        assert!(!posts_request("MPI_Wait"));
        assert_eq!(collective_kind("MPI_Allreduce"), Some("MPI_Allreduce"));
        assert_eq!(collective_kind("MPI_Send"), None);
        assert_eq!(collective_kind("mpi_coll@x"), None);
    }

    #[test]
    fn markers_survive_the_dtts_roundtrip() {
        use crate::store;
        use crate::{FunctionRegistry, TraceCollector, TraceId};
        use std::sync::Arc;

        let registry = Arc::new(FunctionRegistry::new());
        let collector = TraceCollector::shared(registry.clone());
        let tracer = collector.tracer(TraceId::new(0, 0));
        tracer.leaf(&ReqMarker::coll_sig("MPI_Allreduce", 4, None, Some("sum")).marker_name());
        tracer.leaf(&ReqMarker::Pending("MPI_Irecv:src=2,tag=9".into()).marker_name());
        tracer.finish();
        let set = collector.into_trace_set();

        let dir = std::env::temp_dir().join(format!("dtts_req_roundtrip_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("req.dtts");
        store::save(&set, &path).unwrap();
        let loaded = store::IndexedSet::open(&path).unwrap().full_set().unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let t = loaded.get(TraceId::new(0, 0)).unwrap();
        let ops: Vec<Option<ReqMarker>> = t
            .calls()
            .map(|e| ReqMarker::parse(&loaded.registry.name(e.fn_id())))
            .collect();
        assert_eq!(
            ops,
            vec![
                Some(ReqMarker::CollSig("MPI_Allreduce:4:-:sum".into())),
                Some(ReqMarker::Pending("MPI_Irecv:src=2,tag=9".into())),
            ]
        );
    }
}
