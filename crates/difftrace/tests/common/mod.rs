//! Every corpus `difftrace demo` writes, rebuilt in process from the
//! workloads' demo catalogue: the normal and faulty run of each pair
//! workload (one registry per pair, as the CLI records them) and every
//! run of each fleet workload.

use dt_trace::{FunctionRegistry, TraceSet};
use std::sync::Arc;
use workloads::{demo_fleet, demo_pair, DEMO_FLEETS, DEMO_PAIRS};

/// `(name, traces)` of every demo corpus, in catalogue order.
pub fn demo_runs() -> Vec<(String, TraceSet)> {
    let mut out = Vec::new();
    for name in DEMO_PAIRS {
        let registry = Arc::new(FunctionRegistry::new());
        let (normal, faulty) = demo_pair(name, &registry).expect("catalogued pair");
        out.push((format!("{name}/normal"), normal.traces));
        out.push((format!("{name}/faulty"), faulty.traces));
    }
    for fleet in DEMO_FLEETS {
        for (name, run) in demo_fleet(fleet).expect("catalogued fleet") {
            out.push((format!("{fleet}/{name}"), run.traces));
        }
    }
    out
}
