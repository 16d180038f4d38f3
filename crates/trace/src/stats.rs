//! Trace statistics, reproducing the measurements of §V of the paper
//! (distinct functions per process, compressed bytes per thread,
//! decompressed calls per process).

use crate::compress::{self, CompressionStats};
use crate::trace::{TraceId, TraceSet};
use std::collections::HashSet;

/// Statistics of a single per-thread trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Which trace.
    pub id: TraceId,
    /// Total events (calls + returns).
    pub events: usize,
    /// Call events only.
    pub calls: usize,
    /// Distinct functions appearing in the trace.
    pub distinct_functions: usize,
    /// Compression of the event symbol stream.
    pub compression: CompressionStats,
}

/// Per-process aggregate (the paper reports per-process averages).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessStats {
    /// The rank.
    pub process: u32,
    /// Number of threads traced for this rank.
    pub threads: usize,
    /// Total calls across the rank's threads.
    pub calls: usize,
    /// Distinct functions across the rank's threads.
    pub distinct_functions: usize,
    /// Total compressed bytes across the rank's threads.
    pub compressed_bytes: usize,
}

/// Whole-execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSetStats {
    /// Per-thread breakdown, in `TraceId` order.
    pub per_trace: Vec<TraceStats>,
    /// Per-process aggregates, in rank order.
    pub per_process: Vec<ProcessStats>,
}

impl TraceSetStats {
    /// Measure every trace in `set` (compresses each stream).
    pub fn measure(set: &TraceSet) -> TraceSetStats {
        let mut per_trace = Vec::new();
        for t in set.iter() {
            let blob = compress::compress(&t.events);
            let distinct: HashSet<u32> = t.iter().map(|e| e.fn_id().0).collect();
            per_trace.push(TraceStats {
                id: t.id,
                events: t.events.len(),
                calls: t.calls().count(),
                distinct_functions: distinct.len(),
                compression: CompressionStats::measure(&t.events, &blob),
            });
        }

        let mut per_process: Vec<ProcessStats> = Vec::new();
        for p in set.processes() {
            let mut distinct: HashSet<u32> = HashSet::new();
            for t in set.process_traces(p) {
                distinct.extend(t.iter().map(|e| e.fn_id().0));
            }
            let traces: Vec<&TraceStats> = per_trace.iter().filter(|s| s.id.process == p).collect();
            per_process.push(ProcessStats {
                process: p,
                threads: traces.len(),
                calls: traces.iter().map(|s| s.calls).sum(),
                distinct_functions: distinct.len(),
                compressed_bytes: traces.iter().map(|s| s.compression.compressed_bytes).sum(),
            });
        }
        TraceSetStats {
            per_trace,
            per_process,
        }
    }

    /// Average calls per process (the paper's "421503 function calls on
    /// average per process").
    pub fn avg_calls_per_process(&self) -> f64 {
        if self.per_process.is_empty() {
            return 0.0;
        }
        self.per_process.iter().map(|p| p.calls as f64).sum::<f64>() / self.per_process.len() as f64
    }

    /// Average distinct functions per process (the paper's "410 distinct
    /// function calls on average per process").
    pub fn avg_distinct_per_process(&self) -> f64 {
        if self.per_process.is_empty() {
            return 0.0;
        }
        self.per_process
            .iter()
            .map(|p| p.distinct_functions as f64)
            .sum::<f64>()
            / self.per_process.len() as f64
    }

    /// Average compressed bytes per thread (the paper's "less than
    /// 2.8 KB on average per thread").
    pub fn avg_compressed_bytes_per_thread(&self) -> f64 {
        if self.per_trace.is_empty() {
            return 0.0;
        }
        self.per_trace
            .iter()
            .map(|t| t.compression.compressed_bytes as f64)
            .sum::<f64>()
            / self.per_trace.len() as f64
    }

    /// Overall compression ratio (Σ raw / Σ compressed).
    pub fn overall_ratio(&self) -> f64 {
        let raw: usize = self.per_trace.iter().map(|t| t.compression.raw_bytes).sum();
        let comp: usize = self
            .per_trace
            .iter()
            .map(|t| t.compression.compressed_bytes)
            .sum();
        if comp == 0 {
            0.0
        } else {
            raw as f64 / comp as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::registry::FunctionRegistry;
    use crate::trace::Trace;
    use std::sync::Arc;

    fn loopy_set() -> TraceSet {
        let reg = Arc::new(FunctionRegistry::new());
        let mut set = TraceSet::new(reg.clone());
        for p in 0..2u32 {
            for th in 0..2u32 {
                let mut t = Trace::new(TraceId::new(p, th));
                let a = reg.intern("kernelA");
                let b = reg.intern("kernelB");
                for _ in 0..1000 {
                    t.push(TraceEvent::Call(a));
                    t.push(TraceEvent::Return(a));
                    t.push(TraceEvent::Call(b));
                    t.push(TraceEvent::Return(b));
                }
                set.insert(t);
            }
        }
        set
    }

    #[test]
    fn per_trace_and_per_process_counts() {
        let stats = TraceSetStats::measure(&loopy_set());
        assert_eq!(stats.per_trace.len(), 4);
        assert_eq!(stats.per_process.len(), 2);
        for t in &stats.per_trace {
            assert_eq!(t.events, 4000);
            assert_eq!(t.calls, 2000);
            assert_eq!(t.distinct_functions, 2);
        }
        for p in &stats.per_process {
            assert_eq!(p.threads, 2);
            assert_eq!(p.calls, 4000);
            assert_eq!(p.distinct_functions, 2);
        }
        assert!((stats.avg_calls_per_process() - 4000.0).abs() < 1e-9);
        assert!((stats.avg_distinct_per_process() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn loopy_traces_compress_well() {
        let stats = TraceSetStats::measure(&loopy_set());
        assert!(
            stats.overall_ratio() > 100.0,
            "ratio {} too low",
            stats.overall_ratio()
        );
        assert!(stats.avg_compressed_bytes_per_thread() < 200.0);
    }

    #[test]
    fn empty_set_is_all_zero() {
        let set = TraceSet::new(Arc::new(FunctionRegistry::new()));
        let stats = TraceSetStats::measure(&set);
        assert_eq!(stats.avg_calls_per_process(), 0.0);
        assert_eq!(stats.avg_distinct_per_process(), 0.0);
        assert_eq!(stats.avg_compressed_bytes_per_thread(), 0.0);
        assert_eq!(stats.overall_ratio(), 0.0);
    }
}
