//! Clocks, process counters, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile `q` ∈ [0, 1] of `sorted` (ascending).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// The smallest sample count whose p90 has at least ten samples beyond it.
pub const P90_MIN_SAMPLES: usize = 100;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time (user + system) of the whole process: every thread, live
/// and exited.
pub fn cpu_time() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time (user + system) of the calling thread.
pub fn thread_cpu_time() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Hand freed heap pages of every malloc arena back to the kernel.
pub fn trim_heap() {
    // SAFETY: glibc's `malloc_trim` only releases free memory.
    unsafe { malloc_trim(0) };
}

/// Trim the heap and restart the peak resident set (VmHWM) from the
/// current one, so that memory freed before this point does not count.
pub fn restart_peak_rss() -> Result<(), String> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Threads of this process, from `/proc/self/status`.
pub fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads in /proc/self/status")
}

/// Seconds since `t` as f64.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t` as f64.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Latencies and counters of one timed window.
pub struct Window {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Process CPU time over the window, less the clients' own.
    pub cpu: Duration,
    pub peak_rss_mb: f64,
}

/// Run `op(i)` back to back until `seconds` have passed and at least
/// [`P90_MIN_SAMPLES`] ops ran. `op` returns whether its output checked
/// out, and the CPU time its client side spent, which the window's CPU
/// time leaves out.
pub fn timed_loop(seconds: f64, mut op: impl FnMut(u64) -> (bool, Duration)) -> Window {
    let cpu0 = cpu_time();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut latencies_ms = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut client_cpu = Duration::ZERO;
    while start.elapsed() < deadline || latencies_ms.len() < P90_MIN_SAMPLES {
        let t = Instant::now();
        let (ok, cpu) = op(attempted);
        latencies_ms.push(ms(t));
        attempted += 1;
        failed += u64::from(!ok);
        client_cpu += cpu;
    }
    Window {
        latencies_ms,
        attempted,
        failed,
        wall_s: secs(start),
        cpu: cpu_time().saturating_sub(cpu0).saturating_sub(client_cpu),
        peak_rss_mb: peak_rss_mb(),
    }
}

impl Window {
    /// The end-to-end metrics, `setup_s` being the median of `setups`.
    /// Fails when too few ops ran for a p90 with ten samples beyond it.
    pub fn end_to_end(&self, setups: &[f64]) -> Result<Metrics, String> {
        let n = self.latencies_ms.len();
        if n < P90_MIN_SAMPLES {
            return Err(format!(
                "only {n} ops in the timed window; p90 needs {P90_MIN_SAMPLES}"
            ));
        }
        let mut s = self.latencies_ms.clone();
        s.sort_by(f64::total_cmp);
        let deciles: Vec<String> = (0..=10)
            .map(|d| format!("{:.1}", quantile(&s, d as f64 / 10.0)))
            .collect();
        println!(
            "op latency deciles over {n} ops (ms): {}",
            deciles.join(" ")
        );
        let mut m = Metrics::default();
        m.put("setup_s", median(setups), "s");
        m.put("op_p50_ms", quantile(&s, 0.5), "ms");
        m.put("op_p90_ms", quantile(&s, 0.9), "ms");
        m.put("ops_per_s", n as f64 / self.wall_s, "1/s");
        m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        Ok(m)
    }

    /// The window's CPU time per op (ms), a per-layer metric: it follows
    /// the host's speed too closely to bound (see README.md).
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e3 / self.attempted.max(1) as f64
    }
}

/// Named metrics with units, in insertion-independent (sorted) order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, (value, unit))) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("string write");
    }
    out.push_str("}}");
    out
}
