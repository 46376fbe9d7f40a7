//! Pieces every workload shares: the run configuration, the metric
//! catalog, the result a workload hands back, and the correctness checks
//! that replay verdicts concretely.

use covern_absint::BoxDomain;
use covern_nn::Network;
use covern_tensor::{Matrix, Rng};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `covern_cli` executable (daemon workload only).
    pub cli: Option<PathBuf>,
    /// Where traces and daemon logs are written.
    pub out_dir: PathBuf,
}

/// End-to-end metrics and their units, in print order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("open_p50_ms", "ms"),
    ("verdict_gmean_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("deltas_per_s", "1/s"),
    ("scenarios_per_s", "1/s"),
    ("slo_miss_share", "share"),
    ("proved_share", "share"),
    ("reuse_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// The escalation-chain rungs, in the order the pipeline tries them.
pub const RUNGS: [&str; 7] = ["prop1", "prop3", "prop2", "prop4", "prop5", "fixing", "full"];

/// Per-layer metrics and their units, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for r in RUNGS {
        out.push((format!("core.rung_attempts.{r}"), "count"));
    }
    for r in RUNGS {
        out.push((format!("core.rung_decided.{r}"), "count"));
    }
    for r in RUNGS {
        out.push((format!("core.rung_ms.{r}"), "ms"));
    }
    let fixed: [(&str, &'static str); 37] = [
        ("core.full_baseline_ms", "ms"),
        ("core.table1_ratio.svudc", "ratio"),
        ("core.table1_ratio.svbtv", "ratio"),
        ("absint.reach_us.box", "us"),
        ("absint.reach_us.symbolic", "us"),
        ("absint.reach_us.zonotope", "us"),
        ("absint.bnb_runs", "count"),
        ("absint.bnb_splits", "count"),
        ("absint.bnb_leaves_revalidated", "count"),
        ("absint.bnb_leaves_reseeded", "count"),
        ("tensor.interval_pass_us", "us"),
        ("tensor.computed_macs_per_pass", "count"),
        ("tensor.kernel_compiles", "count"),
        ("tensor.kernel_invalidations", "count"),
        ("nn.content_hash_us", "us"),
        ("campaign.cache_hits", "count"),
        ("campaign.cache_misses", "count"),
        ("campaign.singleflight_waits", "count"),
        ("campaign.proof_warmstart_hits", "count"),
        ("campaign.proof_warmstart_misses", "count"),
        ("campaign.scenario_ms_p50", "ms"),
        ("campaign.worker_busy_share", "share"),
        ("closedloop.tube_ms_p50", "ms"),
        ("closedloop.steps_computed", "count"),
        ("closedloop.steps_reused", "count"),
        ("closedloop.layers_reused", "count"),
        ("closedloop.order_reductions", "count"),
        ("service.server_us_p50", "us"),
        ("service.verify_us_p50", "us"),
        ("service.inbox_wait_us_p50", "us"),
        ("service.transport_us_p50", "us"),
        ("service.busy_replies", "count"),
        ("service.protocol_errors", "count"),
        ("service.generator_lag_ms", "ms"),
        ("trace.overhead_share", "share"),
        ("trace.sum_check_error_share", "share"),
        ("trace.spans", "count"),
    ];
    out.extend(fixed.iter().map(|(n, u)| ((*n).to_owned(), *u)));
    out
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Deltas and requests attempted.
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    /// Metric values by catalog name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable notes printed above the result line.
    pub notes: Vec<String>,
    /// Correctness-gate violations; any one fails the run.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Records a gate violation (the first few are kept verbatim).
    pub fn violate(&mut self, what: String) {
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }
}

/// The machine's parallelism, the benchmark's thread and connection cap.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size in MB of a process (`None`: this one), from
/// `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds of CPU time this process has used, all threads together
/// (`CLOCK_PROCESS_CPUTIME_ID`). On a virtual machine whose host takes the
/// vCPU away, this leaves out the stolen time that wall time counts.
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime writes one timespec through a valid pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// Concretely samples a `Proved` verdict: the box corners it can afford,
/// the center and `random` uniform points of `din`, run through
/// `forward_batch`, must all land in `dout` (up to `tol`). Returns the
/// first violating point.
pub fn sample_proved(
    net: &Network,
    din: &BoxDomain,
    dout: &BoxDomain,
    random: usize,
    rng: &mut Rng,
) -> Result<(), Vec<f64>> {
    const TOL: f64 = 1e-6;
    let mut points = din.sample_points(16);
    for _ in 0..random {
        points.push(din.intervals().iter().map(|iv| rng.uniform(iv.lo(), iv.hi())).collect());
    }
    let rows: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
    let out = net.forward_batch(&Matrix::from_rows(&rows)).expect("din matches the network");
    let wide = dout.dilate(TOL);
    for (p, point) in points.iter().enumerate() {
        if !wide.contains(out.row(p)) {
            return Err(point.clone());
        }
    }
    Ok(())
}

/// Whether a `Refuted` witness replays: it lies in `din` and the network
/// maps it outside `dout`.
pub fn witness_replays(net: &Network, din: &BoxDomain, dout: &BoxDomain, w: &[f64]) -> bool {
    din.dilate(1e-9).contains(w) && net.forward(w).is_ok_and(|y| !dout.contains(&y))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must name exactly the metrics the benchmark prints,
    /// with the same units.
    #[test]
    fn benchmark_json_lists_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = text.matches("\"name\": ").count();
        let catalog: Vec<(String, &str)> =
            END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), *u)).chain(per_layer()).collect();
        for (name, unit) in &catalog {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{name} [{unit}] missing from BENCHMARK.json");
        }
        let workloads = text.matches("\"why\": ").count();
        assert_eq!(
            listed,
            catalog.len() + workloads,
            "BENCHMARK.json lists metrics the benchmark does not print"
        );
    }
}
