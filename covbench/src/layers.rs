//! Per-layer numbers every traced run shares: registry counter deltas
//! read at the benchmark's call boundaries, one reach pass per workload
//! network and domain, the interval kernel pass, content hashing, and the
//! trace export.

use crate::common::{Outcome, RunConfig};
use crate::stats;
use crate::trace::Tracer;
use covern_absint::{reach_boxes, BoxDomain, DomainKind};
use covern_nn::Network;
use std::time::Instant;

/// A snapshot of the process-wide registry counters the layers report.
pub struct Counters(Vec<(&'static str, f64)>);

impl Counters {
    /// Reads the counters now.
    pub fn read() -> Self {
        let m = covern_observe::metrics();
        let steps = m.closedloop_steps_total.get() as f64;
        let step_hits = m.closedloop_step_cache_hits_total.get() as f64;
        Self(vec![
            ("absint.bnb_runs", m.bnb_runs_total.get() as f64),
            ("absint.bnb_splits", m.bnb_splits_total.get() as f64),
            ("absint.bnb_leaves_revalidated", m.bnb_leaves_revalidated_total.get() as f64),
            ("absint.bnb_leaves_reseeded", m.bnb_leaves_reseeded_total.get() as f64),
            ("tensor.kernel_compiles", m.kernel_compiles_total.get() as f64),
            ("tensor.kernel_invalidations", m.kernel_invalidations_total.get() as f64),
            ("campaign.singleflight_waits", m.cache_singleflight_waits_total.get() as f64),
            ("campaign.proof_warmstart_hits", m.proof_warmstart_hits_total.get() as f64),
            ("campaign.proof_warmstart_misses", m.proof_warmstart_misses_total.get() as f64),
            ("closedloop.steps_computed", steps - step_hits),
            ("closedloop.steps_reused", step_hits),
            ("closedloop.layers_reused", m.closedloop_layer_cache_hits_total.get() as f64),
            ("closedloop.order_reductions", m.closedloop_order_reductions_total.get() as f64),
        ])
    }
}

/// Records every counter's growth since `before`.
pub fn counters_since(before: &Counters, out: &mut Outcome) {
    for ((name, now), (_, then)) in Counters::read().0.iter().zip(&before.0) {
        out.set(name, now - then);
    }
}

/// Median of `reps` timings of `f`, in µs.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// One reach pass per network and domain (summed over the networks), the
/// interval pass and its multiply-adds over the largest network, and the
/// mean content-hash time per network.
pub fn probe(nets: &[(&Network, &BoxDomain)], out: &mut Outcome) {
    for (kind, name) in [
        (DomainKind::Box, "box"),
        (DomainKind::Symbolic, "symbolic"),
        (DomainKind::Zonotope, "zonotope"),
    ] {
        let total: f64 = nets
            .iter()
            .map(|(net, din)| {
                time_us(3, || {
                    std::hint::black_box(
                        reach_boxes(net, din, kind).expect("reach on a workload network"),
                    );
                })
            })
            .sum();
        out.set(&format!("absint.reach_us.{name}"), total);
    }
    let (big, din) =
        nets.iter().max_by_key(|(n, _)| n.num_params()).expect("a workload has networks");
    // The box transformer's layer pass is the public face of the interval
    // kernel: one fused interval affine map plus the activation per layer.
    let pass = time_us(101, || {
        let mut b = (*din).clone();
        for layer in big.layers() {
            b = b.through_layer(layer).expect("dims match");
        }
        std::hint::black_box(b);
    });
    out.set("tensor.interval_pass_us", pass);
    // Each weight feeds two products into each bound of the image.
    let macs: usize = big.layers().iter().map(|l| 4 * l.in_dim() * l.out_dim()).sum();
    out.set("tensor.computed_macs_per_pass", macs as f64);
    let hash: f64 = nets
        .iter()
        .map(|(net, _)| {
            time_us(21, || {
                std::hint::black_box(covern_nn::serialize::content_hash(net));
            })
        })
        .sum::<f64>()
        / nets.len() as f64;
    out.set("nn.content_hash_us", hash);
}

/// Writes the trace of a run, with the counts read at the same boundaries,
/// to `<out_dir>/trace-<workload>-<seed>.json`.
pub fn write_trace(
    cfg: &RunConfig,
    workload: &str,
    tracer: &Tracer,
    out: &Outcome,
) -> Result<(), String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let path = cfg.out_dir.join(format!("trace-{workload}-{}.json", cfg.seed));
    let json = crate::trace::export_json(&tracer.spans(), &out.metrics);
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}
