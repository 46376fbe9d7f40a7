//! `campaign-fleet`: `CampaignEngine::run` with `nproc` threads over a
//! seeded corpus of many small fine-tune families. Siblings of a family
//! share their original verification (cache hits), tight families
//! warm-start their fine-tune fallbacks from proof checkpoints, singleton
//! families miss, and a fixed share of closed-loop lane-keeping scenarios
//! runs through the tube cache. Per-scenario overhead and the two caches do
//! most of the work here.

use crate::common::{nproc, peak_rss_mb, Outcome, RunConfig};
use crate::layers;
use crate::stats::{self, Attempt};
use crate::trace::{Tracer, NONE};
use covern_absint::{reach_boxes, BoxDomain, DomainKind};
use covern_campaign::report::CampaignReport;
use covern_campaign::{CampaignConfig, CampaignEngine, DeltaEvent, Scenario};
use covern_core::Margin;
use covern_nn::{Activation, Network};
use covern_tensor::{Matrix, Rng};
use covern_vehicle::lateral::{safe_case, LateralParams};
use std::collections::BTreeMap;
use std::time::Instant;

/// Architectures dealt to open-loop families, round-robin.
const FAMILY_DIMS: [&[usize]; 4] = [&[3, 8, 6, 1], &[4, 10, 8, 2], &[3, 12, 8, 1], &[5, 8, 8, 2]];

/// Open-loop families with several fine-tune siblings, and their size.
const SHARED_FAMILIES: usize = 16;
const SIBLINGS: usize = 4;
/// Every fourth shared family has a tight property (proved by refinement).
const TIGHT_EVERY: usize = 4;
/// Families of one scenario: their original verification always misses.
const SINGLETONS: usize = 16;
/// Closed-loop lane-keeping families (of `SIBLINGS` scenarios each).
const LOOP_FAMILIES: usize = 4;

/// An event later than this misses the latency limit. It sits in the gap
/// between the reuse rungs (tens of microseconds per event) and the full
/// fallbacks and closed-loop tubes (about a tenth of a millisecond).
pub const LIMIT_MS: f64 = 0.06;

const SETUP_REPS: usize = 3;

fn output_range(net: &Network, din: &BoxDomain, rng: &mut Rng) -> Vec<(f64, f64)> {
    let rows: Vec<Vec<f64>> = (0..128)
        .map(|_| din.intervals().iter().map(|iv| rng.uniform(iv.lo(), iv.hi())).collect())
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let out = net.forward_batch(&Matrix::from_rows(&refs)).expect("din matches the network");
    (0..out.cols())
        .map(|j| {
            let c = out.col(j);
            (
                c.iter().copied().fold(f64::INFINITY, f64::min),
                c.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        })
        .collect()
}

/// A family's base problem: loose properties prove on the stored box
/// artifacts; tight ones only by refinement.
fn family_base(seed: u64, family: usize, tight: bool) -> (Network, BoxDomain, BoxDomain) {
    let dims = FAMILY_DIMS[family % FAMILY_DIMS.len()];
    let mut rng =
        Rng::seeded(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(family as u64 + 1));
    let net = Network::random(dims, Activation::Relu, Activation::Identity, &mut rng);
    let din = BoxDomain::from_bounds(&vec![(-1.0, 1.0); dims[0]]).expect("unit box");
    let reach = reach_boxes(&net, &din, DomainKind::Box).expect("reach on the base problem");
    let seen = output_range(&net, &din, &mut rng);
    let bounds: Vec<(f64, f64)> = reach
        .output()
        .intervals()
        .iter()
        .zip(&seen)
        .map(|(iv, &(lo, hi))| {
            if tight {
                (lo - 0.85 * (lo - iv.lo()), hi + 0.85 * (iv.hi() - hi))
            } else {
                (iv.lo() - 0.5 * iv.width(), iv.hi() + 0.5 * iv.width())
            }
        })
        .collect();
    (net, din, BoxDomain::from_bounds(&bounds).expect("valid property"))
}

/// Four deltas of a fine-tune sibling: two small fine-tunes around a
/// domain enlargement, then a property edit. The enlargement is the same
/// for every sibling of a family, so after the first sibling stored a
/// proof checkpoint for it the others warm-start from the cache. Every
/// third scenario's second fine-tune is large enough to need the full
/// fallback, and about a quarter of the scenarios (drawn from the seed)
/// squeeze the safe set below the network's range (refuted).
fn sibling_events(
    net: &Network,
    enlarged: &BoxDomain,
    dout: &BoxDomain,
    index: usize,
    rng: &mut Rng,
) -> Vec<DeltaEvent> {
    let tuned = net.perturbed(1e-4, rng);
    let second =
        if index % 3 == 2 { tuned.perturbed(3e-2, rng) } else { tuned.perturbed(2e-4, rng) };
    let property = if rng.uniform(0.0, 1.0) < 0.25 {
        let center: Vec<(f64, f64)> = dout.center().iter().map(|&c| (c - 1e-3, c + 1e-3)).collect();
        BoxDomain::from_bounds(&center).expect("valid box")
    } else {
        dout.dilate(rng.uniform(0.01, 0.1))
    };
    vec![
        DeltaEvent::ModelUpdated(tuned),
        DeltaEvent::DomainEnlarged(enlarged.clone()),
        DeltaEvent::ModelUpdated(second),
        DeltaEvent::PropertyChanged(property),
    ]
}

/// The seeded corpus (see module docs).
pub fn corpus(seed: u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    let open_loop = |family: usize, siblings: usize, tight: bool, out: &mut Vec<Scenario>| {
        let (net, din, dout) = family_base(seed, family, tight);
        // Tight families enlarge only slightly: their enlarged instances
        // must stay well inside the refinement budget (see README).
        let enlarged =
            din.dilate(if tight { 0.002 } else { 0.005 + 0.015 * (family % 7) as f64 / 6.0 });
        for s in 0..siblings {
            let mut rng = Rng::seeded(
                seed ^ ((family as u64) << 20 | s as u64).wrapping_mul(0xa076_1d64_78bd_642f),
            );
            out.push(Scenario {
                name: format!("family-{family:03}-sibling-{s}"),
                network: net.clone(),
                din: din.clone(),
                dout: dout.clone(),
                domain: DomainKind::Box,
                margin: Margin::standard(),
                closed_loop: None,
                events: sibling_events(&net, &enlarged, &dout, out.len(), &mut rng),
            });
        }
    };
    for f in 0..SHARED_FAMILIES {
        open_loop(f, SIBLINGS, f % TIGHT_EVERY == TIGHT_EVERY - 1, &mut out);
    }
    for f in 0..SINGLETONS {
        open_loop(SHARED_FAMILIES + f, 1, false, &mut out);
    }
    let base = safe_case();
    for f in 0..LOOP_FAMILIES {
        let mut rng = Rng::seeded(seed ^ 0x6c6f_6f70 ^ (f as u64) << 32);
        let params = LateralParams {
            k_y: LateralParams::default().k_y * rng.uniform(0.9, 1.1),
            ..LateralParams::default()
        };
        let controller = params.controller();
        for s in 0..SIBLINGS {
            out.push(Scenario {
                name: format!("loop-family-{f}-sibling-{s}"),
                network: controller.clone(),
                din: base.spec.init.clone(),
                dout: base.spec.unsafe_region.clone(),
                domain: DomainKind::Zonotope,
                margin: Margin::NONE,
                closed_loop: Some(base.spec.clone()),
                events: vec![
                    DeltaEvent::ModelUpdated(controller.perturbed(1e-5, &mut rng)),
                    DeltaEvent::DomainEnlarged(base.spec.init.dilate(rng.uniform(0.002, 0.01))),
                ],
            });
        }
    }
    out
}

fn engine(threads: usize) -> CampaignEngine {
    CampaignEngine::new(CampaignConfig { threads, ..CampaignConfig::default() })
}

/// Samples gathered over the campaigns, per event and per scenario of the
/// corpus. Every campaign runs the same corpus, so each event's latency is
/// the median of its repetitions, which a scheduling hiccup does not move.
#[derive(Default)]
struct Tally {
    campaigns: u64,
    /// Per event (scenarios' events in corpus order): latencies in ms.
    events_ms: Vec<Vec<f64>>,
    /// Per event: deciding strategy and whether it proved.
    verdicts: Vec<(String, bool)>,
    /// Per scenario: time outside its deltas, and wall time, in ms.
    opens_ms: Vec<Vec<f64>>,
    scenario_ms: Vec<Vec<f64>>,
    failed_scenarios: usize,
    sequential_us: f64,
    capacity_us: f64,
}

impl Tally {
    fn add(&mut self, r: &CampaignReport, out: &mut Outcome) {
        self.campaigns += 1;
        self.sequential_us += r.sequential_us as f64;
        self.capacity_us += r.wall_us as f64 * r.threads as f64;
        let events = r.scenarios.iter().map(|s| s.events.len()).sum();
        self.events_ms.resize(events, Vec::new());
        self.verdicts.resize(events, (String::new(), false));
        self.opens_ms.resize(r.scenarios.len(), Vec::new());
        self.scenario_ms.resize(r.scenarios.len(), Vec::new());
        let mut k = 0;
        for (i, s) in r.scenarios.iter().enumerate() {
            if let Some(e) = &s.error {
                out.notes.push(format!("{}: {e}", s.name));
                out.failed += 1;
                self.failed_scenarios += 1;
            }
            // The scenario's time outside its deltas is its original
            // verification (a cache lookup for most siblings).
            let deltas_us: u64 = s.events.iter().map(|e| e.wall_us).sum();
            self.opens_ms[i].push(s.wall_us.saturating_sub(deltas_us) as f64 / 1e3);
            self.scenario_ms[i].push(s.wall_us as f64 / 1e3);
            for e in &s.events {
                self.events_ms[k].push(e.wall_us as f64 / 1e3);
                self.verdicts[k] = (e.strategy.clone(), e.outcome == "proved");
                k += 1;
            }
        }
    }

    /// Each event's median latency, with its verdict.
    fn attempts(&self) -> Vec<Attempt> {
        let mut out: Vec<Attempt> = self
            .events_ms
            .iter()
            .zip(&self.verdicts)
            .map(|(ms, (strategy, proved))| Attempt::Verdict {
                latency: stats::median(ms),
                proved: *proved,
                reused: strategy != "full",
            })
            .collect();
        out.extend((0..self.failed_scenarios).map(|_| Attempt::Failed));
        out
    }
}

fn medians(samples: &[Vec<f64>]) -> Vec<f64> {
    samples.iter().map(|s| stats::median(s)).collect()
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let threads = nproc();
    let mut out = Outcome::default();

    let mut setup = Vec::new();
    let mut scenarios = Vec::new();
    for _ in 0..SETUP_REPS {
        // Generate the corpus and run it once, so lazy set-up is paid
        // before the measured campaigns.
        let t0 = Instant::now();
        scenarios = corpus(cfg.seed);
        engine(threads).run(&scenarios).map_err(|e| e.to_string())?;
        setup.push(t0.elapsed().as_secs_f64());
    }
    out.set("setup_s", stats::median(&setup));

    // Gate: the canonical report is byte-identical at 1 thread and at
    // `nproc` threads (only the thread-count header may differ).
    let strip = |r: &CampaignReport| -> Result<String, String> {
        let mut c = r.canonical();
        c.threads = 0;
        c.scenario_threads = 0;
        c.to_json().map_err(|e| e.to_string())
    };
    let reference = strip(&engine(1).run(&scenarios).map_err(|e| e.to_string())?)?;

    let tracer = Tracer::new(cfg.trace);
    let counters0 = layers::Counters::read();
    let mut tally = Tally::default();
    let mut rep_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut last = None;
    let t_run = Instant::now();
    while tally.campaigns == 0 || t_run.elapsed().as_secs_f64() < cfg.seconds {
        // A fresh engine per campaign keeps hit and miss counts a pure
        // function of the corpus. In the traced run every other campaign
        // runs untraced, as the reference for the tracing overhead.
        let traced = cfg.trace && tally.campaigns % 2 == 1;
        let e = engine(threads);
        let t = Instant::now();
        let report = if traced {
            tracer.span("campaign.run", NONE, tally.campaigns, || e.run(&scenarios))
        } else {
            e.run(&scenarios)
        }
        .map_err(|err| err.to_string())?;
        rep_ms[usize::from(traced)].push(t.elapsed().as_secs_f64() * 1e3);
        let canonical = strip(&report)?;
        if canonical != reference {
            // Keep both reports for inspection.
            let path =
                |n: usize| cfg.out_dir.join(format!("campaign-{}-{n}-threads.json", cfg.seed));
            let _ = std::fs::create_dir_all(&cfg.out_dir)
                .and_then(|()| std::fs::write(path(1), &reference))
                .and_then(|()| std::fs::write(path(threads), &canonical));
            out.violate(format!(
                "campaign {} at {threads} threads differs from the 1-thread canonical report",
                tally.campaigns
            ));
        }
        tally.add(&report, &mut out);
        last = Some(report);
    }

    let attempts = tally.attempts();
    out.attempted = tally.campaigns * tally.events_ms.len() as u64 + out.failed;
    let shares = stats::shares(&attempts, LIMIT_MS);
    let events_ms = medians(&tally.events_ms);
    // Report times are whole microseconds: the grouped median interpolates
    // inside the tied microsecond, and the geometric mean counts an event
    // under a microsecond as half of one.
    out.set("open_p50_ms", stats::median_grouped(&medians(&tally.opens_ms), 1e-3));
    out.set("verdict_gmean_ms", stats::geomean(&events_ms, 5e-4));
    let tail = stats::tail(&events_ms).ok_or("too few events for a tail")?;
    out.set("verdict_tail_ms", tail.value);
    out.notes.push(format!(
        "{} campaigns of {} scenarios; each event's latency is its median over the campaigns; \
         verdict p50 {:.4} ms; verdict_tail_ms is p{} of {} events ({} beyond); \
         latency limit {LIMIT_MS} ms",
        tally.campaigns,
        scenarios.len(),
        stats::median_grouped(&events_ms, 1e-3),
        tail.percentile,
        tail.samples,
        tail.beyond
    ));
    let mut decided: BTreeMap<&str, u64> = BTreeMap::new();
    for (strategy, _) in &tally.verdicts {
        *decided.entry(strategy).or_insert(0) += 1;
    }
    out.notes.push(format!("decided per campaign by {decided:?}"));
    let last = last.expect("at least one campaign");
    out.notes.push(format!(
        "per campaign: cache hits {} misses {}, proof hits {} misses {}, tube step hits {} misses {}",
        last.cache.hits, last.cache.misses, last.cache.proof_hits, last.cache.proof_misses,
        last.cache.tube_step_hits, last.cache.tube_step_misses
    ));
    // Rates from the median campaign: one slow campaign (a scheduling
    // hiccup) moves a mean, not a median.
    let all_ms: Vec<f64> = rep_ms.concat();
    let campaign_s = stats::median(&all_ms) / 1e3;
    out.set("deltas_per_s", events_ms.len() as f64 / campaign_s);
    out.set("scenarios_per_s", scenarios.len() as f64 / campaign_s);
    out.set("slo_miss_share", shares.slo_miss);
    out.set("proved_share", shares.proved);
    out.set("reuse_share", shares.reused);
    out.set("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0));

    if cfg.trace {
        layers::counters_since(&counters0, &mut out);
        for r in crate::common::RUNGS {
            out.set(&format!("core.rung_decided.{r}"), decided.get(r).copied().unwrap_or(0) as f64);
        }
        let n = tally.campaigns as f64;
        out.set("campaign.cache_hits", last.cache.hits as f64);
        out.set("campaign.cache_misses", last.cache.misses as f64);
        // Registry counters are per campaign, like the report's.
        for name in [
            "campaign.singleflight_waits",
            "campaign.proof_warmstart_hits",
            "campaign.proof_warmstart_misses",
            "closedloop.steps_computed",
            "closedloop.steps_reused",
            "closedloop.layers_reused",
            "closedloop.order_reductions",
            "absint.bnb_runs",
            "absint.bnb_splits",
            "absint.bnb_leaves_revalidated",
            "absint.bnb_leaves_reseeded",
            "tensor.kernel_compiles",
            "tensor.kernel_invalidations",
        ] {
            let v = out.metrics[name] / n;
            out.set(name, v);
        }
        out.set(
            "campaign.scenario_ms_p50",
            stats::median_grouped(&medians(&tally.scenario_ms), 1e-3),
        );
        out.set("campaign.worker_busy_share", tally.sequential_us / tally.capacity_us.max(1.0));
        let tube_ms: Vec<f64> = events_ms
            .iter()
            .zip(&tally.verdicts)
            .filter(|(_, (strategy, _))| strategy == "closed-loop")
            .map(|(ms, _)| *ms)
            .collect();
        out.set("closedloop.tube_ms_p50", stats::median_grouped(&tube_ms, 1e-3));
        let mut seen = std::collections::BTreeSet::new();
        let nets: Vec<(&Network, &BoxDomain)> = scenarios
            .iter()
            .filter(|s| {
                s.closed_loop.is_none()
                    && seen.insert(s.name.split("-sibling").next().map(str::to_owned))
            })
            .map(|s| (&s.network, &s.din))
            .collect();
        layers::probe(&nets, &mut out);
        let (untraced, traced) = (stats::median(&rep_ms[0]), stats::median(&rep_ms[1]));
        out.set(
            "trace.overhead_share",
            if untraced > 0.0 && traced > 0.0 { traced / untraced - 1.0 } else { 0.0 },
        );
        let spans = tracer.spans();
        out.set("trace.spans", spans.len() as f64);
        out.set("trace.sum_check_error_share", 0.0);
        layers::write_trace(cfg, "campaign-fleet", &tracer, &out)?;
    }
    Ok(out)
}
