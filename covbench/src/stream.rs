//! `stream-scale`: the paper's own loop at scale. One caller opens
//! `ContinuousVerifier`s over a seeded ladder of generated ReLU networks
//! and streams mixed deltas into them, in process, with no shared cache and
//! no sockets. The traced run replays each delta's escalation chain
//! through the rungs' public functions and checks that the first rung to
//! decide is the one the pipeline reported.

use crate::common::{
    ms_since, peak_rss_mb, process_cpu_ms, sample_proved, witness_replays, Outcome, RunConfig,
    RUNGS,
};
use crate::layers;
use crate::stats::{self, Attempt};
use crate::trace::{self, SpanId, Tracer, NONE};
use covern_absint::{reach_boxes, BoxDomain, DomainKind};
use covern_campaign::runner::apply_event;
use covern_campaign::{CampaignConfig, DeltaEvent};
use covern_core::method::{LocalMethod, CONTAIN_TOL};
use covern_core::pipeline::DEFAULT_REFINE_SPLITS;
use covern_core::prop_domain::{prop1_threads, prop2_threads, prop3};
use covern_core::prop_model::{prop4, prop5, prop6, suggest_cuts, validate_architecture};
use covern_core::{
    fixing::incremental_fix, ContinuousVerifier, CoreError, Margin, Strategy, VerificationProblem,
    VerifyOutcome,
};
use covern_nn::{Activation, Network};
use covern_tensor::{Matrix, Rng};
use std::collections::BTreeMap;
use std::time::Instant;

/// The scale ladder: `[input, hidden…, output]` widths, smallest first.
const LADDER: [&[usize]; 4] =
    [&[6, 32, 32, 4], &[8, 32, 32, 32, 32, 32, 4], &[8, 48, 48, 48, 4], &[8, 64, 64, 64, 8]];

/// Property kinds, dealt round-robin to a rung's networks: a snug property
/// over box artifacts, a loose one over symbolic artifacts, a tight one
/// that only refinement proves, and a loose one over box artifacts.
const KINDS: usize = 4;

/// Networks generated per ladder rung (five or six of each kind).
/// Per-network cost is heavy-tailed, so many networks keep a seed's total
/// close to another's.
const PER_RUNG: usize = 21;

/// Episodes generated per network. Episode `e` of network `i` is of size
/// class `(i + e) % 3`, so the classes are dealt evenly over the ladder.
/// Every round runs every episode of every network, so every round
/// measures the same deltas: 84 networks × 2 episodes × 6 deltas = 1008,
/// which puts the tail at p99 with 10 deltas beyond it. That rank lies
/// inside the cluster of the widest rung's large deltas; at 960 deltas
/// (p98, 19 beyond) it fell on the edge of that cluster and moved by a
/// fifth from seed to seed.
const EPISODES: usize = 2;

/// A verdict later than this misses the latency limit.
pub const LIMIT_MS: f64 = 5.0;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Verification threads. One: at two, the rungs that decide most deltas
/// spend most of their time spawning and joining scoped threads, and that
/// cost follows the host's load rather than covern's work.
const THREADS: usize = 1;

/// One ladder network with its property and delta episodes.
struct Instance {
    problem: VerificationProblem,
    domain: DomainKind,
    /// Each episode re-opens the network and absorbs these deltas in order.
    episodes: Vec<Vec<DeltaEvent>>,
}

fn instance_rng(seed: u64, index: usize) -> Rng {
    Rng::seeded(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (index as u64 + 1).wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
    )
}

/// Output range seen on `n` uniform samples of `din`.
fn sampled_range(net: &Network, din: &BoxDomain, n: usize, rng: &mut Rng) -> Vec<(f64, f64)> {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| din.intervals().iter().map(|iv| rng.uniform(iv.lo(), iv.hi())).collect())
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let out = net.forward_batch(&Matrix::from_rows(&refs)).expect("din matches the network");
    (0..out.cols())
        .map(|j| {
            let col = out.col(j);
            (
                col.iter().copied().fold(f64::INFINITY, f64::min),
                col.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        })
        .collect()
}

/// Perturbs the weights and biases of one layer only (a fine-tune that
/// breaks at most one stored abstraction).
fn bump_layer(net: &Network, layer: usize, eps: f64, rng: &mut Rng) -> Network {
    let mut out = net.clone();
    let l = &mut out.layers_mut()[layer];
    let (r, c) = l.weights().shape();
    for i in 0..r {
        for j in 0..c {
            let v = l.weights().get(i, j) + rng.uniform(-eps, eps);
            l.weights_mut().set(i, j, v);
        }
    }
    for b in l.bias_mut() {
        *b += rng.uniform(-eps, eps);
    }
    out
}

/// Shrinks every interval of `b` by `frac` of its width on each side.
fn shrink(b: &BoxDomain, frac: f64) -> BoxDomain {
    let bounds: Vec<(f64, f64)> = b
        .intervals()
        .iter()
        .map(|iv| (iv.lo() + frac * iv.width(), iv.hi() - frac * iv.width()))
        .collect();
    BoxDomain::from_bounds(&bounds).expect("frac < 0.5 keeps the box valid")
}

fn generate(seed: u64) -> Vec<Instance> {
    let mut out = Vec::new();
    for (rung, dims) in LADDER.iter().enumerate() {
        for k in 0..PER_RUNG {
            let index = rung * PER_RUNG + k;
            let mut rng = instance_rng(seed, index);
            let net = Network::random(dims, Activation::Relu, Activation::Identity, &mut rng);
            let din = BoxDomain::from_bounds(&vec![(-1.0, 1.0); dims[0]]).expect("unit box");
            // The tight property is proved only by refinement, so its
            // network keeps no reusable state abstraction and its deltas
            // exercise branch-and-bound.
            let kind = k % KINDS;
            let domain =
                if kind == 1 || kind == 2 { DomainKind::Symbolic } else { DomainKind::Box };
            let reach = reach_boxes(&net, &din, domain).expect("reach on a generated network");
            let seen = sampled_range(&net, &din, 256, &mut rng);
            let bounds: Vec<(f64, f64)> = reach
                .output()
                .intervals()
                .iter()
                .zip(&seen)
                .map(|(iv, &(lo, hi))| {
                    let s = match kind {
                        0 => 0.2,
                        1 | 3 => 0.5,
                        _ => {
                            let a = 0.75;
                            return (lo - a * (lo - iv.lo()), hi + a * (iv.hi() - hi));
                        }
                    } * iv.width();
                    (iv.lo() - s, iv.hi() + s)
                })
                .collect();
            let dout = BoxDomain::from_bounds(&bounds).expect("valid property");
            let episodes =
                (0..EPISODES).map(|e| episode(&net, &din, &dout, index + e, &mut rng)).collect();
            out.push(Instance {
                problem: VerificationProblem::new(net, din, dout).expect("dims match"),
                domain,
                episodes,
            });
        }
    }
    out
}

/// One episode's deltas, of size class `e % 3`. The classes make every
/// rung of the chain decide some deltas: small deltas for Prop 1/3 and
/// Prop 4, one-layer bumps for Prop 5 and fixing, large ones for the full
/// fallback.
fn episode(
    net: &Network,
    din: &BoxDomain,
    dout: &BoxDomain,
    e: usize,
    rng: &mut Rng,
) -> Vec<DeltaEvent> {
    let n = net.num_layers();
    let mut cur_din = din.clone();
    let mut grow = |eps: f64, rng: &mut Rng| {
        cur_din = cur_din.dilate(eps * rng.uniform(0.8, 1.2));
        DeltaEvent::DomainEnlarged(cur_din.clone())
    };
    // A hidden layer behind Prop 5's cut (zero-based index): bumping it
    // breaks one stored abstraction that fixing may patch.
    let cut = suggest_cuts(net, 1).first().copied().unwrap_or(1);
    let deep = if cut + 1 < n { cut } else { cut - 1 };
    match e % 3 {
        0 => vec![
            grow(0.004, rng),
            DeltaEvent::ModelUpdated(net.perturbed(1e-4, rng)),
            DeltaEvent::PropertyChanged(dout.dilate(rng.uniform(0.01, 0.1))),
            grow(0.01, rng),
            DeltaEvent::ModelUpdated(bump_layer(net, deep, 0.02, rng)),
            DeltaEvent::PropertyChanged(shrink(dout, 0.002)),
        ],
        1 => vec![
            grow(0.05, rng),
            DeltaEvent::ModelUpdated(net.perturbed(2e-3, rng)),
            DeltaEvent::PropertyChanged(shrink(dout, 0.01)),
            grow(0.1, rng),
            DeltaEvent::ModelUpdated(bump_layer(net, deep, rng.uniform(0.05, 0.3), rng)),
            DeltaEvent::PropertyChanged(dout.dilate(rng.uniform(0.1, 0.5))),
        ],
        _ => vec![
            grow(0.002, rng),
            DeltaEvent::ModelUpdated(net.perturbed(2e-2, rng)),
            DeltaEvent::PropertyChanged(shrink(dout, 0.3)),
            grow(rng.uniform(0.12, 0.35), rng),
            DeltaEvent::ModelUpdated(net.perturbed(5e-5, rng)),
            DeltaEvent::PropertyChanged(dout.dilate(0.05)),
        ],
    }
}

fn open(inst: &Instance, threads: usize) -> Result<ContinuousVerifier, CoreError> {
    ContinuousVerifier::with_margin_cached(
        inst.problem.clone(),
        inst.domain,
        Margin::standard(),
        None,
        threads,
    )
}

/// The post-delta problem a delta asks about (what a `Refuted` witness
/// must violate and what the full baseline verifies).
fn candidate(v: &ContinuousVerifier, delta: &DeltaEvent) -> VerificationProblem {
    let p = v.problem();
    let (net, din, dout) = match delta {
        DeltaEvent::DomainEnlarged(d) => (p.network().clone(), d.clone(), p.dout().clone()),
        DeltaEvent::ModelUpdated(n) => (n.clone(), p.din().clone(), p.dout().clone()),
        DeltaEvent::PropertyChanged(d) => (p.network().clone(), p.din().clone(), d.clone()),
    };
    VerificationProblem::new(net, din, dout).expect("deltas keep the arity")
}

/// Where a replayed chain's rung spans go: under `parent`, in `group`.
struct Spans<'a> {
    tracer: &'a Tracer,
    parent: SpanId,
    group: u64,
}

/// Replays the pipeline's escalation chain for `delta` through the rungs'
/// public functions, one span per rung tried, and returns the rung that
/// decided (the one the pipeline must report).
fn replay(
    v: &ContinuousVerifier,
    delta: &DeltaEvent,
    domain: DomainKind,
    method: &LocalMethod,
    threads: usize,
    spans: &Spans,
) -> Result<Strategy, CoreError> {
    let art = v.artifacts();
    let p = v.problem();
    let net = p.network();
    let rung =
        |name: &str, f: &mut dyn FnMut() -> Result<bool, CoreError>| -> Result<bool, CoreError> {
            spans.tracer.span(&format!("core.{name}"), spans.parent, spans.group, f)
        };
    let full = |cand: &VerificationProblem| -> Result<Strategy, CoreError> {
        let proof = art
            .bnb_proof
            .as_ref()
            .filter(|b| b.applies_to(cand.network(), cand.din(), cand.dout(), domain));
        rung("full", &mut || {
            cand.verify_full_seeded(
                domain,
                DEFAULT_REFINE_SPLITS,
                Margin::standard(),
                threads,
                proof,
                art.state.as_ref(),
            )
            .map(|_| true)
        })?;
        Ok(Strategy::Full)
    };
    match delta {
        DeltaEvent::DomainEnlarged(new_din) => {
            if let Ok(state) = art.state() {
                if net.num_layers() >= 2
                    && rung("prop1", &mut || {
                        Ok(prop1_threads(net, state, new_din, method, threads)?.outcome.is_proved())
                    })?
                {
                    return Ok(Strategy::Prop1);
                }
                if let Ok(ell) = art.lipschitz() {
                    if rung("prop3", &mut || {
                        Ok(prop3(state, ell, new_din, p.dout())?.outcome.is_proved())
                    })? {
                        return Ok(Strategy::Prop3);
                    }
                }
                if rung("prop2", &mut || {
                    Ok(prop2_threads(net, state, new_din, method, threads)?.outcome.is_proved())
                })? {
                    return Ok(Strategy::Prop2);
                }
            }
            full(&candidate(v, delta))
        }
        DeltaEvent::ModelUpdated(f) => {
            validate_architecture(&net.dims(), f)?;
            let din = p.din();
            if let Ok(state) = art.state() {
                if rung("prop4", &mut || {
                    Ok(prop4(f, state, din, method, threads)?.outcome.is_proved())
                })? {
                    return Ok(Strategy::Prop4);
                }
                let cuts = suggest_cuts(f, 1);
                if !cuts.is_empty()
                    && rung("prop5", &mut || {
                        Ok(prop5(f, state, din, &cuts, method, threads)?.outcome.is_proved())
                    })?
                {
                    return Ok(Strategy::Prop5);
                }
                if rung("fixing", &mut || {
                    Ok(incremental_fix(f, state, din, method, threads)?.report.outcome.is_proved())
                })? {
                    return Ok(Strategy::Fixing);
                }
            }
            if let Ok(na) = art.network_abstraction() {
                if rung("prop6", &mut || Ok(prop6(f, na, din, method)?.outcome.is_proved()))? {
                    return Ok(Strategy::Prop6);
                }
            }
            full(&candidate(v, delta))
        }
        DeltaEvent::PropertyChanged(new_dout) => {
            // A loosened property is decided by re-targeting (reported as
            // Prop 3), as is a tightened one the stored Sn still fits.
            let proved_now =
                v.history().last().map_or(&v.initial_report().outcome, |r| &r.outcome).is_proved();
            let decided = rung("prop3", &mut || {
                if proved_now && new_dout.dilate(CONTAIN_TOL).contains_box(p.dout()) {
                    if let Some(state) = &art.state {
                        state.retarget_threads(net, new_dout, threads)?;
                    }
                    return Ok(true);
                }
                match &art.state {
                    Some(state) => {
                        Ok(state.retarget_threads(net, new_dout, threads)?.proof_established())
                    }
                    None => Ok(false),
                }
            })?;
            if decided {
                return Ok(Strategy::Prop3);
            }
            full(&candidate(v, delta))
        }
    }
}

/// Per-delta record of the measured loop.
struct DeltaRecord {
    /// Which delta this is (network, episode, position), the same in every
    /// round.
    key: (usize, usize, usize),
    kind: usize,
    /// Index of the network's ladder rung.
    ladder: usize,
    ms: f64,
    strategy: Strategy,
    proved: bool,
}

#[derive(Default)]
struct Traced {
    /// Per rung: attempts and total ms.
    attempts: BTreeMap<String, (u64, f64)>,
    pipeline_ms: f64,
    untraced_ms: f64,
    baseline_ms: Vec<f64>,
    /// Per delta kind (0 domain, 1 model): incremental and baseline ms.
    table1: [(f64, f64); 2],
    sum_error_ns: u64,
    residual_ms: f64,
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let threads = THREADS;
    let method = CampaignConfig::default().method;
    let mut out = Outcome::default();

    // Untraced runs time set-up, opens and deltas with the process's CPU
    // time: verification runs on this thread alone and never waits, so on
    // an idle machine CPU time equals wall time, and on a shared virtual
    // machine it leaves out the time the host takes the vCPU away. Traced
    // runs keep wall time, as the spans do, so the sum check adds like
    // with like.
    let origin = Instant::now();
    let clock = || if cfg.trace { ms_since(origin) } else { process_cpu_ms() };

    // Set-up: generate the ladder and open every network once.
    let mut setup = Vec::new();
    let mut instances = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = clock();
        instances = generate(cfg.seed);
        for inst in &instances {
            open(inst, threads).map_err(|e| format!("open failed during set-up: {e}"))?;
        }
        setup.push((clock() - t0) / 1e3);
    }
    out.set("setup_s", stats::median(&setup));

    let tracer = Tracer::new(cfg.trace);
    let counters0 = layers::Counters::read();
    let mut rng = Rng::seeded(cfg.seed ^ 0x5eed_5a3b);
    let mut opens = Vec::new();
    let mut records: Vec<DeltaRecord> = Vec::new();
    let mut attempts = Vec::new();
    let mut tr = Traced::default();
    let mut episodes_done = 0u64;
    let t_run = Instant::now();
    let run0 = clock();
    let mut round = 0;
    // Every episode of every network once per round, the ladder rungs
    // interleaved: the heaviest deltas are then spread over the round
    // instead of bunched at its end, so the host's speed swings reach every
    // rung alike.
    let jobs: Vec<(usize, usize)> = (0..PER_RUNG)
        .flat_map(|k| {
            (0..EPISODES).flat_map(move |e| (0..LADDER.len()).map(move |r| (r * PER_RUNG + k, e)))
        })
        .collect();
    // An untraced run measures whole rounds only, so every run measures
    // the same deltas the same number of times, whatever its speed.
    while round == 0 || t_run.elapsed().as_secs_f64() < cfg.seconds {
        for &(inst_index, episode) in &jobs {
            let inst = &instances[inst_index];
            let events = &inst.episodes[episode];
            // A traced round replays and re-verifies every delta, so the
            // traced run may stop inside one; its per-layer numbers are
            // per attempt and do not need whole rounds.
            if cfg.trace && episodes_done > 0 && t_run.elapsed().as_secs_f64() >= cfg.seconds {
                break;
            }
            if cfg.trace {
                // The same episode untraced first: the reference the tracing
                // overhead is measured against.
                let mut v = open(inst, threads).map_err(|e| e.to_string())?;
                for delta in events {
                    let t = Instant::now();
                    let _ = apply_event(&mut v, delta, &method);
                    tr.untraced_ms += ms_since(t);
                }
            }
            let t = clock();
            let mut v = tracer
                .span("core.open", NONE, 0, || open(inst, threads))
                .map_err(|e| e.to_string())?;
            opens.push(clock() - t);
            for (pos, delta) in events.iter().enumerate() {
                let group = records.len() as u64 + 1;
                let kind = match delta {
                    DeltaEvent::DomainEnlarged(_) => 0,
                    DeltaEvent::ModelUpdated(_) => 1,
                    DeltaEvent::PropertyChanged(_) => 2,
                };
                let cand = candidate(&v, delta);
                let mut replayed = None;
                let chain_root = tracer.begin("core.chain", NONE, group);
                if cfg.trace {
                    let spans = Spans { tracer: &tracer, parent: chain_root, group };
                    replayed = Some(replay(&v, delta, inst.domain, &method, threads, &spans));
                }
                tracer.end(chain_root);
                let pspan = tracer.begin("core.pipeline", NONE, group);
                let t = clock();
                let result = apply_event(&mut v, delta, &method);
                let ms = clock() - t;
                tracer.end(pspan);
                let report = match result {
                    Ok(r) => r,
                    Err(e) => {
                        out.failed += 1;
                        out.notes.push(format!("delta failed: {e}"));
                        attempts.push(Attempt::Failed);
                        continue;
                    }
                };
                let proved = report.outcome.is_proved();
                match &report.outcome {
                    VerifyOutcome::Proved => {
                        let p = v.problem();
                        if let Err(x) = sample_proved(p.network(), p.din(), p.dout(), 32, &mut rng)
                        {
                            out.violate(format!(
                                "proved verdict ({}) violated at {x:?}",
                                report.strategy
                            ));
                        }
                    }
                    VerifyOutcome::Refuted(w) => {
                        if !witness_replays(cand.network(), cand.din(), cand.dout(), w) {
                            out.violate(format!("refuted witness {w:?} does not replay"));
                        }
                    }
                    VerifyOutcome::Unknown => {}
                }
                if let Some(replayed) = replayed {
                    match replayed {
                        Ok(s) if s == report.strategy => {}
                        Ok(s) => out.violate(format!(
                            "replayed chain decided {s}, pipeline reported {}",
                            report.strategy
                        )),
                        Err(e) => out.violate(format!("replayed chain failed: {e}")),
                    }
                    let chain = tracer.spans_since(chain_root);
                    tr.sum_error_ns += trace::tree_sum_error(&chain, 0);
                    let rung_ms: f64 = chain
                        .iter()
                        .filter(|s| s.parent == Some(0))
                        .map(|s| (s.end - s.start) as f64 / 1e6)
                        .sum();
                    tr.residual_ms += ms - rung_ms;
                    tr.pipeline_ms += tracer.duration_ns(pspan) as f64 / 1e6;
                    let t = Instant::now();
                    tracer
                        .span("core.baseline", NONE, group, || {
                            cand.verify_full_with_margin_threads(
                                inst.domain,
                                DEFAULT_REFINE_SPLITS,
                                Margin::standard(),
                                threads,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    let base = ms_since(t);
                    tr.baseline_ms.push(base);
                    if kind < 2 {
                        tr.table1[kind].0 += ms;
                        tr.table1[kind].1 += base;
                    }
                }
                attempts.push(Attempt::Verdict {
                    latency: ms,
                    proved,
                    reused: report.strategy != Strategy::Full,
                });
                records.push(DeltaRecord {
                    key: (inst_index, episode, pos),
                    kind,
                    ladder: inst_index / PER_RUNG,
                    ms,
                    strategy: report.strategy,
                    proved,
                });
            }
            episodes_done += 1;
        }
        round += 1;
    }
    let busy = (clock() - run0) / 1e3;

    out.attempted = attempts.len() as u64;
    let lat: Vec<f64> = records.iter().map(|r| r.ms).collect();
    // Each delta's latency is its median over the rounds, so a scheduling
    // hiccup in one round does not move the percentiles taken over deltas.
    let mut by_delta: BTreeMap<(usize, usize, usize), Vec<f64>> = BTreeMap::new();
    for r in &records {
        by_delta.entry(r.key).or_default().push(r.ms);
    }
    let per_delta: Vec<f64> = by_delta.values().map(|v| stats::median(v)).collect();
    let shares = stats::shares(&attempts, LIMIT_MS);
    out.set("open_p50_ms", stats::median(&opens));
    out.set("verdict_gmean_ms", stats::geomean(&per_delta, 1e-6));
    let tail = stats::tail(&per_delta).ok_or("too few deltas for a tail")?;
    out.set("verdict_tail_ms", tail.value);
    out.notes.push(format!(
        "verdict p50 {:.3} ms; verdict_tail_ms is p{} of {} per-delta medians over {round} rounds \
         ({} beyond); latency limit {LIMIT_MS} ms",
        stats::median(&per_delta),
        tail.percentile,
        tail.samples,
        tail.beyond
    ));
    out.set("deltas_per_s", out.attempted as f64 / busy);
    out.set("scenarios_per_s", episodes_done as f64 / busy);
    out.set("slo_miss_share", shares.slo_miss);
    out.set("proved_share", shares.proved);
    out.set("reuse_share", shares.reused);
    out.set("peak_rss_mb", peak_rss_mb(None).unwrap_or(0.0));

    let mut decided: BTreeMap<String, u64> = BTreeMap::new();
    for r in &records {
        *decided.entry(r.strategy.to_string()).or_insert(0) += 1;
    }
    out.notes.push(format!(
        "{} rounds, {episodes_done} episodes, {} deltas; decided by {decided:?}; kinds {:?}",
        round,
        records.len(),
        [0, 1, 2].map(|k| records.iter().filter(|r| r.kind == k).count())
    ));
    let proved = records.iter().filter(|r| r.proved).count();
    out.notes.push(format!("{proved} of {} verdicts proved", records.len()));
    let mut by_rung: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut by_size: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for r in &records {
        by_rung.entry(r.strategy.to_string()).or_default().push(r.ms);
        by_size.entry(r.ladder).or_default().push(r.ms);
    }
    let summary = |m: &BTreeMap<String, Vec<f64>>| -> Vec<String> {
        m.iter()
            .map(|(k, v)| format!("{k}: p50 {:.3} ms over {}", stats::median(v), v.len()))
            .collect()
    };
    out.notes.push(format!("verdict latency by deciding rung: {}", summary(&by_rung).join(", ")));
    let by_size: BTreeMap<String, Vec<f64>> =
        by_size.into_iter().map(|(k, v)| (format!("{:?}", LADDER[k]), v)).collect();
    out.notes.push(format!("verdict latency by ladder rung: {}", summary(&by_size).join(", ")));

    if cfg.trace {
        let spans = tracer.spans();
        for s in &spans {
            if let Some(r) = s.name.strip_prefix("core.") {
                if RUNGS.contains(&r) && s.parent.is_some() {
                    let e = tr.attempts.entry(r.to_owned()).or_insert((0, 0.0));
                    e.0 += 1;
                    e.1 += (s.end - s.start) as f64 / 1e6;
                }
            }
        }
        for r in RUNGS {
            let (n, ms) = tr.attempts.get(r).copied().unwrap_or((0, 0.0));
            out.set(&format!("core.rung_attempts.{r}"), n as f64);
            out.set(&format!("core.rung_ms.{r}"), if n > 0 { ms / n as f64 } else { 0.0 });
            out.set(&format!("core.rung_decided.{r}"), decided.get(r).copied().unwrap_or(0) as f64);
        }
        out.set("core.full_baseline_ms", stats::median(&tr.baseline_ms));
        let ratio = |(inc, base): (f64, f64)| if base > 0.0 { inc / base } else { 0.0 };
        out.set("core.table1_ratio.svudc", ratio(tr.table1[0]));
        out.set("core.table1_ratio.svbtv", ratio(tr.table1[1]));
        layers::counters_since(&counters0, &mut out);
        let nets: Vec<(&Network, &BoxDomain)> =
            instances.iter().map(|i| (i.problem.network(), i.problem.din())).collect();
        layers::probe(&nets, &mut out);
        let total_ms: f64 = lat.iter().sum();
        out.set(
            "trace.overhead_share",
            if tr.untraced_ms > 0.0 { tr.pipeline_ms / tr.untraced_ms - 1.0 } else { 0.0 },
        );
        // Sum check: the replayed rungs' self times plus the unspanned
        // residual add up to the verdict wall time; the error is what the
        // span trees fail to account for, as a share of the wall time.
        out.set("trace.sum_check_error_share", tr.sum_error_ns as f64 / 1e6 / total_ms.max(1e-9));
        out.set("trace.spans", spans.len() as f64);
        out.notes.push(format!(
            "sum check: replayed rungs {:.3} ms + unspanned residual {:.3} ms = verdict wall {total_ms:.3} ms; \
             the span trees miss {} ns of their roots (tolerance 0.1%)",
            total_ms - tr.residual_ms,
            tr.residual_ms,
            tr.sum_error_ns
        ));
        if tr.sum_error_ns as f64 > 1e-3 * total_ms * 1e6 {
            out.violate(format!("span trees miss {} ns of {total_ms} ms", tr.sum_error_ns));
        }
        layers::write_trace(cfg, "stream-scale", &tracer, &out)?;
    }
    Ok(out)
}
