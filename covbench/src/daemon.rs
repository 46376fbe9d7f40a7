//! `daemon-open-loop`: the real `covern_cli serve --tcp` process with
//! default flags, driven by an open-loop schedule. Sessions open at a fixed
//! rate; each sends seeded deltas at fixed intervals, pipelined on its
//! connection, over at most `nproc` connections. Every reply is timed from
//! when its request was due, so a stall that delays later sends is charged
//! to every request it delayed. Small networks with generous properties
//! keep verification cheap, so transport, dispatch and the session inbox
//! dominate.
//!
//! The traced run adds an in-process `Service::handle_line` with a
//! responder that timestamps each reply, which splits a request's latency
//! into inbox wait, verification and the transport residual.

use crate::common::{nproc, peak_rss_mb, Outcome, RunConfig};
use crate::layers;
use crate::stats::{self, Attempt};
use crate::trace::{Tracer, NONE};
use covern_absint::{reach_boxes, BoxDomain, DomainKind};
use covern_campaign::{CampaignConfig, CampaignEngine, DeltaEvent, Scenario};
use covern_core::Margin;
use covern_nn::{Activation, Network};
use covern_service::dispatch::{Respond, Service, ServiceConfig};
use covern_service::protocol::{
    decode, encode, Command, DeltaParams, OpenParams, Reply, Request, Response,
};
use covern_tensor::Rng;
use covern_vehicle::lateral::{safe_case, LateralParams};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Process, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sessions opened per second.
const RATE: f64 = 10.0;
/// Deltas per session.
const DELTAS: usize = 8;
/// Seconds between a session's open and its first delta, and between deltas.
const INTERVAL: f64 = 0.025;
/// A verdict later than this after its due time misses the limit.
pub const LIMIT_MS: f64 = 20.0;
/// How long after the last due time unanswered requests are given.
const DRAIN: f64 = 10.0;

const SETUP_REPS: usize = 7;

const NETS: [&[usize]; 4] = [&[4, 16, 16, 2], &[3, 12, 12, 1], &[5, 16, 8, 2], &[2, 8, 8, 1]];

/// One session in eight is a closed-loop lane-keeping session; they come
/// in four controller families, so the tube cache has siblings to share.
const LOOP_EVERY: usize = 8;

fn shrink(b: &BoxDomain, frac: f64) -> BoxDomain {
    let bounds: Vec<(f64, f64)> = b
        .intervals()
        .iter()
        .map(|iv| (iv.lo() + frac * iv.width(), iv.hi() - frac * iv.width()))
        .collect();
    BoxDomain::from_bounds(&bounds).expect("frac < 0.5 keeps the box valid")
}

/// A closed-loop session: a lane-keeping controller of one of four
/// families, fine-tuned, its initial set enlarged and its departure band
/// moved outward along the stream.
fn loop_session(seed: u64, i: usize, rng: &mut Rng) -> Scenario {
    let base = safe_case();
    let family = (i / LOOP_EVERY) % 4;
    let k_y =
        LateralParams::default().k_y * (0.9 + 0.05 * family as f64) + (seed % 7) as f64 * 1e-3;
    let controller = LateralParams { k_y, ..LateralParams::default() }.controller();
    let band = base.spec.unsafe_region.intervals()[0];
    let mut cur_net = controller.clone();
    let mut cur_init = base.spec.init.clone();
    let events = (0..DELTAS)
        .map(|d| match d % 3 {
            0 => {
                cur_net = cur_net.perturbed(1e-5, rng);
                DeltaEvent::ModelUpdated(cur_net.clone())
            }
            1 => {
                cur_init = cur_init.dilate(rng.uniform(0.001, 0.004));
                DeltaEvent::DomainEnlarged(cur_init.clone())
            }
            _ => {
                let lo = band.lo() + rng.uniform(0.0, 0.05);
                let bounds = [(lo, band.hi()), (-3.2, 3.2)];
                DeltaEvent::PropertyChanged(BoxDomain::from_bounds(&bounds).expect("valid band"))
            }
        })
        .collect();
    Scenario {
        name: format!("session-{i}"),
        network: controller,
        din: base.spec.init.clone(),
        dout: base.spec.unsafe_region.clone(),
        domain: DomainKind::Zonotope,
        margin: Margin::NONE,
        closed_loop: Some(base.spec),
        events,
    }
}

fn corpus(seed: u64, sessions: usize) -> Vec<Scenario> {
    (0..sessions)
        .map(|i| {
            let mut rng = Rng::seeded(
                seed.wrapping_mul(0xd6e8_feb8_6659_fd93)
                    ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            if i % LOOP_EVERY == LOOP_EVERY - 1 {
                return loop_session(seed, i, &mut rng);
            }
            let dims = NETS[i % NETS.len()];
            let network = Network::random(dims, Activation::Relu, Activation::Identity, &mut rng);
            let din = BoxDomain::from_bounds(&vec![(-1.0, 1.0); dims[0]]).expect("unit box");
            let reach =
                reach_boxes(&network, &din, DomainKind::Box).expect("reach on a generated network");
            let dout = reach.output().dilate(reach.output().max_width());
            // Mostly small deltas; about one session in eight takes one
            // large fine-tune (full fallback) and one in five squeezes its
            // property below the network's range (refuted).
            let large = rng.uniform(0.0, 1.0) < 0.125;
            let squeeze = rng.uniform(0.0, 1.0) < 0.2;
            let mut cur_din = din.clone();
            let mut cur_net = network.clone();
            let mut events = Vec::with_capacity(DELTAS);
            for d in 0..DELTAS {
                events.push(match (d % 4, large && d == 5, squeeze && d == 6) {
                    (_, true, _) => DeltaEvent::ModelUpdated(cur_net.perturbed(0.3, &mut rng)),
                    (_, _, true) => DeltaEvent::PropertyChanged(shrink(&dout, 0.499)),
                    (0, ..) => {
                        cur_din = cur_din.dilate(rng.uniform(0.002, 0.01));
                        DeltaEvent::DomainEnlarged(cur_din.clone())
                    }
                    (1 | 3, ..) => {
                        cur_net = cur_net.perturbed(1e-4, &mut rng);
                        DeltaEvent::ModelUpdated(cur_net.clone())
                    }
                    _ => DeltaEvent::PropertyChanged(dout.dilate(rng.uniform(0.01, 0.1))),
                });
            }
            Scenario {
                name: format!("session-{i}"),
                network,
                din,
                dout,
                domain: DomainKind::Box,
                margin: Margin::standard(),
                closed_loop: None,
                events,
            }
        })
        .collect()
}

/// A request's key: its session and, for a delta, its index in the stream.
type Key = (usize, Option<usize>);

/// One scheduled request: a session's open, or its `delta`-th delta.
#[derive(Clone, Copy)]
struct Planned {
    due: f64,
    session: usize,
    delta: Option<usize>,
}

/// What happened to one planned request (times in seconds from the start).
#[derive(Clone, Default)]
struct Rec {
    due: f64,
    sent: Option<f64>,
    replied: Option<f64>,
    outcome: Option<String>,
    strategy: Option<String>,
    verify_us: Option<u64>,
    failed: bool,
}

/// A connection the load generator sends lines on and polls replies from.
trait Link {
    fn send(&mut self, line: &str) -> Result<(), String>;
    /// Replies (with their receive time) arriving within `wait`.
    fn poll(&mut self, wait: Duration) -> Result<Vec<(Response, f64)>, String>;
}

struct TcpLink {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    t0: Instant,
    buf: Vec<u8>,
}

impl TcpLink {
    fn connect(addr: &str, t0: Instant) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Self { reader: BufReader::new(stream), writer, t0, buf: Vec::new() })
    }

    fn take_line(&mut self, out: &mut Vec<(Response, f64)>) -> Result<(), String> {
        let line = std::str::from_utf8(&self.buf).map_err(|e| e.to_string())?;
        let response =
            decode::<Response>(line).map_err(|e| format!("unparseable reply {line:?}: {e}"))?;
        out.push((response, self.t0.elapsed().as_secs_f64()));
        self.buf.clear();
        Ok(())
    }
}

impl Link for TcpLink {
    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes).map_err(|e| e.to_string())
    }

    fn poll(&mut self, wait: Duration) -> Result<Vec<(Response, f64)>, String> {
        let mut out = Vec::new();
        let wait = wait.max(Duration::from_micros(100));
        self.reader.get_ref().set_read_timeout(Some(wait)).map_err(|e| e.to_string())?;
        loop {
            match self.reader.read_until(b'\n', &mut self.buf) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(_) if self.buf.ends_with(b"\n") => self.take_line(&mut out)?,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(out);
                }
                Err(e) => return Err(e.to_string()),
            }
            // Keep reading only what is already buffered.
            if !self.reader.buffer().contains(&b'\n') {
                return Ok(out);
            }
        }
    }
}

/// Timestamps every reply the in-process service pushes.
struct Stamp {
    tx: Mutex<Sender<(Response, f64)>>,
    t0: Instant,
}

impl Respond for Stamp {
    fn send(&self, response: &Response) {
        let at = self.t0.elapsed().as_secs_f64();
        let _ = self.tx.lock().expect("stamp lock").send((response.clone(), at));
    }
}

struct InProcLink {
    service: Arc<Service>,
    responder: Arc<dyn Respond>,
    rx: Receiver<(Response, f64)>,
}

impl InProcLink {
    fn new(service: Arc<Service>, t0: Instant) -> Self {
        let (tx, rx) = channel();
        Self { service, responder: Arc::new(Stamp { tx: Mutex::new(tx), t0 }), rx }
    }
}

impl Link for InProcLink {
    fn send(&mut self, line: &str) -> Result<(), String> {
        let _ = self.service.handle_line(line, &self.responder);
        Ok(())
    }

    fn poll(&mut self, wait: Duration) -> Result<Vec<(Response, f64)>, String> {
        let mut out = Vec::new();
        if let Ok(r) = self.rx.recv_timeout(wait) {
            out.push(r);
            out.extend(self.rx.try_iter());
        }
        Ok(out)
    }
}

/// Runs one connection's share of the schedule: sends every request when
/// due (a delta as soon as its session is open), closes each session after
/// its last verdict, and records every reply.
fn drive(
    link: &mut dyn Link,
    plan: &[Planned],
    lines: &HashMap<Key, String>,
    t0: Instant,
    tracer: &Tracer,
) -> Result<Vec<Rec>, String> {
    let mut recs: Vec<Rec> = plan.iter().map(|p| Rec { due: p.due, ..Rec::default() }).collect();
    let mut sessions: HashMap<usize, u64> = HashMap::new();
    let mut dead: Vec<usize> = Vec::new();
    let mut left: HashMap<usize, usize> = HashMap::new();
    for p in plan.iter().filter(|p| p.delta.is_some()) {
        *left.entry(p.session).or_insert(0) += 1;
    }
    let mut spans = HashMap::new();
    let (mut next, mut pending, mut outstanding) = (0, Vec::new(), 0usize);
    let end = plan.last().map_or(0.0, |p| p.due) + DRAIN;
    loop {
        let now = t0.elapsed().as_secs_f64();
        while next < plan.len() && plan[next].due <= now {
            pending.push(next);
            next += 1;
        }
        let mut still = Vec::new();
        for i in pending.drain(..) {
            let p = plan[i];
            if dead.contains(&p.session) {
                recs[i].failed = true;
                continue;
            }
            let line = match p.delta {
                None => lines[&(p.session, None)].clone(),
                Some(_) => match sessions.get(&p.session) {
                    Some(id) => lines[&(p.session, p.delta)].replacen(
                        "\"session\":0,",
                        &format!("\"session\":{id},"),
                        1,
                    ),
                    None => {
                        still.push(i);
                        continue;
                    }
                },
            };
            let line = line.replacen("\"id\":0,", &format!("\"id\":{},", i + 1), 1);
            recs[i].sent = Some(t0.elapsed().as_secs_f64());
            spans.insert(i, tracer.begin("service.request", NONE, i as u64 + 1));
            link.send(&line)?;
            outstanding += 1;
        }
        pending = still;
        if next == plan.len() && pending.is_empty() && outstanding == 0 {
            return Ok(recs);
        }
        if now > end {
            for r in recs.iter_mut().filter(|r| r.replied.is_none()) {
                r.failed = true;
            }
            return Ok(recs);
        }
        let wait = if next < plan.len() { (plan[next].due - now).clamp(0.0, 0.05) } else { 0.05 };
        for (resp, at) in link.poll(Duration::from_secs_f64(wait))? {
            let Some(i) = (resp.id as usize).checked_sub(1).filter(|&i| i < plan.len()) else {
                continue; // a Close acknowledgement
            };
            outstanding -= 1;
            if let Some(span) = spans.remove(&i) {
                tracer.end(span);
            }
            let rec = &mut recs[i];
            rec.replied = Some(at);
            let session = plan[i].session;
            match resp.reply {
                Reply::Opened(o) => {
                    sessions.insert(session, o.session);
                    rec.outcome = Some(o.outcome);
                    rec.verify_us = Some(o.wall_us);
                }
                Reply::Verdict(v) => {
                    rec.outcome = Some(v.record.outcome);
                    rec.strategy = Some(v.record.strategy);
                    rec.verify_us = Some(v.record.wall_us);
                }
                _ => {
                    rec.failed = true;
                    if plan[i].delta.is_none() {
                        dead.push(session);
                    }
                }
            }
            if plan[i].delta.is_some() {
                let n = left.get_mut(&session).expect("planned session");
                *n -= 1;
                if *n == 0 {
                    if let Some(id) = sessions.get(&session) {
                        let close = Request::new(
                            u64::MAX - session as u64,
                            Command::Close(covern_service::protocol::SessionRef { session: *id }),
                        );
                        link.send(&encode(&close).map_err(|e| e.to_string())?)?;
                    }
                }
            }
        }
    }
}

/// Pre-encoded request lines (session and request ids patched in at send
/// time) and the per-connection plans for `sessions` sessions.
fn schedule(specs: &[Scenario], connections: usize) -> (Vec<Vec<Planned>>, HashMap<Key, String>) {
    let mut lines = HashMap::new();
    let mut plans = vec![Vec::new(); connections];
    for (s, spec) in specs.iter().enumerate() {
        let open = Request::new(
            0,
            Command::Open(OpenParams {
                label: spec.name.clone(),
                network: spec.network.clone(),
                din: spec.din.clone(),
                dout: spec.dout.clone(),
                domain: spec.domain,
                margin: spec.margin,
                closed_loop: spec.closed_loop.clone(),
            }),
        );
        lines.insert((s, None), encode(&open).expect("requests encode"));
        let t_open = s as f64 / RATE;
        plans[s % connections].push(Planned { due: t_open, session: s, delta: None });
        for (d, event) in spec.events.iter().enumerate() {
            let req =
                Request::new(0, Command::Delta(DeltaParams { session: 0, delta: event.clone() }));
            lines.insert((s, Some(d)), encode(&req).expect("requests encode"));
            plans[s % connections].push(Planned {
                due: t_open + INTERVAL * (d + 1) as f64,
                session: s,
                delta: Some(d),
            });
        }
    }
    for p in &mut plans {
        p.sort_by(|a, b| a.due.total_cmp(&b.due));
    }
    (plans, lines)
}

/// Drives the schedule over `connections` links (one thread each) and
/// returns every record keyed by (session, delta).
fn run_phase(
    specs: &[Scenario],
    mut links: Vec<Box<dyn Link + Send>>,
    t0: Instant,
    tracer: &Tracer,
) -> Result<BTreeMap<Key, Rec>, String> {
    let (plans, lines) = schedule(specs, links.len());
    let results: Vec<Result<Vec<Rec>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .iter_mut()
            .zip(&plans)
            .map(|(link, plan)| {
                let lines = &lines;
                scope.spawn(move || drive(link.as_mut(), plan, lines, t0, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("connection thread panicked".into())))
            .collect()
    });
    let mut out = BTreeMap::new();
    for (plan, recs) in plans.iter().zip(results) {
        for (p, r) in plan.iter().zip(recs?) {
            out.insert((p.session, p.delta), r);
        }
    }
    Ok(out)
}

/// A spawned daemon and the address it listens on.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(cli: &Path, log: &Path) -> Result<Self, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Process::new(cli)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let mut daemon = Self { child, addr: String::new() };
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(20) {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // The daemon may be mid-way through writing the line: take the
            // address only once its newline is there.
            let line =
                text.split("covern-service listening on ").nth(1).and_then(|r| r.split_once('\n'));
            if let Some((addr, _)) = line {
                daemon.addr = addr.trim().to_owned();
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited before listening: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon.stop();
        Err("daemon did not report its address".into())
    }

    /// One request on a fresh connection; returns its reply.
    fn request(&self, cmd: Command) -> Result<Reply, String> {
        let mut link = TcpLink::connect(&self.addr, Instant::now())?;
        link.send(&encode(&Request::new(1, cmd)).map_err(|e| e.to_string())?)?;
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(20) {
            if let Some((r, _)) = link.poll(Duration::from_millis(50))?.into_iter().next() {
                return Ok(r.reply);
            }
        }
        Err("no reply from the daemon".into())
    }

    /// Asks the daemon to shut down and waits for it to exit (killing it
    /// if it does not).
    fn stop(&mut self) {
        if !self.addr.is_empty() {
            let _ = self.request(Command::Shutdown);
        }
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(20) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// An `Open` of a fixed network outside the corpus (its cache entry never
/// serves a measured session).
fn warmup_open() -> Command {
    let network =
        Network::random(&[3, 6, 1], Activation::Relu, Activation::Identity, &mut Rng::seeded(7));
    let din = BoxDomain::from_bounds(&[(-0.5, 0.5); 3]).expect("valid box");
    let dout = reach_boxes(&network, &din, DomainKind::Box).expect("reach").output().dilate(1.0);
    Command::Open(OpenParams {
        label: "warm-up".into(),
        network,
        din,
        dout,
        domain: DomainKind::Box,
        margin: Margin::standard(),
        closed_loop: None,
    })
}

/// Value of an unlabeled Prometheus sample in `text`.
fn sample(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|v| v.strip_prefix(' '))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0.0)
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let cli = cfg.cli.clone().ok_or("daemon-open-loop needs --cli <covern_cli>")?;
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let log: PathBuf = cfg.out_dir.join(format!("daemon-{}.log", cfg.seed));
    let connections = nproc();
    let mut out = Outcome::default();
    // Sessions whose whole stream fits in the run (in the traced run, in
    // each third of it).
    let phase = if cfg.trace { cfg.seconds / 3.0 } else { cfg.seconds };
    let count = (((phase - INTERVAL * (DELTAS + 1) as f64) * RATE).floor() as usize).max(4);

    // Set-up: generate the corpus, start the daemon and get its Hello;
    // the last of the repetitions serves the run.
    let mut setup = Vec::new();
    let mut specs = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        specs = corpus(cfg.seed, count);
        let mut d = Daemon::spawn(&cli, &log)?;
        // Hello, then one throwaway session so lazy set-up in the daemon is
        // paid before the run.
        let hello = d.request(Command::Hello).and_then(|_| d.request(warmup_open()));
        setup.push(t0.elapsed().as_secs_f64());
        let ok = matches!(hello, Ok(Reply::Opened(_)));
        if !ok || rep + 1 < SETUP_REPS {
            d.stop();
        }
        if !ok {
            return Err(format!("daemon set-up failed: {hello:?}"));
        }
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up repetition");
    out.set("setup_s", stats::median(&setup));

    let tcp = |tracer: &Tracer| -> Result<(BTreeMap<Key, Rec>, f64), String> {
        let t0 = Instant::now();
        let links = (0..connections)
            .map(|_| {
                TcpLink::connect(&daemon.addr, t0).map(|l| Box::new(l) as Box<dyn Link + Send>)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let recs = run_phase(&specs, links, t0, tracer)?;
        Ok((recs, t0.elapsed().as_secs_f64()))
    };
    let tracer = Tracer::new(cfg.trace);
    let (reference, traced) = if cfg.trace {
        let reference = tcp(&Tracer::new(false))?.0;
        (Some(reference), tcp(&tracer)?)
    } else {
        (None, tcp(&tracer)?)
    };
    let (recs, wall) = traced;

    // Server-side counters and memory, then shut the daemon down.
    let metrics_text = match daemon.request(Command::Metrics) {
        Ok(Reply::Metrics(m)) => m.text,
        other => return Err(format!("Metrics request failed: {other:?}")),
    };
    let rss = peak_rss_mb(Some(daemon.child.id()));
    daemon.stop();

    let mut attempts = Vec::new();
    let mut lat = Vec::new();
    let mut opens = Vec::new();
    let mut lags = Vec::new();
    let mut decided: BTreeMap<String, u64> = BTreeMap::new();
    for ((_, delta), r) in &recs {
        if let Some(sent) = r.sent {
            lags.push(stats::generator_lag(r.due, sent) * 1e3);
        }
        let ms = r.replied.map(|t| stats::latency_from_due(r.due, t) * 1e3);
        match (delta, ms, r.failed) {
            (None, Some(ms), false) => opens.push(ms),
            (Some(_), Some(ms), false) => {
                lat.push(ms);
                let strategy = r.strategy.clone().unwrap_or_default();
                *decided.entry(strategy.clone()).or_insert(0) += 1;
                attempts.push(Attempt::Verdict {
                    latency: ms,
                    proved: r.outcome.as_deref() == Some("proved"),
                    reused: strategy != "full",
                });
            }
            (Some(_), ..) => attempts.push(Attempt::Failed),
            (None, ..) => {}
        }
    }
    out.attempted = recs.len() as u64;
    out.failed = recs.values().filter(|r| r.failed).count() as u64;
    let shares = stats::shares(&attempts, LIMIT_MS);
    out.set("open_p50_ms", stats::median(&opens));
    out.set("verdict_gmean_ms", stats::geomean(&lat, 1e-6));
    let tail = stats::tail(&lat).ok_or("too few verdicts for a tail")?;
    out.set("verdict_tail_ms", tail.value);
    out.notes.push(format!(
        "{} sessions at {RATE}/s over {connections} connections, {DELTAS} deltas each every {} ms; \
         verdict p50 {:.3} ms; verdict_tail_ms is p{} of {} verdicts ({} beyond); \
         latency limit {LIMIT_MS} ms",
        specs.len(),
        INTERVAL * 1e3,
        stats::median(&lat),
        tail.percentile,
        tail.samples,
        tail.beyond
    ));
    out.notes.push(format!("decided by {decided:?}"));
    out.set("deltas_per_s", lat.len() as f64 / wall);
    out.set("scenarios_per_s", opens.len() as f64 / wall);
    out.set("slo_miss_share", shares.slo_miss);
    out.set("proved_share", shares.proved);
    out.set("reuse_share", shares.reused);
    out.set("peak_rss_mb", rss.unwrap_or(0.0));

    // Gate: per-session verdicts equal the in-process engine's on the same
    // corpus, with the daemon's default local method.
    let engine = CampaignEngine::new(CampaignConfig {
        threads: connections,
        method: ServiceConfig::default().method,
        ..CampaignConfig::default()
    });
    let counters0 = layers::Counters::read();
    let expected = engine.run(&specs).map_err(|e| e.to_string())?;
    if cfg.trace {
        // The campaign and closed-loop layers, and the verification work
        // this corpus costs, as the in-process engine meets them.
        layers::counters_since(&counters0, &mut out);
        out.set("campaign.cache_hits", expected.cache.hits as f64);
        out.set("campaign.cache_misses", expected.cache.misses as f64);
        let walls: Vec<f64> = expected.scenarios.iter().map(|s| s.wall_us as f64 / 1e3).collect();
        out.set("campaign.scenario_ms_p50", stats::median(&walls));
        let capacity = expected.wall_us as f64 * expected.threads as f64;
        out.set("campaign.worker_busy_share", expected.sequential_us as f64 / capacity.max(1.0));
        let tubes: Vec<f64> = expected
            .scenarios
            .iter()
            .flat_map(|s| &s.events)
            .filter(|e| e.strategy == "closed-loop")
            .map(|e| e.wall_us as f64 / 1e3)
            .collect();
        out.set("closedloop.tube_ms_p50", stats::median(&tubes));
    }
    for (s, report) in expected.scenarios.iter().enumerate() {
        let open = &recs[&(s, None)];
        if open.failed {
            continue;
        }
        if open.outcome.as_deref() != Some(report.initial_outcome.as_str()) {
            out.violate(format!(
                "session {s}: open {:?}, engine {}",
                open.outcome, report.initial_outcome
            ));
        }
        for (d, e) in report.events.iter().enumerate() {
            let r = &recs[&(s, Some(d))];
            if !r.failed
                && (r.outcome.as_deref() != Some(e.outcome.as_str())
                    || r.strategy.as_deref() != Some(e.strategy.as_str()))
            {
                out.violate(format!(
                    "session {s} delta {d}: daemon {:?}/{:?}, engine {}/{}",
                    r.outcome, r.strategy, e.outcome, e.strategy
                ));
            }
        }
    }

    if cfg.trace {
        // The same schedule through an in-process service: reply time minus
        // handle time is the server's share of each request.
        let t0 = Instant::now();
        let service = Service::new(ServiceConfig::default());
        let links = (0..connections)
            .map(|_| Box::new(InProcLink::new(Arc::clone(&service), t0)) as Box<dyn Link + Send>)
            .collect();
        let server = run_phase(&specs, links, t0, &Tracer::new(false))?;
        let (mut server_us, mut verify_us, mut inbox_us, mut transport_us, mut client_us) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (key, r) in &server {
            let (Some(sent), Some(replied), Some(verify)) = (r.sent, r.replied, r.verify_us) else {
                continue;
            };
            let Some(c) = recs.get(key).filter(|c| !c.failed && key.1.is_some()) else { continue };
            let (Some(c_sent), Some(c_replied)) = (c.sent, c.replied) else { continue };
            let server = (replied - sent) * 1e6;
            let client = (c_replied - c_sent) * 1e6;
            server_us.push(server);
            verify_us.push(verify as f64);
            inbox_us.push(server - verify as f64);
            transport_us.push(client - server);
            client_us.push(client);
        }
        let p50 = |v: &[f64]| stats::median(v);
        out.set("service.server_us_p50", p50(&server_us));
        out.set("service.verify_us_p50", p50(&verify_us));
        out.set("service.inbox_wait_us_p50", p50(&inbox_us));
        out.set("service.transport_us_p50", p50(&transport_us));
        out.set("service.busy_replies", sample(&metrics_text, "covern_busy_replies_total"));
        out.set("service.protocol_errors", sample(&metrics_text, "covern_protocol_errors_total"));
        let lag_tail = stats::tail(&lags).map_or(0.0, |t| t.value);
        out.set("service.generator_lag_ms", lag_tail);
        // Sum check: inbox wait + verification + transport residual against
        // the client's send-to-reply latency, at the medians.
        let parts = p50(&inbox_us) + p50(&verify_us) + p50(&transport_us);
        let client = p50(&client_us);
        let error = (parts - client).abs() / client.max(1.0);
        out.set("trace.sum_check_error_share", error);
        out.notes.push(format!(
            "sum check: inbox {:.1} + verify {:.1} + transport {:.1} = {parts:.1} us vs client {client:.1} us \
             over {} paired deltas (tolerance 25%)",
            p50(&inbox_us),
            p50(&verify_us),
            p50(&transport_us),
            client_us.len()
        ));
        if error > 0.25 {
            out.violate(format!(
                "server phases and transport miss the client latency by {:.0}%",
                error * 100.0
            ));
        }
        for r in crate::common::RUNGS {
            out.set(&format!("core.rung_decided.{r}"), decided.get(r).copied().unwrap_or(0) as f64);
        }
        let reference = reference.expect("traced runs measure an untraced reference");
        let ref_lat: Vec<f64> = reference
            .iter()
            .filter(|((_, d), r)| d.is_some() && !r.failed)
            .filter_map(|(_, r)| r.replied.map(|t| (t - r.due) * 1e3))
            .collect();
        let untraced = stats::median(&ref_lat);
        out.set(
            "trace.overhead_share",
            if untraced > 0.0 { stats::median(&lat) / untraced - 1.0 } else { 0.0 },
        );
        out.set("trace.spans", tracer.spans().len() as f64);
        let nets: Vec<(&Network, &BoxDomain)> = specs
            .iter()
            .filter(|s| s.closed_loop.is_none())
            .take(NETS.len())
            .map(|s| (&s.network, &s.din))
            .collect();
        layers::probe(&nets, &mut out);
        layers::write_trace(cfg, "daemon-open-loop", &tracer, &out)?;
    }
    Ok(out)
}
