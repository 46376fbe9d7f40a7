//! Sessions and the process-wide session registry.
//!
//! A **session** is one client's continuous-engineering stream: the
//! [`ContinuousVerifier`] holding the current problem and proof artifacts,
//! plus a bounded **inbox** of deltas waiting to be absorbed. Deltas are
//! absorbed strictly in submission order by at most one *drain task* at a
//! time (see `dispatch`); the inbox bound is the service's backpressure
//! seam — when it is full the dispatcher answers `Busy` instead of
//! queueing, so a client that outpaces the verifier is told so instead of
//! growing the server's memory without limit.
//!
//! The [`SessionRegistry`] maps process-unique ids to live sessions.
//! Session ids are never reused within a server's lifetime, so a stale id
//! after `Close` yields `UnknownSession` rather than aliasing a newer
//! session.

use crate::dispatch::Respond;
use crate::protocol::{SessionSummary, VerdictEvent};
use covern_campaign::report::EventRecord;
use covern_campaign::DeltaEvent;
use covern_closedloop::LoopVerifier;
use covern_core::pipeline::ContinuousVerifier;
use covern_core::CoreError;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One queued delta awaiting its session's drain task.
pub(crate) struct QueuedDelta {
    /// Correlation id of the originating request.
    pub id: u64,
    /// The delta to absorb.
    pub delta: DeltaEvent,
    /// Where the verdict (or failure) reply goes.
    pub responder: Arc<dyn Respond>,
    /// When the delta was queued; its drain task observes the wait.
    pub enqueued: Instant,
}

/// The bounded inbox; `running` marks an active drain task. Both are
/// mutated only under the one lock, which is what makes the
/// pop-empty/enqueue race-free: a drain task that observes an empty queue
/// clears `running` in the same critical section, so a concurrent enqueue
/// either lands before (and is popped) or after (and starts a new drain).
struct Inbox {
    queue: VecDeque<QueuedDelta>,
    running: bool,
}

/// Outcome of [`Session::try_enqueue`].
pub(crate) enum Enqueue {
    /// Queued, and no drain task was active: the caller must start one.
    StartDrain,
    /// Queued behind an active drain task.
    Queued,
    /// The inbox is full; the caller must answer `Busy`.
    Busy {
        /// Deltas currently queued.
        pending: u64,
    },
}

/// The two verifier kinds a session can host: the open-loop
/// continuous-engineering pipeline, or the closed-loop reach-tube
/// verifier (controller + plant). The delta stream is shared — both
/// absorb [`DeltaEvent`]s, reinterpreted per kind.
pub enum SessionVerifier {
    /// Open-loop `φ(f, Din, Dout)` pipeline.
    Continuous(ContinuousVerifier),
    /// Closed-loop reach-tube propagation.
    Loop(LoopVerifier),
}

/// A live verification session (see module docs).
pub struct Session {
    id: u64,
    label: String,
    /// The session's verifier. Locked by the drain task for the duration
    /// of each delta (deltas of one session are sequential by design) and
    /// briefly by `Checkpoint`, which therefore snapshots between deltas.
    verifier: Mutex<SessionVerifier>,
    inbox: Mutex<Inbox>,
    seq: AtomicU64,
    deltas: AtomicU64,
    proved: AtomicU64,
    refuted: AtomicU64,
    unknown: AtomicU64,
}

impl Session {
    fn new(id: u64, label: String, verifier: SessionVerifier) -> Self {
        Self {
            id,
            label,
            verifier: Mutex::new(verifier),
            inbox: Mutex::new(Inbox { queue: VecDeque::new(), running: false }),
            seq: AtomicU64::new(0),
            deltas: AtomicU64::new(0),
            proved: AtomicU64::new(0),
            refuted: AtomicU64::new(0),
            unknown: AtomicU64::new(0),
        }
    }

    /// The process-unique session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The client-chosen label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Tries to queue a delta, honouring the inbox bound.
    pub(crate) fn try_enqueue(&self, item: QueuedDelta, capacity: usize) -> Enqueue {
        let mut inbox = self.inbox.lock().expect("inbox lock");
        if inbox.queue.len() >= capacity {
            return Enqueue::Busy { pending: inbox.queue.len() as u64 };
        }
        inbox.queue.push_back(item);
        covern_observe::metrics().inbox_depth.inc();
        if inbox.running {
            Enqueue::Queued
        } else {
            inbox.running = true;
            Enqueue::StartDrain
        }
    }

    /// Pops the next queued delta, or — atomically with observing an empty
    /// queue — marks the drain task finished and returns `None`.
    pub(crate) fn pop_or_finish(&self) -> Option<QueuedDelta> {
        let mut inbox = self.inbox.lock().expect("inbox lock");
        match inbox.queue.pop_front() {
            Some(item) => {
                covern_observe::metrics().inbox_depth.dec();
                Some(item)
            }
            None => {
                inbox.running = false;
                None
            }
        }
    }

    /// Whether no delta is queued or in flight.
    pub fn is_idle(&self) -> bool {
        let inbox = self.inbox.lock().expect("inbox lock");
        inbox.queue.is_empty() && !inbox.running
    }

    /// Applies one delta on the session's verifier, records the verdict in
    /// the running tallies, and returns the wire event.
    ///
    /// # Errors
    ///
    /// Returns the failure message when the delta is structurally
    /// inapplicable (architecture change, non-enlargement, arity or
    /// dimension mismatch); the session state is unchanged and stays
    /// usable. The message is the underlying error's display form — the
    /// same string a single-process campaign records — so cluster and
    /// local reports stay byte-comparable.
    pub(crate) fn apply(
        &self,
        delta: &DeltaEvent,
        method: &covern_core::LocalMethod,
    ) -> Result<VerdictEvent, String> {
        let mut verifier = self.verifier.lock().map_err(|_| poisoned().to_string())?;
        let record = match &mut *verifier {
            SessionVerifier::Continuous(v) => {
                let report = covern_campaign::runner::apply_event(v, delta, method)
                    .map_err(|e| e.to_string())?;
                EventRecord::from_report(&delta.kind(), &report)
            }
            SessionVerifier::Loop(v) => {
                let report = covern_campaign::runner::apply_loop_event(v, delta)
                    .map_err(|e| e.to_string())?;
                EventRecord::from_loop_report(&delta.kind(), &report)
            }
        };
        drop(verifier);
        self.deltas.fetch_add(1, Ordering::Relaxed);
        match record.outcome.as_str() {
            "proved" => &self.proved,
            "refuted" => &self.refuted,
            _ => &self.unknown,
        }
        .fetch_add(1, Ordering::Relaxed);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        Ok(VerdictEvent { session: self.id, seq, record })
    }

    /// Serializes the verifier state between deltas.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Substrate`] on encoding failure.
    pub fn checkpoint(&self) -> Result<String, CoreError> {
        match &*self.verifier.lock().map_err(|_| poisoned())? {
            SessionVerifier::Continuous(v) => v.checkpoint_json(),
            SessionVerifier::Loop(v) => {
                v.checkpoint_json().map_err(|e| CoreError::Substrate(e.to_string()))
            }
        }
    }

    /// The session's lifetime tally.
    pub fn summary(&self) -> SessionSummary {
        SessionSummary {
            session: self.id,
            label: self.label.clone(),
            deltas: self.deltas.load(Ordering::Relaxed),
            proved: self.proved.load(Ordering::Relaxed),
            refuted: self.refuted.load(Ordering::Relaxed),
            unknown: self.unknown.load(Ordering::Relaxed),
        }
    }
}

/// The error a session reports once a panic has poisoned its verifier
/// lock: its state may be inconsistent, so it refuses further work
/// instead of guessing (close it and resume from an earlier checkpoint).
fn poisoned() -> CoreError {
    CoreError::Substrate(
        "session verifier poisoned by an earlier panic; close the session and resume from a \
         checkpoint"
            .into(),
    )
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("label", &self.label)
            .field("idle", &self.is_idle())
            .finish()
    }
}

/// The process-wide id → session map (see module docs).
#[derive(Debug, Default)]
pub struct SessionRegistry {
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_id: AtomicU64,
    opened: AtomicU64,
}

impl SessionRegistry {
    /// An empty registry; the first session gets id 1.
    pub fn new() -> Self {
        Self {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            opened: AtomicU64::new(0),
        }
    }

    /// Registers a fresh session around `verifier` and returns it.
    pub fn insert(&self, label: String, verifier: SessionVerifier) -> Arc<Session> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Session::new(id, label, verifier));
        self.sessions.lock().expect("registry lock").insert(id, Arc::clone(&session));
        self.opened.fetch_add(1, Ordering::Relaxed);
        session
    }

    /// Looks up a live session.
    pub fn get(&self, id: u64) -> Option<Arc<Session>> {
        self.sessions.lock().expect("registry lock").get(&id).cloned()
    }

    /// Unregisters a session (queued work it still holds will finish).
    pub fn remove(&self, id: u64) -> Option<Arc<Session>> {
        self.sessions.lock().expect("registry lock").remove(&id)
    }

    /// Number of currently registered sessions.
    pub fn open_count(&self) -> u64 {
        self.sessions.lock().expect("registry lock").len() as u64
    }

    /// Number of sessions ever registered.
    pub fn opened_total(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }
}
