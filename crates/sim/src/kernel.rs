//! The simulation kernel: virtual clock, event queue, process table, RNG,
//! structured tracer, and metrics registry.
//!
//! The kernel lives behind an `Rc<RefCell<..>>` shared by the engine and
//! every [`Proc`](crate::Proc) handle. Everything runs on the engine
//! thread — process bodies are stackless futures the engine polls one at
//! a time — so borrows are never contended; the cell exists so handles
//! can be owned by the bodies themselves without borrowing the engine,
//! and a `RefCell` borrow is an integer flag check instead of the mutex
//! acquisition the previous runtime paid 4–6 times per event. The
//! process table is a slab: slots are indexed by `ProcessId` (wakeups
//! and handle lookups are integer ops), never reused (a recycled id
//! could mis-deliver a late message), and retired on completion — the
//! body is dropped and the mailbox buffer recycled into a pool for
//! future spawns.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::envelope::{ActorId, Endpoint, Envelope, ProcessId};
use crate::metrics::MetricsRegistry;
use crate::process::ProcBody;
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceEventKind, TraceSource, Tracer};

/// What a scheduled event does when it fires.
pub(crate) enum EventKind {
    /// Deliver a message to an endpoint.
    Deliver { dst: Endpoint, env: Envelope },
    /// Wake a parked process. Stale wakes (epoch mismatch) are ignored,
    /// which is how sleep timeouts and message arrivals coexist safely.
    Wake { pid: ProcessId, epoch: u64 },
    /// Fire a timer registered by a reactive actor. Stale generations
    /// (the token was cancelled after scheduling) are discarded without
    /// advancing the clock.
    Timer { actor: ActorId, token: u64, gen: u64 },
}

/// An entry in the event queue, ordered by `(time, seq)` so that
/// simultaneous events fire in scheduling order (deterministic).
pub(crate) struct Scheduled {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Why a process is not currently running.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ProcState {
    /// Spawned; the body future has not been constructed yet.
    NotStarted,
    /// Currently being polled by the engine.
    Active,
    /// Suspended in `recv`; a message delivery wakes it.
    ParkedRecv,
    /// Suspended in `sleep`; only the matching `Wake` event resumes it.
    ParkedSleep,
    /// Body ran to completion (or was dropped at shutdown).
    Finished,
}

/// Bookkeeping for one stackless process.
pub(crate) struct ProcSlot {
    /// Interned once at spawn; trace emission and `endpoint_name` hand
    /// out refcount bumps instead of fresh `String`s.
    pub name: Arc<str>,
    pub mailbox: VecDeque<Envelope>,
    pub state: ProcState,
    /// Park epoch; bumped every time the process parks or is woken so
    /// stale `Wake` events can be discarded.
    pub epoch: u64,
    /// The body state machine. Taken out (and put back) by the engine
    /// around each poll so polling happens without the kernel lock.
    pub body: ProcBody,
}

/// One line of the simulation trace, in the legacy flat form. The
/// structured stream ([`TraceEvent`]) is the source of truth; records
/// are derived from it by [`Engine::take_trace`](crate::Engine::take_trace)
/// for existing consumers.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Component that produced the record.
    pub source: String,
    /// Human-readable description.
    pub event: String,
}

impl From<TraceEvent> for TraceRecord {
    fn from(ev: TraceEvent) -> Self {
        let event = match (&ev.kind, ev.detail.is_empty()) {
            (TraceEventKind::Counter(v), _) => format!("{} = {v}", ev.name),
            (_, true) => ev.name,
            (_, false) => format!("{}: {}", ev.name, ev.detail),
        };
        TraceRecord { time: ev.time, source: ev.source_name.to_string(), event }
    }
}

/// Engine configuration knobs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for the deterministic RNG.
    pub seed: u64,
    /// Hard cap on processed events (guards against livelock).
    pub max_events: u64,
    /// Virtual-time horizon; events after it are not processed.
    pub horizon: SimTime,
    /// Record trace lines.
    pub trace: bool,
    /// Echo trace lines to stderr as they happen (debugging aid).
    pub trace_echo: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5eed_dac5,
            max_events: 50_000_000,
            horizon: SimTime::MAX,
            trace: false,
            trace_echo: false,
        }
    }
}

/// Aggregate statistics returned by [`Engine::run`](crate::engine::Engine::run).
///
/// Equality compares only the *deterministic* fields: `wall_nanos`
/// (real time, varies run to run) is excluded, so two runs of the same
/// seed still compare equal.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// Number of events dispatched.
    pub events: u64,
    /// Final virtual time.
    pub end_time: SimTime,
    /// Processes spawned over the run.
    pub processes_spawned: u64,
    /// Processes that ran to completion.
    pub processes_finished: u64,
    /// True if the run stopped because `max_events` was hit.
    pub hit_event_cap: bool,
    /// True if the run stopped at the virtual-time horizon.
    pub hit_horizon: bool,
    /// Process bodies that terminated by a genuine panic.
    pub process_panics: u64,
    /// Largest event-queue depth observed at a dispatch (including the
    /// event being dispatched).
    pub peak_queue_depth: u64,
    /// Sum of the queue depth sampled at every dispatch; divide by
    /// `events` for the mean (see [`SimStats::mean_queue_depth`]).
    pub queue_depth_sum: u64,
    /// Process resumes (one per poll of a process body). The name is
    /// historical: the threaded runtime paid an engine↔thread hand-off
    /// here, the stackless runtime a future poll.
    pub context_switches: u64,
    /// Real (wall-clock) nanoseconds spent inside the event loop.
    /// **Non-deterministic**; excluded from equality.
    pub wall_nanos: u64,
}

impl PartialEq for SimStats {
    fn eq(&self, other: &Self) -> bool {
        (
            self.events,
            self.end_time,
            self.processes_spawned,
            self.processes_finished,
            self.hit_event_cap,
            self.hit_horizon,
            self.process_panics,
            self.peak_queue_depth,
            self.queue_depth_sum,
            self.context_switches,
        ) == (
            other.events,
            other.end_time,
            other.processes_spawned,
            other.processes_finished,
            other.hit_event_cap,
            other.hit_horizon,
            other.process_panics,
            other.peak_queue_depth,
            other.queue_depth_sum,
            other.context_switches,
        )
    }
}

impl Eq for SimStats {}

impl SimStats {
    /// Mean event-queue depth over all dispatches.
    pub fn mean_queue_depth(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.events as f64
        }
    }

    /// Real seconds spent inside the event loop.
    pub fn wall_secs(&self) -> f64 {
        self.wall_nanos as f64 / 1e9
    }

    /// Real (wall-clock) seconds burned per simulated second — the
    /// engine's slowdown factor (values below 1.0 mean faster than
    /// real time). Zero when no virtual time elapsed.
    pub fn wall_per_sim_second(&self) -> f64 {
        let sim = self.end_time.as_secs_f64();
        if sim <= 0.0 {
            0.0
        } else {
            self.wall_secs() / sim
        }
    }
}

/// The mutable heart of the simulation. See module docs for the locking
/// discipline.
pub struct Kernel {
    pub(crate) now: SimTime,
    pub(crate) seq: u64,
    pub(crate) queue: EventQueue,
    pub(crate) procs: Vec<ProcSlot>,
    pub(crate) shutdown: bool,
    pub(crate) rng: SmallRng,
    pub(crate) config: SimConfig,
    pub(crate) tracer: Tracer,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) stats: SimStats,
    pub(crate) actor_names: Vec<Arc<str>>,
    /// Per-actor timer generations, keyed by token. A timer event fires
    /// only if its generation still matches; `cancel_timer` bumps the
    /// generation, so cancellation is a counter increment instead of
    /// `HashSet` insert/remove churn on every fire.
    pub(crate) timer_gens: Vec<Vec<(u64, u64)>>,
    /// Mailbox buffers reclaimed from retired process slots, handed
    /// back out to new spawns. Spawn-churn workloads recycle the same
    /// few buffers instead of allocating one per process.
    pub(crate) mailbox_pool: Vec<VecDeque<Envelope>>,
}

impl Kernel {
    pub(crate) fn new(config: SimConfig) -> Self {
        let tracer = Tracer::new();
        tracer.set_enabled(config.trace);
        tracer.set_echo(config.trace_echo);
        Kernel {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(),
            procs: Vec::new(),
            shutdown: false,
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            tracer,
            metrics: MetricsRegistry::new(),
            stats: SimStats::default(),
            actor_names: Vec::new(),
            timer_gens: Vec::new(),
            mailbox_pool: Vec::new(),
        }
    }

    /// Hand out a mailbox buffer: a recycled one when available,
    /// otherwise a fresh allocation (most daemons hold only a few
    /// undelivered messages at a time).
    pub(crate) fn alloc_mailbox(&mut self) -> VecDeque<Envelope> {
        self.mailbox_pool.pop().unwrap_or_else(|| VecDeque::with_capacity(4))
    }

    /// Retire a finished process slot: drop any undelivered mail and
    /// recycle the mailbox buffer. The slot itself stays (ids are never
    /// reused), but its heap footprint shrinks to the name handle.
    pub(crate) fn retire_slot(&mut self, pid: ProcessId) {
        let slot = &mut self.procs[pid.0];
        let mut mailbox = std::mem::take(&mut slot.mailbox);
        mailbox.clear();
        if self.mailbox_pool.len() < 256 {
            self.mailbox_pool.push(mailbox);
        }
    }

    /// Current timer generation for `(actor, token)`; zero if never set
    /// or cancelled. The per-actor token lists are tiny (daemons use a
    /// handful of tokens), so a linear scan beats hashing.
    pub(crate) fn timer_gen(&self, actor: usize, token: u64) -> u64 {
        self.timer_gens
            .get(actor)
            .and_then(|v| v.iter().find(|&&(t, _)| t == token))
            .map_or(0, |&(_, g)| g)
    }

    /// Bump the generation of `(actor, token)`, invalidating every
    /// pending timer event scheduled under the old generation.
    pub(crate) fn bump_timer_gen(&mut self, actor: usize, token: u64) {
        if self.timer_gens.len() <= actor {
            self.timer_gens.resize_with(actor + 1, Vec::new);
        }
        let v = &mut self.timer_gens[actor];
        match v.iter_mut().find(|(t, _)| *t == token) {
            Some((_, g)) => *g += 1,
            None => v.push((token, 1)),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Push an event onto the queue at absolute time `at` (clamped to now).
    #[inline]
    pub(crate) fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { time: at, seq, kind });
    }

    /// Schedule delivery of `env` to `dst` after `delay`.
    #[inline]
    pub fn send(&mut self, dst: Endpoint, env: Envelope, delay: SimDuration) {
        let at = self.now + delay;
        self.schedule(at, EventKind::Deliver { dst, env });
    }

    /// Bump a process's park epoch and return the new value.
    #[inline]
    pub(crate) fn bump_epoch(&mut self, pid: ProcessId) -> u64 {
        let slot = &mut self.procs[pid.0];
        slot.epoch += 1;
        slot.epoch
    }

    /// Record an instant trace event attributed to the kernel itself
    /// (no-op unless tracing is enabled).
    pub fn trace(&mut self, source: &str, event: impl Into<String>) {
        let now = self.now;
        self.tracer.emit_with(|| TraceEvent {
            time: now,
            source: TraceSource::Kernel,
            source_name: Arc::from(source),
            name: event.into(),
            detail: String::new(),
            kind: TraceEventKind::Instant,
        });
    }

    /// Record an instant trace event with a typed source (no-op unless
    /// tracing is enabled; the strings are only built when it is). The
    /// source name is an interned handle, so emission never copies it.
    pub fn emit(
        &self,
        source: TraceSource,
        source_name: &Arc<str>,
        name: impl Into<String>,
        detail: impl Into<String>,
    ) {
        let now = self.now;
        self.tracer.emit_with(|| TraceEvent {
            time: now,
            source,
            source_name: source_name.clone(),
            name: name.into(),
            detail: detail.into(),
            kind: TraceEventKind::Instant,
        });
    }

    /// The structured-event tracer handle (cloneable; shared with all
    /// clones). Enabled iff [`SimConfig::trace`] was set, until toggled.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// The shared metrics registry all instrumented subsystems write to.
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.clone()
    }

    /// Draw from the deterministic RNG.
    pub fn with_rng<R>(&mut self, f: impl FnOnce(&mut SmallRng) -> R) -> R {
        f(&mut self.rng)
    }

    /// Human-readable name of an endpoint (for traces and errors). A
    /// refcount bump for registered endpoints; allocates only for the
    /// unknown-id fallback.
    pub fn endpoint_name(&self, ep: Endpoint) -> Arc<str> {
        match ep {
            Endpoint::Actor(a) => self
                .actor_names
                .get(a.0)
                .cloned()
                .unwrap_or_else(|| format!("actor#{}", a.0).into()),
            Endpoint::Process(p) => self
                .procs
                .get(p.0)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| format!("proc#{}", p.0).into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_orders_by_time_then_seq() {
        let mut k = Kernel::new(SimConfig::default());
        k.schedule(SimTime::from_nanos(20), EventKind::Wake { pid: ProcessId(0), epoch: 0 });
        k.schedule(SimTime::from_nanos(10), EventKind::Wake { pid: ProcessId(1), epoch: 0 });
        k.schedule(SimTime::from_nanos(10), EventKind::Wake { pid: ProcessId(2), epoch: 0 });
        let order: Vec<usize> = std::iter::from_fn(|| k.queue.pop())
            .map(|s| match s.kind {
                EventKind::Wake { pid, .. } => pid.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 0]); // same-time ties broken by schedule order
    }

    #[test]
    fn schedule_clamps_to_now() {
        let mut k = Kernel::new(SimConfig::default());
        k.now = SimTime::from_nanos(100);
        k.schedule(
            SimTime::from_nanos(5),
            EventKind::Timer { actor: ActorId(0), token: 0, gen: 0 },
        );
        let s = k.queue.pop().unwrap();
        assert_eq!(s.time, SimTime::from_nanos(100));
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut k = Kernel::new(SimConfig::default());
        k.trace("x", "hello");
        assert!(k.tracer.is_empty());
        k.tracer.set_enabled(true);
        k.trace("x", "hello");
        assert_eq!(k.tracer.len(), 1);
        let evs = k.tracer.take();
        assert_eq!(evs[0].name, "hello");
        assert_eq!(&*evs[0].source_name, "x");
        assert_eq!(evs[0].source, TraceSource::Kernel);
    }

    #[test]
    fn rng_is_seed_deterministic() {
        use rand::Rng;
        let mut a = Kernel::new(SimConfig { seed: 42, ..Default::default() });
        let mut b = Kernel::new(SimConfig { seed: 42, ..Default::default() });
        let xa: Vec<u32> = (0..8).map(|_| a.with_rng(|r| r.gen())).collect();
        let xb: Vec<u32> = (0..8).map(|_| b.with_rng(|r| r.gen())).collect();
        assert_eq!(xa, xb);
    }
}
