//! Shared invariant checker for chaos and soak runs.
//!
//! One implementation of the control-plane safety invariants, consumed
//! by the chaos harness ([`crate::chaos`]), the soak subsystem
//! ([`crate::soak`] and the `darms_soak` binary) and the property tests
//! (`tests/chaos_properties.rs`) alike — so every surface asserts the
//! *same* conditions with the same strength:
//!
//! 1. **Engine health** — no simulated-process panic, event cap not hit
//!    ([`check_engine`]);
//! 2. **Pool conservation** — per node, `free + allocated == capacity`,
//!    sampleable mid-run and at the end ([`check_pool`]);
//! 3. **No leaked allocations / wedged jobs** — once every job is
//!    terminal, no node may still hold cores or a dynamically granted
//!    accelerator set ([`check_no_leaks`]); job-terminality itself is
//!    observed by the caller's in-sim auditor (it needs `qstat`);
//! 4. **Liveness** — no started job is still non-terminal once its
//!    walltime plus a grace period has passed ([`check_liveness`]);
//! 5. **Monotone event clock** — the serialized trace's virtual
//!    timestamps never decrease ([`check_monotone_clock`]);
//! 6. **Replay identity** — a rerun from the same seed reproduces the
//!    serialized trace byte-for-byte ([`check_replay_identity`];
//!    [`first_divergence`] locates the first differing line for triage).
//!
//! Every check returns a `Vec<String>` of human-readable violations —
//! empty means the invariant held — so callers can aggregate freely.

use darms::prelude::*;
use darms_rms::{JobStatus, NodeDb};

/// Engine-health invariant: the run must finish without a simulated
/// process panicking and without hitting the engine's event cap (a cap
/// hit means the scenario never quiesced — a wedge or a livelock).
pub fn check_engine(stats: &SimStats) -> Vec<String> {
    let mut v = Vec::new();
    if stats.process_panics != 0 {
        v.push(format!("{} process panic(s)", stats.process_panics));
    }
    if stats.hit_event_cap {
        v.push("engine event cap hit (scenario did not quiesce)".to_string());
    }
    v
}

/// Pool-conservation invariant: on every node, free cores plus cores
/// held by jobs must equal the node's capacity. `phase` labels the
/// sample point in the violation text (e.g. `"mid-run"`, `"final"`).
pub fn check_pool(db: &NodeDb, phase: &str) -> Vec<String> {
    let mut v = Vec::new();
    for n in db.nodes() {
        let allocated: u32 = n.jobs.values().sum();
        if n.cores_free + allocated != n.cores_total {
            v.push(format!(
                "{phase} pool accounting broken on host{}: {} free + {} allocated != {} total",
                n.host.index(),
                n.cores_free,
                allocated,
                n.cores_total
            ));
        }
    }
    v
}

/// Full-reclamation invariant: with every job terminal, no node may
/// still hold an allocation (leaked cores or accelerator sets). Only
/// meaningful once the caller has observed all jobs terminal.
pub fn check_no_leaks(db: &NodeDb) -> Vec<String> {
    let mut v = Vec::new();
    for n in db.nodes() {
        if !n.jobs.is_empty() {
            v.push(format!(
                "leaked allocation on host{}: jobs {:?} still hold cores/sets",
                n.host.index(),
                n.jobs.keys().collect::<Vec<_>>()
            ));
        }
    }
    v
}

/// Liveness invariant: a job started at `s` must be terminal once
/// `s + walltime + grace` lies before `end`. Walltime enforcement ends
/// it at `s + walltime`; `grace` covers the kill's control-plane round
/// trips and retries. `table` is a `qstat` listing taken at `end`, and
/// `walltime` bounds the walltime of every job in it. A job that has
/// not started (or was requeued) is not judged: it may wait in the queue.
pub fn check_liveness(
    table: &[JobStatus],
    walltime: SimDuration,
    end: SimTime,
    grace: SimDuration,
) -> Vec<String> {
    table
        .iter()
        .filter(|s| !s.state.is_terminal())
        .filter_map(|s| {
            let started = s.started?;
            let deadline = started + walltime + grace;
            (deadline < end).then(|| {
                format!(
                    "{} still {:?} at {end}: started {started}, past walltime + grace at \
                     {deadline}",
                    s.id, s.state
                )
            })
        })
        .collect()
}

/// Monotone-clock invariant: virtual timestamps in the event stream
/// never decrease (the engine dispatches in `(time, seq)` order; a
/// decrease means trace corruption or an engine bug).
pub fn check_monotone_clock(events: &[TraceEvent]) -> Vec<String> {
    for (i, w) in events.windows(2).enumerate() {
        if w[1].time < w[0].time {
            return vec![format!(
                "event clock went backwards at event {}: {} after {} ({} after {})",
                i + 1,
                w[1].time,
                w[0].time,
                w[1].name,
                w[0].name
            )];
        }
    }
    Vec::new()
}

/// Replay-identity invariant: `second` (a rerun from the same seed)
/// must equal `first` byte-for-byte. On divergence the violation names
/// the first differing trace line (see [`first_divergence`]).
pub fn check_replay_identity(first: &str, second: &str) -> Vec<String> {
    if first == second {
        return Vec::new();
    }
    let at = first_divergence(first, second);
    vec![match at {
        Some(line) => format!(
            "rerun of the same seed diverged (trace not byte-identical; first divergence at \
             trace line {line})"
        ),
        None => "rerun of the same seed diverged (trace not byte-identical)".to_string(),
    }]
}

/// Zero-based index of the first line where two serialized traces
/// differ (a missing line on one side counts as a difference). `None`
/// when the traces are identical.
pub fn first_divergence(first: &str, second: &str) -> Option<usize> {
    let mut a = first.lines();
    let mut b = second.lines();
    let mut i = 0usize;
    loop {
        match (a.next(), b.next()) {
            (None, None) => return None,
            (x, y) if x == y => i += 1,
            _ => return Some(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darms_net::{HostId, HostKind, LatencyModel, Network};
    use darms_rms::JobId;

    fn db_with_one_node() -> (NodeDb, HostId) {
        let net = Network::new(LatencyModel::ideal(), 1);
        let h = net.add_host("cn00", HostKind::Compute);
        let mut db = NodeDb::new();
        db.add_compute(h, 4);
        (db, h)
    }

    #[test]
    fn healthy_engine_and_conserved_pool_pass() {
        let stats = SimStats::default();
        assert!(check_engine(&stats).is_empty());
        let (db, _) = db_with_one_node();
        assert!(check_pool(&db, "final").is_empty());
        assert!(check_no_leaks(&db).is_empty());
    }

    #[test]
    fn allocation_is_conserved_but_leaks_are_reported() {
        let (mut db, h) = db_with_one_node();
        db.allocate_compute(h, JobId(1), 2);
        // Allocation moves cores, it does not break conservation.
        assert!(check_pool(&db, "mid-run").is_empty());
        // But with all jobs terminal it is a leak.
        let leaks = check_no_leaks(&db);
        assert_eq!(leaks.len(), 1);
        assert!(leaks[0].contains("leaked allocation"), "{leaks:?}");
        db.release(h, JobId(1));
        assert!(check_no_leaks(&db).is_empty());
    }

    #[test]
    fn engine_failures_are_reported() {
        let stats = SimStats { process_panics: 2, hit_event_cap: true, ..Default::default() };
        let v = check_engine(&stats);
        assert_eq!(v.len(), 2);
        assert!(v[0].contains("panic"));
        assert!(v[1].contains("event cap"));
    }

    #[test]
    fn liveness_flags_only_started_jobs_past_walltime_and_grace() {
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let job = |id: u64, state: JobState, started: Option<u64>| JobStatus {
            id: JobId(id),
            name: format!("j{id}"),
            owner: "u".into(),
            state,
            submitted: SimTime::ZERO,
            started: started.map(at),
            completed: None,
            compute_hosts: Vec::new(),
            static_accs: Vec::new(),
            dyn_sets: Vec::new(),
        };
        let wall = SimDuration::from_secs(100);
        let grace = SimDuration::from_secs(30);
        let table = vec![
            job(1, JobState::Running, Some(0)),    // deadline 130 < 200: stuck
            job(2, JobState::Running, Some(100)),  // deadline 230: still in time
            job(3, JobState::Queued, None),        // never started: not judged
            job(4, JobState::TimedOut, Some(0)),   // terminal
            job(5, JobState::DynQueued, Some(50)), // deadline 180 < 200: stuck
        ];
        let v = check_liveness(&table, wall, at(200), grace);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].starts_with(&JobId(1).to_string()), "{v:?}");
        assert!(v[1].starts_with(&JobId(5).to_string()), "{v:?}");
        assert!(check_liveness(&table, wall, at(130), grace).is_empty(), "deadline is exclusive");
    }

    #[test]
    fn monotone_clock_detects_a_backwards_step() {
        let mk = |secs: u64| TraceEvent {
            time: SimTime::ZERO + SimDuration::from_secs(secs),
            source: TraceSource::Kernel,
            source_name: "kernel".into(),
            name: "tick".to_string(),
            detail: String::new(),
            kind: TraceEventKind::Instant,
        };
        assert!(check_monotone_clock(&[]).is_empty());
        assert!(check_monotone_clock(&[mk(1), mk(1), mk(2)]).is_empty());
        let v = check_monotone_clock(&[mk(1), mk(3), mk(2)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("event 2"), "{v:?}");
    }

    #[test]
    fn divergence_names_the_first_differing_line() {
        assert!(check_replay_identity("a\nb\n", "a\nb\n").is_empty());
        assert_eq!(first_divergence("a\nb\nc\n", "a\nX\nc\n"), Some(1));
        assert_eq!(first_divergence("a\n", "a\nb\n"), Some(1), "length mismatch diverges");
        let v = check_replay_identity("a\nb\n", "a\nc\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("trace line 1"), "{v:?}");
    }
}
