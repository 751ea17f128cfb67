//! EASY backfill: a reservation (shadow time) for the highest-priority
//! blocked job, and conservative backfilling of later jobs that finish
//! before it.

use darms_rms::proto::{QueuedJobSnap, RunningJobSnap};
use darms_sim::SimTime;

use crate::alloc::FreeTracker;

/// The earliest time the blocked job is guaranteed to fit, assuming every
/// running job releases its resources at its walltime estimate. Returns
/// `None` if the job would not fit even on an empty cluster (it can never
/// start; no reservation is made).
pub fn shadow_time<'a>(
    blocked: &QueuedJobSnap,
    tracker: &FreeTracker,
    running: impl IntoIterator<Item = &'a RunningJobSnap>,
    now: SimTime,
) -> Option<SimTime> {
    if tracker.fits(blocked) {
        return Some(now);
    }
    let mut future = tracker.clone();
    let mut ends: Vec<(&RunningJobSnap, SimTime)> =
        running.into_iter().map(|r| (r, r.started + r.walltime_estimate)).collect();
    ends.sort_by_key(|(r, t)| (*t, r.job));
    for (r, end) in ends {
        future.give_back(&r.compute_hosts, r.ppn, &r.acc_hosts);
        if future.fits(blocked) {
            return Some(end.max(now));
        }
    }
    None
}

/// Whether `candidate` may start now without delaying the reservation:
/// conservative EASY — it must fit now *and* be estimated to finish before
/// the shadow time.
pub fn may_backfill(
    candidate: &QueuedJobSnap,
    tracker: &FreeTracker,
    shadow: SimTime,
    now: SimTime,
) -> bool {
    tracker.fits(candidate) && now + candidate.walltime_estimate <= shadow
}

#[cfg(test)]
mod tests {
    use super::*;
    use darms_net::HostId;
    use darms_rms::proto::{ClusterSnapshot, DeviceClass, NodeSnap};
    use darms_rms::{JobId, NodeRole};
    use darms_sim::SimDuration;

    fn h(i: usize) -> HostId {
        HostId::from_raw(i)
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn at(s: u64) -> SimTime {
        SimTime::ZERO + secs(s)
    }

    /// 2 compute nodes (4 cores), 1 accelerator; node 0 fully busy.
    fn snapshot() -> ClusterSnapshot {
        ClusterSnapshot {
            nodes: vec![
                NodeSnap {
                    host: h(0),
                    role: NodeRole::Compute,
                    cores_total: 4,
                    cores_free: 0,
                    offline: false,
                    class: DeviceClass::default(),
                },
                NodeSnap {
                    host: h(1),
                    role: NodeRole::Compute,
                    cores_total: 4,
                    cores_free: 4,
                    offline: false,
                    class: DeviceClass::default(),
                },
                NodeSnap {
                    host: h(2),
                    role: NodeRole::Accelerator,
                    cores_total: 1,
                    cores_free: 1,
                    offline: false,
                    class: DeviceClass::default(),
                },
            ],
            queued: vec![],
            running: vec![],
            dyn_pending: None,
        }
    }

    fn running(id: u64, host: usize, started_s: u64, wall_s: u64) -> RunningJobSnap {
        RunningJobSnap {
            job: JobId(id),
            owner: "u".into(),
            started: at(started_s),
            walltime_estimate: secs(wall_s),
            compute_hosts: vec![h(host)],
            ppn: 4,
            acc_hosts: vec![],
        }
    }

    fn wide_job(nodes: usize) -> QueuedJobSnap {
        QueuedJobSnap {
            job: JobId(99),
            owner: "u".into(),
            submitted: SimTime::ZERO,
            nodes,
            ppn: 4,
            acpn: 0,
            walltime_estimate: secs(50),
        }
    }

    #[test]
    fn shadow_is_now_when_job_fits() {
        let t = FreeTracker::from_snapshot(&snapshot());
        let s = shadow_time(&wide_job(1), &t, &[], at(10)).unwrap();
        assert_eq!(s, at(10));
    }

    #[test]
    fn shadow_is_running_job_end() {
        let t = FreeTracker::from_snapshot(&snapshot());
        // Needs both nodes; node 0 frees when job 1 ends at t=100.
        let s = shadow_time(&wide_job(2), &t, &[running(1, 0, 0, 100)], at(10)).unwrap();
        assert_eq!(s, at(100));
    }

    #[test]
    fn impossible_job_has_no_shadow() {
        let t = FreeTracker::from_snapshot(&snapshot());
        assert!(shadow_time(&wide_job(3), &t, &[running(1, 0, 0, 100)], at(10)).is_none());
    }

    #[test]
    fn shadow_never_precedes_now() {
        let t = FreeTracker::from_snapshot(&snapshot());
        // Running job's estimate already expired (it overran): end=5 < now=50.
        let s = shadow_time(&wide_job(2), &t, &[running(1, 0, 0, 5)], at(50)).unwrap();
        assert_eq!(s, at(50));
    }

    #[test]
    fn backfill_exact_fit_boundary() {
        // Conservative EASY admits a job whose estimated completion lands
        // exactly on the shadow time — it cannot delay the reservation —
        // and rejects one that overshoots by a single nanosecond.
        let t = FreeTracker::from_snapshot(&snapshot());
        let now = at(10);
        let shadow = at(60);
        let mut exact = wide_job(1);
        exact.walltime_estimate = shadow.since(now);
        assert!(may_backfill(&exact, &t, shadow, now), "now + walltime == shadow fits");
        let mut over = wide_job(1);
        over.walltime_estimate = shadow.since(now) + SimDuration::from_nanos(1);
        assert!(!may_backfill(&over, &t, shadow, now), "one nanosecond past the shadow");
    }

    #[test]
    fn backfill_requires_fit_and_completion_before_shadow() {
        let t = FreeTracker::from_snapshot(&snapshot());
        let mut short = wide_job(1);
        short.walltime_estimate = secs(20);
        assert!(may_backfill(&short, &t, at(100), at(10)));
        // too long: would end after the shadow time
        let mut long = wide_job(1);
        long.walltime_estimate = secs(200);
        assert!(!may_backfill(&long, &t, at(100), at(10)));
        // doesn't fit at all
        assert!(!may_backfill(&wide_job(2), &t, at(1000), at(10)));
    }
}
