//! With incremental snapshots the server sends the scheduler only the
//! running jobs whose entry changed since its previous response. Debug
//! builds check every such delta against the full running list, so these
//! runs fail if any place that changes a running job forgets to mark it:
//! a start, the mom's start report, a dynamic set joining (`AC_Get`) or
//! leaving (`AC_Free`), a walltime kill, a `qdel` of a running job, and a
//! monitor-driven node loss (requeue first, cancel on the second loss).

use std::sync::Arc;

use darms::prelude::*;
use darms_experiments::invariants;
use darms_rms::MonitorConfig;
use darms_sched::SchedConfig;
use parking_lot::Mutex;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// Instant costs, with the scheduler keeping its caches between passes
/// and polling so it asks for many deltas.
fn incremental() -> SchedConfig {
    let mut sched = SchedConfig::instant();
    sched.incremental_snapshots = true;
    sched.poll_coalesce = true;
    sched.poll_interval = Some(secs(5));
    sched
}

/// A job that fills one compute node.
fn full_node(name: &str, runtime: u64) -> JobSpec {
    JobSpec::synthetic(name, secs(runtime)).ppn(8)
}

/// Record every job's final status with a `qstat` at `at`.
fn audit_at(cluster: &mut Cluster, at: u64) -> Arc<Mutex<Vec<JobStatus>>> {
    let states = Arc::new(Mutex::new(Vec::new()));
    let out = states.clone();
    cluster.client_after("audit", secs(at), move |c| async move {
        *out.lock() = c.qstat().await;
    });
    states
}

fn state_of(states: &[JobStatus], slot: &Arc<Mutex<Option<JobId>>>) -> JobState {
    let id = slot.lock().expect("submitted");
    states.iter().find(|s| s.id == id).expect("listed by qstat").state
}

/// Every job terminal and nothing left allocated in the node database.
fn assert_clean(cluster: &Cluster, stats: &SimStats, states: &[JobStatus], jobs: usize) {
    let mut violations = invariants::check_engine(stats);
    violations.extend(invariants::check_no_leaks(&cluster.node_db.lock()));
    assert!(violations.is_empty(), "invariant violations: {violations:#?}");
    assert_eq!(states.len(), jobs, "qstat lists every job");
    for s in states {
        assert!(s.state.is_terminal(), "job not terminal: {s:?}");
    }
}

#[test]
fn dynamic_sets_walltime_kill_and_qdel_keep_the_delta_exact() {
    let config = ClusterConfig::fast(81).with_split(2, 2).with_sched(incremental());
    let mut cluster = Cluster::build(config);
    let dac = cluster.dac.clone();
    let granted = Arc::new(Mutex::new(None));

    let out = granted.clone();
    let dyn_user = full_node("dyn", 20).walltime(secs(100)).script(script(move |jc| {
        let dac = dac.clone();
        let out = out.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
            jc.proc.sleep(secs(2)).await;
            let set = ses.ac_get(2).await.expect("both accelerators are free");
            *out.lock() = Some(set.handles.len());
            jc.proc.sleep(secs(5)).await;
            ses.ac_free(&set).await.unwrap();
            jc.proc.sleep(secs(3)).await;
            ses.finalize();
        }
    }));
    let dyn_user = cluster.qsub(dyn_user);
    let overrun = cluster.qsub(full_node("overrun", 60).walltime(secs(10)));
    let doomed = cluster.qsub(full_node("doomed", 1000).walltime(secs(2000)));
    let fillers: Vec<_> =
        (0..3).map(|i| cluster.qsub(full_node(&format!("filler{i}"), 15))).collect();

    // Cancel `doomed` once it runs (it starts when `overrun` is killed),
    // after a few scheduler polls have listed it as running.
    let slot = doomed.clone();
    cluster.client_after("qdel", secs(5), move |c| async move {
        let id = slot.lock().expect("submitted");
        let s = c.wait_for_state(id, JobState::Running, secs(1)).await;
        assert_eq!(s.state, JobState::Running);
        c.proc.sleep(secs(12)).await;
        assert!(c.qdel(id).await, "qdel of a running job");
    });

    let states = audit_at(&mut cluster, 600);
    let stats = cluster.run();
    let states = states.lock().clone();
    assert_clean(&cluster, &stats, &states, 6);
    assert_eq!(*granted.lock(), Some(2));
    assert_eq!(state_of(&states, &dyn_user), JobState::Complete);
    assert_eq!(state_of(&states, &overrun), JobState::TimedOut);
    assert_eq!(state_of(&states, &doomed), JobState::Cancelled);
    for f in &fillers {
        assert_eq!(state_of(&states, f), JobState::Complete);
    }
}

#[test]
fn node_losses_requeue_then_cancel_keep_the_delta_exact() {
    let horizon = SimTime::ZERO + secs(400);
    let config = ClusterConfig::fast(82)
        .with_split(3, 1)
        .with_monitor(MonitorConfig::default(), horizon)
        .with_sched(incremental());
    let mut cluster = Cluster::build(config);
    let net = cluster.net.clone();

    let unlucky = cluster.qsub(full_node("unlucky", 200).walltime(secs(400)));
    let bystander = cluster.qsub(full_node("bystander", 30));
    let late = cluster.qsub_after(secs(120), full_node("late", 20));

    // Take down whichever node `unlucky` runs on, twice: the first loss
    // requeues it, the second cancels it.
    let slot = unlucky.clone();
    cluster.client_after("chaos", secs(10), move |c| async move {
        let id = slot.lock().expect("submitted");
        for _ in 0..2 {
            let s = c.wait_for_state(id, JobState::Running, secs(1)).await;
            assert_eq!(s.state, JobState::Running, "{s:?}");
            net.set_host_down(s.compute_hosts[0], true);
            c.proc.sleep(secs(30)).await;
        }
    });

    let states = audit_at(&mut cluster, 390);
    let stats = cluster.run();
    let states = states.lock().clone();
    assert_clean(&cluster, &stats, &states, 3);
    assert_eq!(state_of(&states, &unlucky), JobState::Cancelled);
    assert_eq!(state_of(&states, &bystander), JobState::Complete);
    assert_eq!(state_of(&states, &late), JobState::Complete);
}
