//! A job's last `AC_Free` can be overtaken by the job's own exit. The
//! server answers `AC_Free` before the mother superior reports the
//! DISJOIN done (§III-D), so a job that frees and exits at once ends
//! first: its exit clears the job's dynamic sets and pending frees and
//! releases every node it held. The mom's late `FreeDone` then matches
//! nothing and is dropped as a duplicate, so `rms.disjoin` does not
//! count that release. The accelerator must still come back: the job is
//! `Complete`, nothing leaks, and the next job gets the device.

use std::sync::Arc;

use darms::prelude::*;
use darms_dac::DacRuntime;
use darms_experiments::invariants;
use darms_sched::SchedConfig;
use parking_lot::Mutex;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// A job that takes one accelerator, frees it, waits `linger` seconds
/// and exits. Records whether its `AC_Get` was granted.
fn get_free_exit(
    dac: &DacRuntime,
    name: &str,
    linger: u64,
    granted: Arc<Mutex<Vec<bool>>>,
) -> JobSpec {
    let dac = dac.clone();
    JobSpec::synthetic(name, secs(1)).walltime(secs(60)).script(script(move |jc| {
        let dac = dac.clone();
        let granted = granted.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
            let got = ses.ac_get(1).await;
            granted.lock().push(got.is_ok());
            if let Ok(set) = got {
                ses.ac_free(&set).await.expect("the set is the job's own");
            }
            if linger > 0 {
                jc.proc.sleep(secs(linger)).await;
            }
            ses.finalize();
        }
    }))
}

/// Run `jobs` (name, submit time, linger) on one compute node and one
/// accelerator. Returns the final `qstat`, the grant outcomes, the
/// `rms.disjoin` count and the cluster.
fn run(jobs: &[(&str, u64, u64)]) -> (Vec<JobStatus>, Vec<bool>, u64, Cluster) {
    let config =
        ClusterConfig::fast(17).with_split(1, 1).with_sched(SchedConfig::instant()).with_trace();
    let mut cluster = Cluster::build(config);
    let dac = cluster.dac.clone();
    let granted = Arc::new(Mutex::new(Vec::new()));
    for &(name, at, linger) in jobs {
        cluster.qsub_after(secs(at), get_free_exit(&dac, name, linger, granted.clone()));
    }
    let states = Arc::new(Mutex::new(Vec::new()));
    let out = states.clone();
    cluster.client_after("audit", secs(300), move |c| async move {
        *out.lock() = c.qstat().await;
    });
    let stats = cluster.run();
    let mut violations = invariants::check_engine(&stats);
    violations.extend(invariants::check_no_leaks(&cluster.node_db.lock()));
    assert!(violations.is_empty(), "invariant violations: {violations:#?}");
    let states = states.lock().clone();
    let granted = granted.lock().clone();
    let disjoin = cluster.metrics.counter("rms.disjoin");
    (states, granted, disjoin, cluster)
}

#[test]
fn free_then_immediate_exit_returns_the_accelerator() {
    let (states, granted, disjoin, cluster) = run(&[("quick", 0, 0), ("next", 30, 0)]);
    assert_eq!(states.len(), 2, "qstat lists both jobs: {states:?}");
    for s in &states {
        assert_eq!(s.state, JobState::Complete, "{s:?}");
        assert!(s.dyn_sets.is_empty(), "a finished job holds no dynamic sets: {s:?}");
    }
    assert_eq!(granted, vec![true, true], "the second job gets the freed device");
    assert_eq!(cluster.node_db.lock().free_accelerators().len(), 1, "the accelerator is free");
    // Both releases were overtaken by their job's exit: the counter
    // counts completed DISJOINs, not `AC_Free` calls.
    assert_eq!(disjoin, 0);
}

#[test]
fn free_with_time_to_finish_counts_the_disjoin() {
    let (states, granted, disjoin, cluster) = run(&[("patient", 0, 5)]);
    assert_eq!(states[0].state, JobState::Complete, "{states:?}");
    assert_eq!(granted, vec![true]);
    assert_eq!(cluster.node_db.lock().free_accelerators().len(), 1);
    assert_eq!(disjoin, 1, "a DISJOIN that finishes before the exit is counted");
}
