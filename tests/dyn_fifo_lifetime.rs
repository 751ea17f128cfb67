//! A dynamic request lives no longer than the job that issued it. A job
//! killed at its walltime while its `AC_Get` waits in the server's serial
//! dynamic FIFO (Fig. 9) must stay `TimedOut`: its queued request dies
//! with it instead of being served later and reviving the job.

use std::sync::Arc;

use darms::prelude::*;
use darms_dac::DacRuntime;
use darms_sched::SchedConfig;
use parking_lot::Mutex;

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// A job that takes one accelerator `after` its start, keeps it for
/// `hold`, then releases it. Records whether its request was granted.
/// Its walltime covers a long wait in the dynamic FIFO.
fn acc_user(
    dac: &DacRuntime,
    name: &str,
    after: u64,
    hold: u64,
    granted: Arc<Mutex<Vec<(String, bool)>>>,
) -> JobSpec {
    let dac = dac.clone();
    let tag = name.to_string();
    JobSpec::synthetic(name, secs(after + hold)).walltime(secs(300)).script(script(move |jc| {
        let dac = dac.clone();
        let granted = granted.clone();
        let tag = tag.clone();
        async move {
            let (mut ses, _) = AcSession::init(&jc, &dac, None).await;
            jc.proc.sleep(secs(after)).await;
            let got = ses.ac_get(1).await;
            granted.lock().push((tag, got.is_ok()));
            if let Ok(set) = got {
                jc.proc.sleep(secs(hold)).await;
                ses.ac_free(&set).await.unwrap();
            }
            ses.finalize();
        }
    }))
}

#[test]
fn job_timed_out_behind_dyn_fifo_stays_timed_out() {
    let mut sched = SchedConfig::instant();
    sched.dyn_queue_wait = Some(secs(200));
    sched.dyn_retry = SimDuration::from_millis(200);
    let mut cluster = Cluster::build(ClusterConfig::fast(90).with_split(3, 1).with_sched(sched));
    let dac = cluster.dac.clone();
    let granted = Arc::new(Mutex::new(Vec::new()));

    // The holder takes the only accelerator for 60 s. The waiter asks at
    // t≈2 s, so its request is the active one; the victim asks at t≈3 s
    // and queues behind it, then overruns its 10 s walltime.
    let holder = cluster.qsub(acc_user(&dac, "holder", 0, 60, granted.clone()));
    let waiter = cluster.qsub(acc_user(&dac, "waiter", 2, 1, granted.clone()));
    let victim = cluster.qsub(acc_user(&dac, "victim", 3, 1, granted.clone()).walltime(secs(10)));

    // Well past every hold and the victim's whole queue-wait limit.
    let states = Arc::new(Mutex::new(Vec::new()));
    let out = states.clone();
    cluster.client_after("qstat", secs(600), move |c| async move {
        *out.lock() = c.qstat().await;
    });
    let stats = cluster.run();
    assert_eq!(stats.process_panics, 0);

    let states = states.lock().clone();
    let state_of = |slot: &Arc<Mutex<Option<JobId>>>| {
        let id = slot.lock().expect("submitted");
        states.iter().find(|s| s.id == id).expect("listed by qstat").clone()
    };
    let v = state_of(&victim);
    assert_eq!(v.state, JobState::TimedOut, "victim revived: {v:?}");
    assert!(v.dyn_sets.is_empty(), "a dead job holds no dynamic sets: {v:?}");
    assert_eq!(state_of(&holder).state, JobState::Complete);
    assert_eq!(state_of(&waiter).state, JobState::Complete);
    let granted = granted.lock().clone();
    assert!(granted.contains(&("waiter".to_string(), true)), "waiter served: {granted:?}");
    assert!(granted.contains(&("victim".to_string(), false)), "victim rejected: {granted:?}");
}
