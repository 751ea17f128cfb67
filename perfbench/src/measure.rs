//! One repetition of a workload: generate, build, enqueue, run to
//! quiescence, then check the outputs and reduce them to the metrics
//! the report prints.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use darms_rms::JobState;
use darms_sim::{exact_quantile, MetricsRegistry, SimStats};

use crate::hostspeed;
use crate::rig::{LayerClock, Rig};
use crate::workload::{self, Outputs, Workload};

/// Simulated behaviour of one run, identical for every run of a seed.
#[derive(Clone, Debug, Default)]
pub struct SimOutcome {
    /// Engine statistics (deterministic fields only are compared).
    pub stats: SimStats,
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs that ended `TimedOut`/`Cancelled` or were not terminal.
    pub failed_jobs: u64,
    /// Arrival-to-start latency of every started job (sim s).
    pub qsub_to_start_s: Vec<f64>,
    /// Call-to-return latency of every granted `AC_Get` (sim s).
    pub grant_latency_s: Vec<f64>,
    /// `AC_Get` calls the job scripts made.
    pub acget_attempts: u64,
    /// `AC_Get` calls refused.
    pub acget_refused: u64,
    /// `AC_Free` calls that succeeded.
    pub acfree_ok: u64,
    /// Kernels run.
    pub kernels: u64,
    /// Bytes written to and read from devices.
    pub offload_bytes: u64,
    /// Readbacks equal to the host-computed sum.
    pub readbacks_ok: u64,
    /// Latest job completion (sim s).
    pub makespan_s: f64,
    /// Registry counters, by name.
    pub counters: Vec<(String, u64)>,
    /// `rms.dyn_wait` samples (sim s).
    pub rms_dyn_wait_s: Vec<f64>,
    /// `sched.queue_depth` samples.
    pub sched_queue_depth: Vec<f64>,
    /// `sched.iteration_cost` samples (sim s).
    pub sched_iteration_cost_s: Vec<f64>,
    /// `sched.dyn_wait` samples (sim s).
    pub sched_dyn_wait_s: Vec<f64>,
    /// Time-weighted mean of `rms.acc_pool_util` over the run.
    pub acc_pool_util: Option<f64>,
    /// Digest of the deterministic engine statistics and the sorted
    /// final job table.
    pub table_digest: u64,
    /// `table_digest` extended with every registry counter.
    pub digest: u64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

impl SimOutcome {
    /// A registry counter, 0 when it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }
}

/// One repetition: its simulated outcome and what it cost the host.
pub struct Rep {
    /// What the simulation did.
    pub sim: SimOutcome,
    /// Host seconds generating the workload, per set-up.
    pub gen_s: Vec<f64>,
    /// Host seconds wiring the cluster, per set-up.
    pub build_s: Vec<f64>,
    /// Host seconds from the start of generation to the last enqueue,
    /// per set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds in the event loop.
    pub loop_s: f64,
    /// Host-speed probe time around this repetition (mean of one probe
    /// before set-up and one after the run).
    pub probe_s: f64,
}

impl Rep {
    /// `host_s` scaled by this repetition's host speed to seconds on
    /// the reference host.
    pub fn normalised(&self, host_s: f64) -> f64 {
        host_s / self.probe_s * hostspeed::REFERENCE_S
    }
}

/// Run one period of `workload` at its benchmark size (or the
/// self-test size with `small`), untraced through `Cluster::build`, or
/// traced into `clock`. The cluster is set up `setups` times and only
/// the last set-up runs: set-up takes milliseconds, so its median needs
/// more samples than the run does.
pub fn run_once(
    workload: Workload,
    small: bool,
    seed: u64,
    setups: usize,
    clock: Option<Arc<LayerClock>>,
) -> Rep {
    let shape = workload.shape(small);
    let probe_before = hostspeed::probe_s();
    let (mut gen_s, mut build_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..setups.max(1) {
        drop(built.take());
        // darms-lint: allow(nondet, reason = "benchmark wall-clock measurement; never reaches the simulation")
        let t0 = Instant::now();
        let plan = workload::generate(workload, &shape, seed);
        gen_s.push(t0.elapsed().as_secs_f64());
        // darms-lint: allow(nondet, reason = "benchmark wall-clock measurement; never reaches the simulation")
        let t1 = Instant::now();
        let config = workload::cluster_config(&shape, seed);
        let mut rig = match &clock {
            Some(clock) => Rig::traced(config, clock.clone()),
            None => Rig::untraced(config),
        };
        build_s.push(t1.elapsed().as_secs_f64());
        let arrivals: Vec<(String, f64)> =
            plan.iter().map(|j| (j.name.clone(), j.arrival.as_secs_f64())).collect();
        let out = workload::enqueue(&mut rig, plan);
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((rig, out, arrivals));
    }
    let (mut rig, out, arrivals) = built.expect("at least one set-up");
    let (stats, loop_s) = rig.run();
    let metrics = rig.metrics.clone();
    drop(rig);
    let outputs = std::mem::take(&mut *out.lock());
    let sim = summarise(stats, &arrivals, outputs, &metrics);
    let probe_s = (probe_before + hostspeed::probe_s()) / 2.0;
    Rep { sim, gen_s, build_s, setup_s, loop_s, probe_s }
}

/// Check the run's outputs and reduce them to metrics.
fn summarise(
    stats: SimStats,
    arrivals: &[(String, f64)],
    out: Outputs,
    metrics: &MetricsRegistry,
) -> SimOutcome {
    let mut failures = Vec::new();
    if stats.hit_event_cap || stats.hit_horizon {
        failures.push(format!(
            "run stopped early (event cap: {}, horizon: {})",
            stats.hit_event_cap, stats.hit_horizon
        ));
    }
    if stats.process_panics > 0 {
        failures.push(format!("{} process panics", stats.process_panics));
    }
    let jobs = arrivals.len() as u64;
    let mut table = out.final_table.unwrap_or_default();
    table.sort_by_key(|s| s.id);
    if table.len() as u64 != jobs || table.iter().any(|s| !s.state.is_terminal()) {
        failures.push(format!("{} of {jobs} jobs terminal at quiescence", table.len()));
    }
    let failed_jobs = jobs
        - table.iter().filter(|s| s.state == JobState::Complete).count().min(jobs as usize) as u64;
    if out.readbacks_bad > 0 {
        failures.push(format!("{} readbacks differ from the host sum", out.readbacks_bad));
    }
    if out.call_errors > 0 {
        failures.push(format!(
            "{} failed DAC calls, first: {}",
            out.call_errors,
            out.first_error.unwrap_or_default()
        ));
    }
    let (granted, rejected) =
        (metrics.counter("dac.acget_granted"), metrics.counter("dac.acget_rejected"));
    if out.acget_attempts != granted + rejected {
        failures.push(format!(
            "{} AC_Get attempts but dac.acget_granted + dac.acget_rejected = {}",
            out.acget_attempts,
            granted + rejected
        ));
    }

    let arrival_of: std::collections::BTreeMap<&str, f64> =
        arrivals.iter().map(|(n, a)| (n.as_str(), *a)).collect();
    let qsub_to_start_s: Vec<f64> = table
        .iter()
        .filter_map(|s| Some(s.started?.as_secs_f64() - arrival_of.get(s.name.as_str())?))
        .collect();
    let makespan_s =
        table.iter().filter_map(|s| s.completed).map(|t| t.as_secs_f64()).fold(0.0, f64::max);

    let counters: Vec<(String, u64)> =
        metrics.names().0.into_iter().map(|n| (n.clone(), metrics.counter(&n))).collect();
    let acc_pool_util = metrics.twg_mean("rms.acc_pool_util", stats.end_time);

    let mut text = String::new();
    write_stats(&mut text, &stats);
    for s in &table {
        let opt = |t: Option<darms_sim::SimTime>| t.map_or(-1, |t| t.as_nanos() as i128);
        let _ = write!(
            text,
            "|{} {} {} {:?} {} {} {}",
            s.id.0,
            s.name,
            s.owner,
            s.state,
            s.submitted.as_nanos(),
            opt(s.started),
            opt(s.completed)
        );
        for h in &s.compute_hosts {
            let _ = write!(text, " c{}", h.index());
        }
        for (i, accs) in s.static_accs.iter().enumerate() {
            for h in accs {
                let _ = write!(text, " s{i}:{}", h.index());
            }
        }
        for d in &s.dyn_sets {
            let _ = write!(text, " d{}:{}", d.client_id.0, d.accs.len());
        }
    }
    let table_digest = fnv1a(text.as_bytes());
    for (name, v) in &counters {
        let _ = write!(text, "|{name}={v}");
    }
    let digest = fnv1a(text.as_bytes());

    SimOutcome {
        stats,
        jobs,
        failed_jobs,
        qsub_to_start_s,
        grant_latency_s: out.grant_latency_s,
        acget_attempts: out.acget_attempts,
        acget_refused: out.acget_refused,
        acfree_ok: out.acfree_ok,
        kernels: out.kernels,
        offload_bytes: out.offload_bytes,
        readbacks_ok: out.readbacks_ok,
        makespan_s,
        counters,
        rms_dyn_wait_s: metrics.histogram_samples("rms.dyn_wait"),
        sched_queue_depth: metrics.histogram_samples("sched.queue_depth"),
        sched_iteration_cost_s: metrics.histogram_samples("sched.iteration_cost"),
        sched_dyn_wait_s: metrics.histogram_samples("sched.dyn_wait"),
        acc_pool_util,
        table_digest,
        digest,
        failures,
    }
}

/// The deterministic fields of the engine statistics, in a fixed order.
fn write_stats(text: &mut String, s: &SimStats) {
    let _ = write!(
        text,
        "{} {} {} {} {} {} {} {} {} {}",
        s.events,
        s.end_time.as_nanos(),
        s.processes_spawned,
        s.processes_finished,
        s.hit_event_cap,
        s.hit_horizon,
        s.process_panics,
        s.peak_queue_depth,
        s.queue_depth_sum,
        s.context_switches
    );
}

/// 64-bit FNV-1a: a digest that is the same on every platform and
/// toolchain, unlike the standard library's hashers.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    exact_quantile(&sorted, q)
}

/// Median of unsorted samples (mean of the middle two for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload's correctness checks pass at the self-test size,
    /// the outputs they check are non-trivial, and a second run of the
    /// seed reproduces the digest.
    fn small_run_is_clean(workload: Workload) -> SimOutcome {
        let a = run_once(workload, true, 3, 1, None).sim;
        assert!(a.failures.is_empty(), "{}: {:?}", workload.name(), a.failures);
        assert_eq!(a.failed_jobs, 0);
        assert!(a.acget_attempts > 0, "dynamic path exercised");
        assert_eq!(a.qsub_to_start_s.len() as u64, a.jobs);
        let b = run_once(workload, true, 3, 1, None).sim;
        assert_eq!(a.digest, b.digest, "same seed, same digest");
        let c = run_once(workload, true, 4, 1, None).sim;
        assert_ne!(a.digest, c.digest, "the seed changes the inputs");
        a
    }

    #[test]
    fn dc_deep_small_is_clean() {
        small_run_is_clean(Workload::DcDeep);
    }

    #[test]
    fn dc_wide_small_is_clean() {
        small_run_is_clean(Workload::DcWide);
    }

    #[test]
    fn dyn_offload_small_is_clean() {
        let o = small_run_is_clean(Workload::DynOffload);
        assert!(o.readbacks_ok > 0 && o.kernels == o.readbacks_ok);
    }

    #[test]
    fn traced_wiring_reproduces_cluster_build() {
        for w in Workload::ALL {
            let plain = run_once(w, true, 5, 1, None).sim;
            let clock = Arc::new(LayerClock::default());
            let traced = run_once(w, true, 5, 1, Some(clock.clone())).sim;
            assert_eq!(plain.stats, traced.stats, "{}", w.name());
            assert_eq!(plain.digest, traced.digest, "{}", w.name());
            assert!(clock.calls(crate::rig::Layer::Server) > 0);
        }
    }

    #[test]
    fn a_wrong_readback_fails_the_run() {
        let metrics = MetricsRegistry::new();
        let out = Outputs { readbacks_bad: 1, ..Outputs::default() };
        let s = summarise(SimStats::default(), &[], out, &metrics);
        assert!(s.failures.iter().any(|f| f.contains("readbacks")), "{:?}", s.failures);
    }

    #[test]
    fn an_unaccounted_ac_get_fails_the_run() {
        let metrics = MetricsRegistry::new();
        let out = Outputs { acget_attempts: 1, ..Outputs::default() };
        let s = summarise(SimStats::default(), &[], out, &metrics);
        assert!(s.failures.iter().any(|f| f.contains("AC_Get")), "{:?}", s.failures);
    }

    #[test]
    fn a_missing_job_table_fails_the_run() {
        let metrics = MetricsRegistry::new();
        let arrivals = [("j".to_string(), 0.0)];
        let s = summarise(SimStats::default(), &arrivals, Outputs::default(), &metrics);
        assert!(s.failures.iter().any(|f| f.contains("terminal")), "{:?}", s.failures);
        assert_eq!(s.failed_jobs, 1);
    }

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.99), Some(99.0));
    }
}
