//! The benchmark's three workloads: seeded generators, the job scripts
//! they submit, and the outputs those scripts record.
//!
//! The front door is an open loop in simulated time: each job is
//! submitted at its generated arrival instant, whatever the backlog.
//! Inside a job, `AC_Get` rounds are a closed loop: each round waits for
//! the previous one to return.

use std::sync::Arc;

use darms::prelude::*;
use darms_sim::SimTime;
use darms_workload::Dist;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::rig::{Layer, Probe, Rig};

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 1,000 hosts, a diurnal front door near the deepest queue that
    /// still quiesces: per-job work in the server and scheduler shows.
    DcDeep,
    /// 10,000 hosts, the same kind of front door at a lighter rate:
    /// per-host work shows, per-job work does not.
    DcWide,
    /// The paper's testbed scale under dynamic-request contention: the
    /// serial dynamic FIFO, DYNJOIN/DISJOIN, MPI spawn/merge/shrink and
    /// real device bytes.
    DynOffload,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::DcDeep, Workload::DcWide, Workload::DynOffload];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DcDeep => "dc_deep",
            Workload::DcWide => "dc_wide",
            Workload::DynOffload => "dyn_offload",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The size the benchmark runs; `small` is the self-test size.
    pub fn shape(self, small: bool) -> Shape {
        let (compute, accs, jobs, periods) = match (self, small) {
            (Workload::DcDeep, false) => (750, 250, 3000, 9),
            (Workload::DcWide, false) => (7500, 2500, 2000, 9),
            // The p99 of AC_Get under contention needs more hours than
            // the datacenter tails need days to repeat across seeds.
            (Workload::DynOffload, false) => (16, 16, 2000, 17),
            (Workload::DcDeep, true) => (30, 10, 60, 1),
            (Workload::DcWide, true) => (300, 100, 40, 1),
            (Workload::DynOffload, true) => (4, 4, 30, 1),
        };
        Shape { compute, accs, jobs, period: SimDuration::from_secs(3600), periods }
    }
}

/// Cluster and front-door size of one simulated period, and how many
/// periods a run simulates.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Compute nodes (8 cores each).
    pub compute: usize,
    /// Network-attached accelerators.
    pub accs: usize,
    /// Jobs the front door submits over the period.
    pub jobs: usize,
    /// How long the front door stays open: one compressed day for the
    /// datacenter workloads, one hour for `dyn_offload`.
    pub period: SimDuration,
    /// Independent periods a run simulates, each from its own seed.
    /// Odd, so a median over periods is an observed value.
    pub periods: usize,
}

/// Users the front door submits for, round robin (fairshare input).
const OWNERS: [&str; 4] = ["ops", "sim", "ml", "cfd"];

/// Cores per compute node on every workload.
const CORES_PER_NODE: u32 = 8;

/// What a job does once it runs.
#[derive(Clone, Debug)]
pub enum Body {
    /// Datacenter job: run for `runtime`; with `dyn_get`, `AC_Get` that
    /// many accelerators a quarter of the way in and hold them for half
    /// the runtime.
    Batch {
        /// Simulated runtime.
        runtime: SimDuration,
        /// Accelerators requested mid-run, if any.
        dyn_get: Option<u32>,
    },
    /// Offload job: a closed loop of `AC_Get` rounds.
    Offload {
        /// The rounds, in order.
        rounds: Vec<Round>,
    },
}

/// One `AC_Get` → compute → `AC_Free` round of an offload job.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Accelerators requested.
    pub count: u32,
    /// f64 elements per vector.
    pub elems: usize,
    /// How long the job holds the set after its readbacks.
    pub hold: SimDuration,
    /// Seed of the vector contents.
    pub salt: u64,
}

/// One generated submission.
#[derive(Clone, Debug)]
pub struct JobPlan {
    /// Unique job name.
    pub name: String,
    /// Submitting user.
    pub owner: &'static str,
    /// Simulated instant the front door submits the job.
    pub arrival: SimDuration,
    /// Compute nodes.
    pub nodes: usize,
    /// Cores per node.
    pub ppn: u32,
    /// Static accelerators per node.
    pub acpn: u32,
    /// Walltime limit.
    pub walltime: SimDuration,
    /// What the job does.
    pub body: Body,
}

/// Generate a workload's submissions from `seed`: the same seed gives
/// the same plan.
pub fn generate(workload: Workload, shape: &Shape, seed: u64) -> Vec<JobPlan> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7065_7266_6265_6e63);
    match workload {
        Workload::DcDeep | Workload::DcWide => datacenter_jobs(shape, &mut rng),
        Workload::DynOffload => offload_jobs(shape, &mut rng),
    }
}

/// Slices a period's arrival curve is cut into.
const SLICES: usize = 48;

/// `n` arrivals over one period following a diurnal curve: slice
/// weights `1 + 0.85·sin(2π·x − π/2)` (quiet at both ends, peak in the
/// middle), whole counts by largest remainder, uniform jitter within a
/// slice. Sorted ascending.
fn diurnal(n: usize, period: SimDuration, rng: &mut SmallRng) -> Vec<SimDuration> {
    let weights: Vec<f64> = (0..SLICES)
        .map(|s| {
            let x = (s as f64 + 0.5) / SLICES as f64;
            1.0 + 0.85 * (std::f64::consts::TAU * x - std::f64::consts::FRAC_PI_2).sin()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| n as f64 * w / total).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..SLICES).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &s in by_remainder.iter().take(short) {
        counts[s] += 1;
    }
    let slice = period.as_secs_f64() / SLICES as f64;
    let mut out = Vec::with_capacity(n);
    for (s, &c) in counts.iter().enumerate() {
        let mut at: Vec<f64> = (0..c).map(|_| (s as f64 + rng.gen::<f64>()) * slice).collect();
        at.sort_by(f64::total_cmp);
        out.extend(at.into_iter().map(SimDuration::from_secs_f64));
    }
    out
}

/// The datacenter job mix: 1/2/4 nodes, static acpn 0/1/2, lognormal
/// runtimes clamped to 45–900 s; a quarter of the jobs `AC_Get` 1–2
/// accelerators mid-run.
fn datacenter_jobs(shape: &Shape, rng: &mut SmallRng) -> Vec<JobPlan> {
    let nodes_dist = Dist::Choice(vec![(6.0, 1.0), (3.0, 2.0), (1.0, 4.0)]);
    let ppn_dist = Dist::Choice(vec![(1.0, 2.0), (1.0, 4.0), (2.0, 8.0)]);
    let acpn_dist = Dist::Choice(vec![(7.0, 0.0), (2.0, 1.0), (1.0, 2.0)]);
    let runtime_dist = Dist::LogNormal { mu: 5.0, sigma: 0.6 };
    let arrivals = diurnal(shape.jobs, shape.period, rng);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| {
            let nodes = (nodes_dist.sample_int(rng, 1) as usize).min(shape.compute);
            let ppn = (ppn_dist.sample_int(rng, 1) as u32).min(CORES_PER_NODE);
            let acpn = (acpn_dist.sample_int(rng, 0) as u32).min((shape.accs / nodes) as u32);
            let runtime_s = runtime_dist.sample(rng).clamp(45.0, 900.0);
            let dynamic = rng.gen_bool(0.25);
            let count = 1 + u32::from(rng.gen_bool(0.3));
            JobPlan {
                name: format!("dc{i:06}"),
                owner: OWNERS[i % OWNERS.len()],
                arrival,
                nodes,
                ppn,
                acpn,
                walltime: SimDuration::from_secs_f64(runtime_s * 2.0 + 120.0),
                body: Body::Batch {
                    runtime: SimDuration::from_secs_f64(runtime_s),
                    dyn_get: dynamic.then_some(count),
                },
            }
        })
        .collect()
}

/// `n` arrivals spread uniformly at random over one period. Sorted.
fn uniform(n: usize, period: SimDuration, rng: &mut SmallRng) -> Vec<SimDuration> {
    let mut at: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * period.as_secs_f64()).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(SimDuration::from_secs_f64).collect()
}

/// The offload job mix: single-node jobs, 30% holding one static
/// accelerator, each doing 2–6 rounds of `AC_Get(1–2)` → vector add
/// of 16–64 KiB per granted accelerator → hold 0.5–3 s → `AC_Free`.
fn offload_jobs(shape: &Shape, rng: &mut SmallRng) -> Vec<JobPlan> {
    let ppn_dist = Dist::Choice(vec![(2.0, 1.0), (1.0, 2.0), (1.0, 4.0)]);
    let hold_dist = Dist::Uniform { lo: 0.5, hi: 3.0 };
    let arrivals = uniform(shape.jobs, shape.period, rng);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| {
            let ppn = ppn_dist.sample_int(rng, 1) as u32;
            let acpn = u32::from(rng.gen_bool(0.3)).min(shape.accs as u32);
            let rounds = (0..rng.gen_range(2u32..=6))
                .map(|_| Round {
                    count: 1 + u32::from(rng.gen_bool(0.3)),
                    // 16–64 KiB of f64s: 2,048–8,192 elements.
                    elems: 2048 * rng.gen_range(1usize..=4),
                    hold: SimDuration::from_secs_f64(hold_dist.sample(rng)),
                    salt: rng.gen(),
                })
                .collect();
            JobPlan {
                name: format!("of{i:06}"),
                owner: OWNERS[i % OWNERS.len()],
                arrival,
                nodes: 1,
                ppn,
                acpn,
                walltime: SimDuration::from_secs(900),
                body: Body::Offload { rounds },
            }
        })
        .collect()
}

/// What the job scripts and the quiescence watcher record.
#[derive(Default)]
pub struct Outputs {
    /// Simulated latency of every granted `AC_Get`, in seconds, from
    /// the call to its return.
    pub grant_latency_s: Vec<f64>,
    /// `AC_Get` calls made.
    pub acget_attempts: u64,
    /// `AC_Get` calls refused.
    pub acget_refused: u64,
    /// `AC_Free` calls that returned `Ok`.
    pub acfree_ok: u64,
    /// `AC_Init`, `AC_Get` (other than refusals), `AC_Free` or device
    /// calls that failed.
    pub call_errors: u64,
    /// The first call error, for the report.
    pub first_error: Option<String>,
    /// Vector readbacks equal to the host-computed sum.
    pub readbacks_ok: u64,
    /// Vector readbacks that differ from it.
    pub readbacks_bad: u64,
    /// Kernels run.
    pub kernels: u64,
    /// Bytes written to and read from devices.
    pub offload_bytes: u64,
    /// The job table once every job is terminal, as the watcher's last
    /// `qstat` returned it; `None` if that never happened.
    pub final_table: Option<Vec<JobStatus>>,
}

impl Outputs {
    fn error(&mut self, e: impl std::fmt::Display) {
        self.call_errors += 1;
        if self.first_error.is_none() {
            self.first_error = Some(e.to_string());
        }
    }
}

/// Shared, lockable outputs of one run.
pub type Shared = Arc<Mutex<Outputs>>;

/// Cluster configuration every workload shares: the paper testbed's
/// costs at the workload's size, coalesced scheduler polls and
/// incremental snapshots, no fault plan, monitor or retry policy. The
/// horizon only stops a run that would never quiesce.
pub fn cluster_config(shape: &Shape, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_testbed(seed).with_split(shape.compute, shape.accs);
    cfg.cores_per_node = CORES_PER_NODE;
    cfg.sched.poll_coalesce = true;
    cfg.sched.incremental_snapshots = true;
    cfg.sim.horizon = SimTime::ZERO + shape.period * 3 + SimDuration::from_secs(6 * 3600);
    cfg
}

/// Enqueue every submission of `plan` and the quiescence watcher on
/// `rig`. Returns the outputs the run will fill.
pub fn enqueue(rig: &mut Rig, plan: Vec<JobPlan>) -> Shared {
    let out: Shared = Arc::default();
    let n_jobs = plan.len();
    for job in plan {
        let spec = job_spec(rig, &job, &out);
        let probe = rig.probe.clone();
        rig.client_after(format!("qsub:{}", job.name), job.arrival, move |c| async move {
            probe.time(Layer::Ifl, c.qsub(spec)).await;
        });
    }
    // Quiescence watcher: poll qstat until every job is terminal. The
    // poll is coarse so it adds little traffic next to the workload.
    let probe = rig.probe.clone();
    let done = out.clone();
    rig.client_after("watch".into(), SimDuration::from_secs(5), move |c| async move {
        loop {
            let table = probe.time(Layer::Ifl, c.qstat()).await;
            if table.len() == n_jobs && table.iter().all(|s| s.state.is_terminal()) {
                done.lock().final_table = Some(table);
                break;
            }
            c.proc.sleep(SimDuration::from_secs(60)).await;
        }
    });
    out
}

fn job_spec(rig: &Rig, job: &JobPlan, out: &Shared) -> JobSpec {
    let runtime = match &job.body {
        Body::Batch { runtime, .. } => *runtime,
        Body::Offload { .. } => SimDuration::ZERO,
    };
    let dac = rig.dac.clone();
    let probe = rig.probe.clone();
    let out = out.clone();
    let body = job.body.clone();
    JobSpec::synthetic(job.name.clone(), runtime)
        .owner(job.owner)
        .nodes(job.nodes)
        .ppn(job.ppn)
        .acpn(job.acpn)
        .walltime(job.walltime)
        .script(script(move |jc| {
            let (dac, probe, out, body) = (dac.clone(), probe.clone(), out.clone(), body.clone());
            async move {
                match body {
                    Body::Batch { runtime, dyn_get } => {
                        batch_job(jc, dac, probe, out, runtime, dyn_get).await
                    }
                    Body::Offload { rounds } => offload_job(jc, dac, probe, out, rounds).await,
                }
            }
        }))
}

/// Time one `AC_Get` in simulated time and record its outcome.
async fn ac_get(
    jc: &JobCtx,
    ses: &mut AcSession,
    probe: &Probe,
    out: &Shared,
    count: u32,
) -> Option<AcSet> {
    let t0 = jc.proc.now();
    let got = probe.time(Layer::Dac, ses.ac_get(count)).await;
    let waited = (jc.proc.now() - t0).as_secs_f64();
    let mut o = out.lock();
    o.acget_attempts += 1;
    match got {
        Ok(set) => {
            o.grant_latency_s.push(waited);
            Some(set)
        }
        Err(DacError::Rejected(_)) => {
            o.acget_refused += 1;
            None
        }
        Err(e) => {
            o.error(e);
            None
        }
    }
}

async fn ac_free(ses: &mut AcSession, probe: &Probe, out: &Shared, set: &AcSet) {
    match probe.time(Layer::Dac, ses.ac_free(set)).await {
        Ok(()) => out.lock().acfree_ok += 1,
        Err(e) => out.lock().error(e),
    }
}

async fn open_session(
    jc: &JobCtx,
    dac: &darms_dac::DacRuntime,
    probe: &Probe,
    out: &Shared,
) -> AcSession {
    let (ses, handles) = probe.time(Layer::Dac, AcSession::init(jc, dac, None)).await;
    if handles.len() != jc.acc_hosts.len() {
        out.lock().error(format!(
            "{}: AC_Init returned {} handles for {} static accelerators",
            jc.job,
            handles.len(),
            jc.acc_hosts.len()
        ));
    }
    ses
}

async fn batch_job(
    mut jc: JobCtx,
    dac: darms_dac::DacRuntime,
    probe: Probe,
    out: Shared,
    runtime: SimDuration,
    dyn_get: Option<u32>,
) {
    let mut ses = open_session(&jc, &dac, &probe, &out).await;
    match dyn_get {
        Some(count) => {
            let _ = jc.sleep_interruptible(runtime / 4).await;
            // A busy pool refuses (no reservations); the job carries on.
            if let Some(set) = ac_get(&jc, &mut ses, &probe, &out, count).await {
                let _ = jc.sleep_interruptible(runtime / 2).await;
                ac_free(&mut ses, &probe, &out, &set).await;
            }
            let _ = jc.sleep_interruptible(runtime / 4).await;
        }
        None => {
            let _ = jc.sleep_interruptible(runtime).await;
        }
    }
    probe.time_sync(Layer::Dac, || ses.finalize());
}

async fn offload_job(
    mut jc: JobCtx,
    dac: darms_dac::DacRuntime,
    probe: Probe,
    out: Shared,
    rounds: Vec<Round>,
) {
    let mut ses = open_session(&jc, &dac, &probe, &out).await;
    for round in rounds {
        let set = ac_get(&jc, &mut ses, &probe, &out, round.count).await;
        if let Some(set) = &set {
            for (k, &h) in set.handles.iter().enumerate() {
                let salt = round.salt.wrapping_add(k as u64);
                if let Err(e) = vector_add(&mut ses, &probe, &out, h, round.elems, salt).await {
                    out.lock().error(format!("{}: {e}", jc.job));
                }
            }
        }
        let _ = jc.sleep_interruptible(round.hold).await;
        if let Some(set) = &set {
            ac_free(&mut ses, &probe, &out, set).await;
        }
    }
    probe.time_sync(Layer::Dac, || ses.finalize());
}

/// The two input vectors of a round, from its salt.
fn vector_inputs(elems: usize, salt: u64) -> (Vec<f64>, Vec<f64>) {
    let base = (salt % 1_000_003) as f64;
    let a = (0..elems).map(|i| base + i as f64 * 0.5).collect();
    let b = (0..elems).map(|i| (salt % 977) as f64 - i as f64 * 0.25).collect();
    (a, b)
}

/// `mem_alloc` ×3 → `mem_write` ×2 → `vector_add` → `mem_read` on one
/// accelerator, checking the readback against the host-computed sum.
async fn vector_add(
    ses: &mut AcSession,
    probe: &Probe,
    out: &Shared,
    h: AcHandle,
    elems: usize,
    salt: u64,
) -> Result<(), DacError> {
    let (a, b) = vector_inputs(elems, salt);
    let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
    let bytes = (elems * 8) as u64;
    let pa = probe.time(Layer::Dac, ses.mem_alloc(h, bytes)).await?;
    let pb = probe.time(Layer::Dac, ses.mem_alloc(h, bytes)).await?;
    let pc = probe.time(Layer::Dac, ses.mem_alloc(h, bytes)).await?;
    probe.time(Layer::Dac, ses.mem_write(h, pa, f64s_to_bytes(&a))).await?;
    probe.time(Layer::Dac, ses.mem_write(h, pb, f64s_to_bytes(&b))).await?;
    let n = elems as u64;
    let args = KernelArgs::new(
        n.div_ceil(256),
        256,
        vec![Param::Ptr(pa), Param::Ptr(pb), Param::Ptr(pc), Param::U64(n)],
    );
    probe.time(Layer::Dac, ses.kernel_run(h, "vector_add", args)).await?;
    let got = probe.time(Layer::Dac, ses.mem_read(h, pc, bytes)).await?;
    let mut o = out.lock();
    o.kernels += 1;
    o.offload_bytes += 3 * bytes;
    if as_f64s(&got) == expect {
        o.readbacks_ok += 1;
    } else {
        o.readbacks_bad += 1;
    }
    Ok(())
}
