//! The `pbs_mom` actor: one per compute and accelerator host.
//!
//! The mom selected as *mother superior* (always a compute node, §III-C)
//! drives the job lifecycle: `JOIN_JOB` with the sisters, accelerator
//! daemon startup, task launch, `DYNJOIN_JOB` when the server associates
//! dynamically allocated accelerators, `DISJOIN_JOB` on release, and the
//! exit protocol.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use darms_net::{Address, HostId, Network};
use darms_sim::{Actor, Ctx, Endpoint, Envelope, Proc, ProcessId, SimDuration};

use crate::cost::RmsCostModel;
use crate::fs::{files, PseudoFs};
use crate::ifl;
use crate::job::{ClientId, DynSet, JobId, JobSpec};
use crate::proto::*;
use crate::{mom_addr, server_addr};

/// Request passed to the accelerator-daemon starter hook.
pub struct StaticDaemonRequest {
    /// The job the daemons belong to.
    pub job: JobId,
    /// Index of the compute node within the job (0 = mother superior).
    pub cn_index: usize,
    /// The compute node the daemons will serve.
    pub cn: HostId,
    /// The accelerator hosts to start daemons on.
    pub accs: Vec<HostId>,
}

/// Hook through which the mother superior starts accelerator daemons for
/// a static allocation (the DAC layer implements this; the RMS stays
/// accelerator-architecture agnostic, as the paper argues TORQUE should).
pub trait AcDaemonStarter: Send + Sync {
    /// Start one compute node's daemon set. Returns the daemon process
    /// ids so the mom can track them as job tasks.
    fn start_static(&self, ctx: &mut Ctx<'_>, req: &StaticDaemonRequest) -> Vec<ProcessId>;
}

/// Everything a per-compute-node application task can see and do. This is
/// the execution environment the job script receives (the analogue of the
/// TORQUE environment variables plus the TM/IFL interface).
pub struct JobCtx {
    /// The simulation process this task runs as.
    pub proc: Proc,
    /// The job id (`PBS_JOBID`).
    pub job: JobId,
    /// Index of this compute node within the job (0 = mother superior).
    pub node_index: usize,
    /// The host this task runs on.
    pub host: HostId,
    /// All compute hosts of the job (`PBS_NODEFILE`).
    pub compute: Vec<HostId>,
    /// This compute node's statically allocated accelerators.
    pub acc_hosts: Vec<HostId>,
    /// The submitted spec.
    pub spec: JobSpec,
    /// The cluster network.
    pub net: Network,
    /// The shared pseudo-filesystem.
    pub fs: PseudoFs,
    /// The server's address.
    pub server: Address,
    /// The mother superior mom's address.
    pub ms_mom: Address,
    /// Latched once a [`TaskKill`] has been observed.
    killed: bool,
}

impl JobCtx {
    /// `pbs_dynget`: blockingly request `count` additional accelerators.
    pub async fn dynget(&self, count: u32) -> Result<DynGrant, DynReject> {
        ifl::pbs_dynget(&self.proc, &self.net, self.host, self.server, self.job, self.host, count)
            .await
    }

    /// Request `count` additional compute nodes with `ppn` cores each for
    /// a malleable application (§V generalisation). Returns the granted
    /// hosts; spawn work there via the MPI runtime, and release with
    /// [`JobCtx::dynfree`].
    pub async fn dynget_nodes(&self, count: u32, ppn: u32) -> Result<DynGrant, DynReject> {
        ifl::pbs_dynget_nodes(
            &self.proc,
            &self.net,
            self.host,
            self.server,
            self.job,
            self.host,
            count,
            ppn,
        )
        .await
    }

    /// `pbs_dynfree`: release a dynamically allocated set.
    pub async fn dynfree(&self, client_id: ClientId) -> bool {
        ifl::pbs_dynfree(&self.proc, &self.net, self.host, self.server, self.job, client_id).await
    }

    /// `qstat` as seen from inside the job.
    pub async fn qstat(&self) -> Vec<crate::job::JobStatus> {
        ifl::qstat(&self.proc, &self.net, self.host, self.server).await
    }

    /// True once the job has been cancelled (`qdel`). Cancellation is
    /// cooperative: long-running scripts should poll this (or use
    /// [`JobCtx::sleep_interruptible`]) and wind down.
    pub fn killed(&mut self) -> bool {
        if !self.killed && self.proc.try_recv_where(|e| e.is::<TaskKill>()).is_some() {
            self.killed = true;
        }
        self.killed
    }

    /// Sleep for `d`, waking early if the job is cancelled. Returns true
    /// if the sleep was interrupted by cancellation.
    pub async fn sleep_interruptible(&mut self, d: darms_sim::SimDuration) -> bool {
        if self.killed {
            return true;
        }
        if self.proc.recv_where_timeout(|e| e.is::<TaskKill>(), d).await.is_some() {
            self.killed = true;
        }
        self.killed
    }
}

struct DynJoinState {
    token: u64,
    client_id: ClientId,
    cn: HostId,
    accs: Vec<HostId>,
    pending: BTreeSet<HostId>,
}

struct DisjoinState {
    set: DynSet,
    pending: BTreeSet<HostId>,
}

struct MomJob {
    launch: JobLaunch,
    is_ms: bool,
    /// True once `JobStarted` has been sent (duplicate `SendJob`s are
    /// answered by re-sending it).
    announced: bool,
    join_pending: BTreeSet<HostId>,
    dynjoin: Option<DynJoinState>,
    disjoin: BTreeMap<ClientId, DisjoinState>,
    /// Hosts of currently associated dynamic sets (mother superior view).
    dyn_hosts: Vec<HostId>,
    tasks_done: BTreeSet<usize>,
    task_pids: Vec<ProcessId>,
    /// Timer token of the armed walltime kill, if any.
    walltime_timer: Option<u64>,
}

enum Deferred {
    IssueJoin {
        job: JobId,
        host: HostId,
    },
    FinishJoin {
        launch: JobLaunch,
        reply: Address,
    },
    StartTasks {
        job: JobId,
    },
    IssueDynJoin {
        job: JobId,
        host: HostId,
    },
    FinishDynJoin {
        launch: JobLaunch,
        reply: Address,
    },
    FinishDisjoin {
        job: JobId,
        reply: Address,
    },
    /// Walltime enforcement: kill the job if it is still running.
    WalltimeExpired {
        job: JobId,
    },
}

/// The `pbs_mom` daemon for one host.
pub struct PbsMom {
    net: Network,
    fs: PseudoFs,
    host: HostId,
    head: HostId,
    cost: RmsCostModel,
    starter: Option<Arc<dyn AcDaemonStarter>>,
    jobs: BTreeMap<JobId, MomJob>,
    deferred: BTreeMap<u64, Deferred>,
    next_timer: u64,
    name: String,
    /// Highest incarnation per job this mom has finished (or cleaned up);
    /// duplicate launches at or below it are ignored.
    done_jobs: BTreeMap<JobId, u32>,
    /// `JobExit`s awaiting the server's ack, with remaining resend
    /// attempts (resent only when a retry policy arms the tick).
    exit_pending: BTreeMap<JobId, (JobExit, u32)>,
    /// Tokens of completed dynamic joins: a duplicate `DynJoinCmd` is
    /// answered by re-sending `DynReady`.
    completed_dynjoins: BTreeSet<u64>,
    /// Completed releases: a duplicate `DisjoinCmd` is answered by
    /// re-sending `FreeDone`. A job's entries are dropped when the server
    /// acknowledges its exit or cleans it up, after which it resends no
    /// `DisjoinCmd`.
    completed_frees: BTreeMap<ClientId, (JobId, DynSet)>,
}

/// Reserved timer token for the mom's retransmit tick.
const TOKEN_RETRY: u64 = 0;

/// Resend budget for an unacknowledged `JobExit`.
const EXIT_ATTEMPTS: u32 = 20;

impl PbsMom {
    /// Create the mom for `host`; `head` locates the server.
    pub fn new(
        net: Network,
        fs: PseudoFs,
        host: HostId,
        head: HostId,
        cost: RmsCostModel,
        starter: Option<Arc<dyn AcDaemonStarter>>,
    ) -> Self {
        PbsMom {
            net,
            fs,
            host,
            head,
            cost,
            starter,
            jobs: BTreeMap::new(),
            deferred: BTreeMap::new(),
            next_timer: 1,
            name: format!("pbs_mom@host{}", host.index()),
            done_jobs: BTreeMap::new(),
            exit_pending: BTreeMap::new(),
            completed_dynjoins: BTreeSet::new(),
            completed_frees: BTreeMap::new(),
        }
    }

    fn defer(&mut self, ctx: &mut Ctx<'_>, after: SimDuration, d: Deferred) -> u64 {
        let token = self.next_timer;
        self.next_timer += 1;
        self.deferred.insert(token, d);
        ctx.set_timer(after, token);
        token
    }

    fn send_to<T: std::any::Any + Send + Clone>(&mut self, ctx: &mut Ctx<'_>, to: Address, msg: T) {
        let bytes = self.cost.ctl_bytes;
        self.net.send_from_ctx(ctx, self.host, to, msg, bytes);
    }

    fn my_addr(&self) -> Address {
        mom_addr(self.host)
    }

    /// Hosts involved in a job besides the mother superior.
    fn sisters(launch: &JobLaunch) -> Vec<HostId> {
        let mut v: Vec<HostId> = Vec::new();
        for h in launch.compute.iter().skip(1) {
            v.push(*h);
        }
        for h in launch.accs.iter().flatten() {
            if !v.contains(h) {
                v.push(*h);
            }
        }
        v
    }

    // -- mother superior: job start --------------------------------------

    fn handle_send_job(&mut self, ctx: &mut Ctx<'_>, msg: SendJob) {
        let launch = msg.launch;
        let job = launch.job;
        if self.done_jobs.get(&job).is_some_and(|done| launch.incarnation <= *done) {
            // Stale duplicate of an incarnation this mom already finished
            // (or was told to clean up); the exit-retry path informs the
            // server, nothing to restart here.
            return;
        }
        if let Some(rec) = self.jobs.get(&job) {
            if launch.incarnation < rec.launch.incarnation {
                return;
            }
            if launch.incarnation == rec.launch.incarnation {
                if rec.is_ms && rec.announced {
                    // The server missed our JobStarted: repeat it.
                    let m = JobStarted { job, from: self.host, incarnation: launch.incarnation };
                    self.send_to(ctx, server_addr(self.head), m);
                }
                return; // launch already in progress
            }
            // A newer incarnation (the job was reclaimed and rescheduled
            // here): kill the lingering old one before starting fresh.
            let old = rec.launch.incarnation;
            self.handle_cleanup(ctx, CleanupJob { job, incarnation: old });
        }
        let sisters = Self::sisters(&launch);
        ctx.trace(format!("{job}: mother superior, {} sister(s)", sisters.len()));
        self.jobs.insert(
            job,
            MomJob {
                launch: launch.clone(),
                is_ms: true,
                announced: false,
                join_pending: sisters.iter().copied().collect(),
                dynjoin: None,
                disjoin: BTreeMap::new(),
                dyn_hosts: Vec::new(),
                tasks_done: BTreeSet::new(),
                task_pids: Vec::new(),
                walltime_timer: None,
            },
        );
        if sisters.is_empty() {
            self.prologue(ctx, job);
        } else {
            // TORQUE issues JOIN_JOBs sequentially; the stagger drives the
            // per-accelerator growth visible in the paper's measurements.
            for (i, h) in sisters.into_iter().enumerate() {
                let delay = self.cost.join_issue_stagger * i as u64;
                self.defer(ctx, delay, Deferred::IssueJoin { job, host: h });
            }
        }
    }

    fn issue_join(&mut self, ctx: &mut Ctx<'_>, job: JobId, host: HostId) {
        let Some(rec) = self.jobs.get(&job) else { return };
        let msg = JoinJob { launch: rec.launch.clone(), reply: self.my_addr() };
        self.send_to(ctx, mom_addr(host), msg);
    }

    fn handle_join_job(&mut self, ctx: &mut Ctx<'_>, msg: JoinJob) {
        self.defer(
            ctx,
            self.cost.join_handling,
            Deferred::FinishJoin { launch: msg.launch, reply: msg.reply },
        );
    }

    fn finish_join(&mut self, ctx: &mut Ctx<'_>, launch: JobLaunch, reply: Address) {
        let job = launch.job;
        self.jobs.entry(job).or_insert(MomJob {
            launch,
            is_ms: false,
            announced: false,
            join_pending: BTreeSet::new(),
            dynjoin: None,
            disjoin: BTreeMap::new(),
            dyn_hosts: Vec::new(),
            tasks_done: BTreeSet::new(),
            task_pids: Vec::new(),
            walltime_timer: None,
        });
        let ack = JoinAck { job, host: self.host };
        self.send_to(ctx, reply, ack);
    }

    fn handle_join_ack(&mut self, ctx: &mut Ctx<'_>, msg: JoinAck) {
        let Some(rec) = self.jobs.get_mut(&msg.job) else { return };
        rec.join_pending.remove(&msg.host);
        if rec.join_pending.is_empty() {
            self.prologue(ctx, msg.job);
        }
    }

    /// All moms joined: write the nodefile, start accelerator daemons,
    /// then the application tasks.
    fn prologue(&mut self, ctx: &mut Ctx<'_>, job: JobId) {
        let Some(rec) = self.jobs.get(&job) else { return };
        let launch = rec.launch.clone();
        let nodefile = launch
            .compute
            .iter()
            .map(|h| format!("host{}", h.index()))
            .collect::<Vec<_>>()
            .join("\n");
        self.fs.write(job, files::NODEFILE, nodefile);
        if let Some(starter) = self.starter.clone() {
            for (i, accs) in launch.accs.iter().enumerate() {
                if accs.is_empty() {
                    continue;
                }
                let req = StaticDaemonRequest {
                    job,
                    cn_index: i,
                    cn: launch.compute[i],
                    accs: accs.clone(),
                };
                let pids = starter.start_static(ctx, &req);
                if let Some(rec) = self.jobs.get_mut(&job) {
                    rec.task_pids.extend(pids);
                }
            }
        }
        self.defer(ctx, self.cost.task_start, Deferred::StartTasks { job });
    }

    fn start_tasks(&mut self, ctx: &mut Ctx<'_>, job: JobId) {
        let Some(rec) = self.jobs.get(&job) else { return };
        let launch = rec.launch.clone();
        let ms_mom = self.my_addr();
        let server = server_addr(self.head);
        for (i, cn) in launch.compute.iter().enumerate() {
            let compute = launch.compute.clone();
            let acc_hosts = launch.accs.get(i).cloned().unwrap_or_default();
            let spec = launch.spec.clone();
            let script = launch.spec.script.clone();
            let runtime = launch.spec.runtime;
            let net = self.net.clone();
            let fs = self.fs.clone();
            let cn_host = *cn;
            let bytes = self.cost.ctl_bytes;
            let name = format!("{job}-task{i}@host{}", cn.index());
            let pid = ctx.spawn_process(name, move |p: Proc| async move {
                let proc = p.clone();
                let mut jc = JobCtx {
                    proc: p,
                    job,
                    node_index: i,
                    host: cn_host,
                    compute,
                    acc_hosts,
                    spec,
                    net: net.clone(),
                    fs,
                    server,
                    ms_mom,
                    killed: false,
                };
                match &script {
                    Some(s) => s(jc).await,
                    None => {
                        // Synthetic jobs honour qdel: the sleep breaks
                        // early when the mom delivers a TaskKill.
                        let _ = jc.sleep_interruptible(runtime).await;
                    }
                }
                // Task epilogue: report completion to the mother
                // superior until it acknowledges the report (the ack
                // travels directly to this process, so only the report
                // direction is resent).
                let done = TaskDone { job, node_index: i };
                let _ = ifl::exchange(&proc, &net, cn_host, ms_mom, done, bytes, |e| {
                    e.peek::<TaskDoneAck>().is_some_and(|a| a.job == job && a.node_index == i)
                })
                .await;
            });
            if let Some(rec) = self.jobs.get_mut(&job) {
                rec.task_pids.push(pid);
            }
        }
        let msg = JobStarted { job, from: self.host, incarnation: launch.incarnation };
        self.send_to(ctx, server_addr(self.head), msg);
        if let Some(rec) = self.jobs.get_mut(&job) {
            rec.announced = true;
        }
        // TORQUE enforces the user's walltime estimate: arm the kill
        // timer with a small grace allowance.
        let walltime = launch.spec.walltime_estimate;
        if !walltime.is_zero() {
            let grace = SimDuration::from_secs(5).max(walltime.mul_f64(0.05));
            let token = self.defer(ctx, walltime + grace, Deferred::WalltimeExpired { job });
            if let Some(rec) = self.jobs.get_mut(&job) {
                rec.walltime_timer = Some(token);
            }
        }
    }

    /// The job overran its walltime: kill it like a qdel, reporting the
    /// timeout to the server.
    fn walltime_expired(&mut self, ctx: &mut Ctx<'_>, job: JobId) {
        let Some(rec) = self.jobs.get(&job) else { return }; // already done
        if !rec.is_ms {
            return;
        }
        ctx.trace(format!("{job}: walltime exceeded; killing"));
        let incarnation = rec.launch.incarnation;
        self.send_exit(ctx, JobExit { job, from: self.host, incarnation, timed_out: true });
        self.handle_cleanup(ctx, CleanupJob { job, incarnation });
    }

    // -- mother superior: dynamic join ------------------------------------

    fn handle_dynjoin_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: DynJoinCmd) {
        if self.completed_dynjoins.contains(&cmd.token) {
            // Duplicate of a join already finished: the server missed our
            // DynReady; repeat it.
            let ready = DynReady { job: cmd.job, token: cmd.token };
            self.send_to(ctx, server_addr(self.head), ready);
            return;
        }
        let Some(rec) = self.jobs.get_mut(&cmd.job) else { return };
        if rec.dynjoin.as_ref().is_some_and(|st| st.token == cmd.token) {
            return; // join already in progress
        }
        rec.dynjoin = Some(DynJoinState {
            token: cmd.token,
            client_id: cmd.client_id,
            cn: cmd.cn,
            accs: cmd.accs.clone(),
            pending: cmd.accs.iter().copied().collect(),
        });
        let launch = rec.launch.clone();
        let existing: Vec<HostId> = Self::sisters(&launch)
            .into_iter()
            .chain(rec.dyn_hosts.iter().copied())
            .filter(|h| !cmd.accs.contains(h))
            .collect();
        ctx.trace(format!("{}: DYNJOIN of {} host(s)", cmd.job, cmd.accs.len()));
        for (i, h) in cmd.accs.iter().enumerate() {
            let delay = self.cost.join_issue_stagger * i as u64;
            self.defer(ctx, delay, Deferred::IssueDynJoin { job: cmd.job, host: *h });
        }
        // Update the existing moms' databases (§III-D).
        for h in existing {
            let upd = UpdateJobRes { job: cmd.job, added: cmd.accs.clone(), removed: vec![] };
            self.send_to(ctx, mom_addr(h), upd);
        }
    }

    fn issue_dynjoin(&mut self, ctx: &mut Ctx<'_>, job: JobId, host: HostId) {
        let Some(rec) = self.jobs.get(&job) else { return };
        let msg = DynJoinJob { job, launch: rec.launch.clone(), reply: self.my_addr() };
        self.send_to(ctx, mom_addr(host), msg);
    }

    fn handle_dynjoin_job(&mut self, ctx: &mut Ctx<'_>, msg: DynJoinJob) {
        self.defer(
            ctx,
            self.cost.join_handling,
            Deferred::FinishDynJoin { launch: msg.launch, reply: msg.reply },
        );
    }

    fn finish_dynjoin(&mut self, ctx: &mut Ctx<'_>, launch: JobLaunch, reply: Address) {
        let job = launch.job;
        self.jobs.entry(job).or_insert(MomJob {
            launch,
            is_ms: false,
            announced: false,
            join_pending: BTreeSet::new(),
            dynjoin: None,
            disjoin: BTreeMap::new(),
            dyn_hosts: Vec::new(),
            tasks_done: BTreeSet::new(),
            task_pids: Vec::new(),
            walltime_timer: None,
        });
        let ack = DynJoinAck { job, host: self.host };
        self.send_to(ctx, reply, ack);
    }

    fn handle_dynjoin_ack(&mut self, ctx: &mut Ctx<'_>, msg: DynJoinAck) {
        let Some(rec) = self.jobs.get_mut(&msg.job) else { return };
        let Some(state) = rec.dynjoin.as_mut() else { return };
        state.pending.remove(&msg.host);
        if state.pending.is_empty() {
            let state = rec.dynjoin.take().expect("checked");
            rec.dyn_hosts.extend(state.accs.iter().copied());
            let _ = (state.client_id, state.cn);
            self.completed_dynjoins.insert(state.token);
            let ready = DynReady { job: msg.job, token: state.token };
            self.send_to(ctx, server_addr(self.head), ready);
        }
    }

    // -- mother superior: release -----------------------------------------

    fn handle_disjoin_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: DisjoinCmd) {
        if let Some((job, set)) = self.completed_frees.get(&cmd.client_id) {
            // Duplicate of a finished release: the server missed our
            // FreeDone; repeat it.
            let free_done = FreeDone { job: *job, set: set.clone() };
            self.send_to(ctx, server_addr(self.head), free_done);
            return;
        }
        ctx.trace(format!("{}: DISJOIN of {} host(s)", cmd.job, cmd.accs.len()));
        let Some(rec) = self.jobs.get_mut(&cmd.job) else { return };
        if rec.disjoin.contains_key(&cmd.client_id) {
            return; // release already in progress
        }
        let set = DynSet {
            client_id: cmd.client_id,
            cn: self.host,
            accs: cmd.accs.clone(),
            slices: cmd.slices.clone(),
            ppn: cmd.ppn,
        };
        rec.disjoin.insert(
            cmd.client_id,
            DisjoinState { set, pending: cmd.accs.iter().copied().collect() },
        );
        for h in &cmd.accs {
            let msg = DisjoinJob { job: cmd.job, reply: self.my_addr() };
            let bytes = self.cost.ctl_bytes;
            let outcome = self.net.send_from_ctx(ctx, self.host, mom_addr(*h), msg, bytes);
            if !outcome.is_sent() {
                // The host is down: its mom cannot acknowledge. Treat the
                // disassociation as complete — the health monitor marks
                // the node offline at the server.
                ctx.trace(format!("DISJOIN to dead host{} short-circuited", h.index()));
                let ack = DisjoinAck { job: cmd.job, host: *h };
                self.handle_disjoin_ack(ctx, ack);
            }
        }
    }

    fn handle_disjoin_job(&mut self, ctx: &mut Ctx<'_>, msg: DisjoinJob, src_job: JobId) {
        let _ = src_job;
        self.defer(
            ctx,
            self.cost.disjoin_handling,
            Deferred::FinishDisjoin { job: msg.job, reply: msg.reply },
        );
    }

    fn finish_disjoin(&mut self, ctx: &mut Ctx<'_>, job: JobId, reply: Address) {
        ctx.trace(format!("{job}: disjoined"));
        // Kill any remaining local tasks of this job, then detach.
        self.jobs.remove(&job);
        let ack = DisjoinAck { job, host: self.host };
        self.send_to(ctx, reply, ack);
    }

    fn handle_disjoin_ack(&mut self, ctx: &mut Ctx<'_>, msg: DisjoinAck) {
        let Some(rec) = self.jobs.get_mut(&msg.job) else { return };
        let mut done: Option<ClientId> = None;
        for (cid, st) in rec.disjoin.iter_mut() {
            if st.pending.remove(&msg.host) && st.pending.is_empty() {
                done = Some(*cid);
                break;
            }
        }
        if let Some(cid) = done {
            let st = rec.disjoin.remove(&cid).expect("found above");
            rec.dyn_hosts.retain(|h| !st.set.accs.contains(h));
            let remaining: Vec<HostId> = Self::sisters(&rec.launch)
                .into_iter()
                .chain(rec.dyn_hosts.iter().copied())
                .collect();
            let removed = st.set.accs.clone();
            self.completed_frees.insert(cid, (msg.job, st.set.clone()));
            let free_done = FreeDone { job: msg.job, set: st.set };
            self.send_to(ctx, server_addr(self.head), free_done);
            for h in remaining {
                let upd = UpdateJobRes { job: msg.job, added: vec![], removed: removed.clone() };
                self.send_to(ctx, mom_addr(h), upd);
            }
        }
    }

    // -- job completion -----------------------------------------------------

    fn handle_task_done(&mut self, ctx: &mut Ctx<'_>, msg: TaskDone, src: Option<Endpoint>) {
        if let Some(src) = src {
            // Release the task's epilogue (even for duplicates of a job
            // already finished and forgotten).
            let ack = TaskDoneAck { job: msg.job, node_index: msg.node_index };
            ctx.send(src, ack, SimDuration::from_micros(5));
        }
        let Some(rec) = self.jobs.get_mut(&msg.job) else { return };
        if !rec.is_ms {
            return;
        }
        rec.tasks_done.insert(msg.node_index);
        if rec.tasks_done.len() == rec.launch.compute.len() {
            if let Some(token) = rec.walltime_timer.take() {
                ctx.cancel_timer(token);
                self.deferred.remove(&token);
            }
            let rec = self.jobs.get_mut(&msg.job).expect("present");
            ctx.trace(format!("{}: all tasks done", msg.job));
            let sisters: Vec<HostId> = Self::sisters(&rec.launch)
                .into_iter()
                .chain(rec.dyn_hosts.iter().copied())
                .collect();
            let incarnation = rec.launch.incarnation;
            for h in sisters {
                self.send_to(ctx, mom_addr(h), CleanupJob { job: msg.job, incarnation });
            }
            let exit = JobExit { job: msg.job, from: self.host, incarnation, timed_out: false };
            self.send_exit(ctx, exit);
            self.jobs.remove(&msg.job);
        }
    }

    /// Send a `JobExit`, registering it for resend-until-ack, and remember
    /// the finished incarnation so late duplicate launches are ignored.
    fn send_exit(&mut self, ctx: &mut Ctx<'_>, exit: JobExit) {
        let done = self.done_jobs.entry(exit.job).or_insert(0);
        *done = (*done).max(exit.incarnation);
        self.exit_pending.insert(exit.job, (exit.clone(), EXIT_ATTEMPTS));
        self.send_to(ctx, server_addr(self.head), exit);
    }

    /// Periodic re-drive of every exchange still awaiting its response;
    /// armed (timer token 0) only when a retry policy is set.
    fn retransmit_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(pol) = self.net.retry_policy() else { return };
        let mut joins: Vec<(JobId, HostId)> = Vec::new();
        let mut dynjoins: Vec<(JobId, HostId)> = Vec::new();
        let mut disjoins: Vec<(JobId, HostId)> = Vec::new();
        for (job, rec) in &self.jobs {
            if !rec.is_ms {
                continue;
            }
            for h in &rec.join_pending {
                joins.push((*job, *h));
            }
            if let Some(st) = &rec.dynjoin {
                for h in &st.pending {
                    dynjoins.push((*job, *h));
                }
            }
            for st in rec.disjoin.values() {
                for h in &st.pending {
                    disjoins.push((*job, *h));
                }
            }
        }
        // The BTree containers iterate in key order, so every batch is
        // already deterministic: joins and dynjoins in (job, host) order,
        // disjoins in (job, client, host) order.
        for (job, h) in joins {
            self.issue_join(ctx, job, h);
        }
        for (job, h) in dynjoins {
            self.issue_dynjoin(ctx, job, h);
        }
        for (job, h) in disjoins {
            let msg = DisjoinJob { job, reply: self.my_addr() };
            let bytes = self.cost.ctl_bytes;
            let outcome = self.net.send_from_ctx(ctx, self.host, mom_addr(h), msg, bytes);
            if !outcome.is_sent() {
                let ack = DisjoinAck { job, host: h };
                self.handle_disjoin_ack(ctx, ack);
            }
        }
        let mut exits: Vec<JobExit> = Vec::new();
        self.exit_pending.retain(|_, (exit, attempts)| {
            if *attempts == 0 {
                return false; // give up; server-side reclamation covers it
            }
            *attempts -= 1;
            exits.push(exit.clone());
            true
        });
        for exit in exits {
            self.send_to(ctx, server_addr(self.head), exit);
        }
        ctx.set_timer(pol.retransmit, TOKEN_RETRY);
    }

    /// Drop the job's completed releases: the server has forgotten its
    /// pending frees and will not resend a `DisjoinCmd` for them.
    fn forget_frees(&mut self, job: JobId) {
        self.completed_frees.retain(|_, (j, _)| *j != job);
    }

    fn handle_cleanup(&mut self, ctx: &mut Ctx<'_>, msg: CleanupJob) {
        // Record the cleaned incarnation even with no local record: a
        // late duplicate SendJob for it must not resurrect the job.
        let done = self.done_jobs.entry(msg.job).or_insert(0);
        *done = (*done).max(msg.incarnation);
        if self.jobs.get(&msg.job).is_some_and(|r| r.launch.incarnation > msg.incarnation) {
            return; // stale cleanup for a dead predecessor incarnation
        }
        if let Some(rec) = self.jobs.remove(&msg.job) {
            let done = self.done_jobs.entry(msg.job).or_insert(0);
            *done = (*done).max(rec.launch.incarnation);
            if let Some(token) = rec.walltime_timer {
                ctx.cancel_timer(token);
                self.deferred.remove(&token);
            }
            // "Kill" local tasks: cancellation is cooperative — each task
            // process receives a TaskKill and winds down at its next
            // cancellation point.
            for pid in &rec.task_pids {
                ctx.send(
                    darms_sim::Endpoint::Process(*pid),
                    TaskKill { job: msg.job },
                    SimDuration::from_micros(5),
                );
            }
            if rec.is_ms {
                // qdel path: tell the sisters too.
                for h in Self::sisters(&rec.launch).into_iter().chain(rec.dyn_hosts) {
                    let incarnation = rec.launch.incarnation;
                    self.send_to(ctx, mom_addr(h), CleanupJob { job: msg.job, incarnation });
                }
            }
        }
    }
}

impl Actor for PbsMom {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let src = env.src;
        let env = match env.downcast::<SendJob>() {
            Ok(m) => return self.handle_send_job(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<JoinJob>() {
            Ok(m) => return self.handle_join_job(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<JoinAck>() {
            Ok(m) => return self.handle_join_ack(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DynJoinCmd>() {
            Ok(m) => return self.handle_dynjoin_cmd(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DynJoinJob>() {
            Ok(m) => return self.handle_dynjoin_job(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DynJoinAck>() {
            Ok(m) => return self.handle_dynjoin_ack(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DisjoinCmd>() {
            Ok(m) => return self.handle_disjoin_cmd(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DisjoinJob>() {
            Ok(m) => {
                let job = m.job;
                return self.handle_disjoin_job(ctx, m, job);
            }
            Err(e) => e,
        };
        let env = match env.downcast::<DisjoinAck>() {
            Ok(m) => return self.handle_disjoin_ack(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<TaskDone>() {
            Ok(m) => return self.handle_task_done(ctx, m, src),
            Err(e) => e,
        };
        let env = match env.downcast::<JobExitAck>() {
            Ok(m) => {
                self.exit_pending.remove(&m.job);
                return self.forget_frees(m.job);
            }
            Err(e) => e,
        };
        let env = match env.downcast::<UpdateJobRes>() {
            Ok(m) => {
                // Keep the sister database current.
                if let Some(rec) = self.jobs.get_mut(&m.job) {
                    for h in &m.added {
                        if !rec.dyn_hosts.contains(h) {
                            rec.dyn_hosts.push(*h);
                        }
                    }
                    rec.dyn_hosts.retain(|h| !m.removed.contains(h));
                }
                return;
            }
            Err(e) => e,
        };
        let env = match env.downcast::<CleanupJob>() {
            Ok(m) => {
                // The server sends `CleanupJob` (qdel, reclaim) only after
                // forgetting the job's pending frees, like an exit ack.
                self.forget_frees(m.job);
                return self.handle_cleanup(ctx, m);
            }
            Err(e) => e,
        };
        let env = match env.downcast::<MomPing>() {
            Ok(m) => {
                let pong = MomPong { seq: m.seq, host: self.host };
                return self.send_to(ctx, m.reply, pong);
            }
            Err(e) => e,
        };
        ctx.trace(format!("{}: unhandled message {env:?}", self.name));
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(pol) = self.net.retry_policy() {
            ctx.set_timer(pol.retransmit, TOKEN_RETRY);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_RETRY {
            return self.retransmit_tick(ctx);
        }
        match self.deferred.remove(&token) {
            Some(Deferred::IssueJoin { job, host }) => self.issue_join(ctx, job, host),
            Some(Deferred::FinishJoin { launch, reply }) => self.finish_join(ctx, launch, reply),
            Some(Deferred::StartTasks { job }) => self.start_tasks(ctx, job),
            Some(Deferred::IssueDynJoin { job, host }) => self.issue_dynjoin(ctx, job, host),
            Some(Deferred::FinishDynJoin { launch, reply }) => {
                self.finish_dynjoin(ctx, launch, reply)
            }
            Some(Deferred::FinishDisjoin { job, reply }) => self.finish_disjoin(ctx, job, reply),
            Some(Deferred::WalltimeExpired { job }) => self.walltime_expired(ctx, job),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use darms_net::{HostKind, LatencyModel};
    use darms_sim::{Engine, SimConfig};
    use parking_lot::Mutex;

    use super::*;

    /// Runs an actor inside the engine while the test keeps a handle on it.
    struct Shared<A>(Arc<Mutex<A>>);

    impl<A: Actor> Actor for Shared<A> {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
            self.0.lock().on_message(ctx, env);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.0.lock().on_timer(ctx, token);
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.0.lock().on_start(ctx);
        }
    }

    /// Stand-in server: launches one job on the mom, releases one
    /// dynamic set of it once it runs, and acknowledges its exit.
    struct Server {
        net: Network,
        head: HostId,
        mom: Arc<Mutex<PbsMom>>,
        launch: JobLaunch,
        acc: HostId,
        /// `completed_frees` entries seen when `FreeDone` arrived.
        frees_at_free_done: Option<usize>,
        exits: u32,
    }

    impl Server {
        fn send(&self, ctx: &mut Ctx<'_>, to: HostId, msg: impl std::any::Any + Send + Clone) {
            self.net.send_from_ctx(ctx, self.head, mom_addr(to), msg, 64);
        }
    }

    impl Actor for Server {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let ms = self.launch.compute[0];
            self.send(ctx, ms, SendJob { launch: self.launch.clone() });
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
            let env = match env.downcast::<JobStarted>() {
                Ok(m) => {
                    let cmd = DisjoinCmd {
                        job: m.job,
                        client_id: ClientId(1),
                        accs: vec![self.acc],
                        slices: vec![],
                        ppn: 0,
                    };
                    return self.send(ctx, m.from, cmd);
                }
                Err(e) => e,
            };
            let env = match env.downcast::<FreeDone>() {
                Ok(_) => {
                    self.frees_at_free_done = Some(self.mom.lock().completed_frees.len());
                    return;
                }
                Err(e) => e,
            };
            if let Ok(m) = env.downcast::<JobExit>() {
                self.exits += 1;
                self.send(ctx, m.from, JobExitAck { job: m.job });
            }
        }
    }

    #[test]
    fn completed_frees_are_dropped_when_the_exit_is_acked() {
        let mut sim = Engine::new(SimConfig::default());
        let net = Network::new(LatencyModel::ideal(), 1);
        let head = net.add_host("head", HostKind::Head);
        let cn = net.add_host("cn", HostKind::Compute);
        // No mom runs on the accelerator: its DISJOIN short-circuits.
        let acc = net.add_host("acc", HostKind::Accelerator);
        let mom =
            PbsMom::new(net.clone(), PseudoFs::new(), cn, head, RmsCostModel::instant(), None);
        let mom = Arc::new(Mutex::new(mom));
        let mom_id = sim.add_actor(Box::new(Shared(mom.clone())));
        net.bind(mom_addr(cn), Endpoint::Actor(mom_id));
        let launch = JobLaunch {
            job: JobId(1),
            incarnation: 0,
            spec: JobSpec::synthetic("job", SimDuration::from_secs(10)),
            compute: vec![cn],
            accs: vec![vec![]],
        };
        let server = Server {
            net: net.clone(),
            head,
            mom: mom.clone(),
            launch,
            acc,
            frees_at_free_done: None,
            exits: 0,
        };
        let server = Arc::new(Mutex::new(server));
        let server_id = sim.add_actor(Box::new(Shared(server.clone())));
        net.bind(server_addr(head), Endpoint::Actor(server_id));

        let stats = sim.run();
        assert_eq!(stats.process_panics, 0);
        let server = server.lock();
        assert_eq!(server.frees_at_free_done, Some(1), "the release was recorded");
        assert_eq!(server.exits, 1);
        let mom = mom.lock();
        assert!(mom.completed_frees.is_empty(), "released sets outlive the job");
        assert!(mom.exit_pending.is_empty());
        assert!(mom.jobs.is_empty());
    }
}
