//! The `pbs_server` actor: job intake, node accounting, scheduler
//! liaison, and the paper's serial dynamic-request servicing.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use darms_net::{Address, HostId, Network};
use darms_sim::{Actor, Ctx, Envelope, SimTime};
use parking_lot::Mutex;

use crate::cost::RmsCostModel;
use crate::fs::PseudoFs;
use crate::job::{ClientId, DynSet, JobId, JobSpec, JobState, JobStatus};
use crate::nodes::{NodeDb, NodeRole};
use crate::proto::*;
use crate::{mom_addr, sched_addr};

/// Internal job record.
struct JobRecord {
    id: JobId,
    spec: JobSpec,
    state: JobState,
    submitted: SimTime,
    started: Option<SimTime>,
    completed: Option<SimTime>,
    compute: Vec<HostId>,
    accs: Vec<Vec<HostId>>,
    dyn_sets: Vec<DynSet>,
    /// Bumped on every (re)start; moms echo it so a stale mother
    /// superior of a requeued job cannot complete the new incarnation.
    incarnation: u32,
    /// How often the job has been requeued after losing a node; one
    /// requeue is free, a second failure cancels the job.
    requeues: u32,
}

impl JobRecord {
    /// The one place a job's state changes. `Complete`, `Cancelled` and
    /// `TimedOut` are absorbing. Callers only change live jobs (exit,
    /// `qdel` and reclaim purge a dead job's dynamic requests), so an
    /// attempt to leave a terminal state is a bug: it trips a debug
    /// assertion and is refused in release builds.
    fn set_state(&mut self, to: JobState) {
        debug_assert!(
            !self.state.is_terminal(),
            "{} may not leave {:?} for {:?}",
            self.id,
            self.state,
            to
        );
        if !self.state.is_terminal() {
            self.state = to;
        }
    }

    /// The job's entry in the scheduler's running list.
    fn running_snap(&self) -> RunningJobSnap {
        RunningJobSnap {
            job: self.id,
            owner: self.spec.owner.clone(),
            started: self.started.unwrap_or(self.submitted),
            walltime_estimate: self.spec.walltime_estimate,
            compute_hosts: self.compute.clone(),
            ppn: self.spec.ppn,
            acc_hosts: self
                .accs
                .iter()
                .flatten()
                .chain(self.dyn_sets.iter().flat_map(|s| s.accs.iter()))
                .copied()
                .collect(),
        }
    }

    fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id,
            name: self.spec.name.clone(),
            owner: self.spec.owner.clone(),
            state: self.state,
            submitted: self.submitted,
            started: self.started,
            completed: self.completed,
            compute_hosts: self.compute.clone(),
            static_accs: self.accs.clone(),
            dyn_sets: self.dyn_sets.clone(),
        }
    }
}

/// A dynamic request waiting at (or being serviced by) the server.
struct PendingDyn {
    /// Server-side token (echoed by the scheduler).
    token: u64,
    job: JobId,
    cn: HostId,
    count: u32,
    min_count: u32,
    kind: DynResource,
    /// Client correlation token + endpoint for the final response.
    client_token: u64,
    reply: Address,
    /// Arrival of the `pbs_dynget` request at the server; the end-to-end
    /// `rms.dyn_wait` metric (the paper's Fig. 8 quantity as the client
    /// experiences it) spans from here to the final response.
    arrived: SimTime,
    /// Set once the request is exposed to the scheduler.
    queued_at: Option<SimTime>,
    /// Granted hosts, filled when the scheduler allocates.
    granted: Vec<HostId>,
    /// Granted slice ids, parallel to `granted` (slice requests only).
    granted_slices: Vec<u32>,
    client_id: Option<ClientId>,
}

/// Replies to completed mutating IFL exchanges, cached per correlation
/// token so retransmitted requests are answered without re-executing.
#[derive(Clone)]
enum CachedResp {
    Qsub(QsubResp),
    Qdel(QdelResp),
    Qhold(QholdResp),
    DynGet(DynGetResp),
    DynFree(DynFreeResp),
}

/// Bound on the idempotency cache (tokens evicted FIFO).
const IFL_CACHE_CAP: usize = 4096;

/// Reserved timer token for the retransmit tick (deferred actions use
/// tokens from 1 upward).
const TOKEN_RETRY: u64 = 0;

/// Deferred actions driven by processing-cost timers.
enum Deferred {
    QsubDone { token: u64, spec: JobSpec, reply: Address },
    RunJobDo { cmd: RunJobCmd },
    DynExpose,
    DynGrantDo,
    DynFreeDo { job: JobId, client_id: ClientId, token: u64, reply: Address },
}

/// The `pbs_server` daemon.
pub struct PbsServer {
    net: Network,
    fs: PseudoFs,
    host: HostId,
    cost: RmsCostModel,
    jobs: BTreeMap<JobId, JobRecord>,
    /// Jobs currently `Running` or `DynQueued`. `jobs` accumulates every
    /// job ever submitted (qstat reports history), so the hot paths that
    /// only care about live jobs — scheduler snapshots, host
    /// reclamation, the retransmit tick — iterate this index instead of
    /// scanning the full map.
    active: BTreeSet<JobId>,
    /// Submission order of queued jobs. Entries are removed lazily: a
    /// started or cancelled job's entry goes stale (its state filters it
    /// out everywhere) and `queue_dead` triggers a periodic compaction,
    /// so dequeuing is O(1) instead of O(queue).
    queue_order: Vec<JobId>,
    queue_dead: usize,
    db: Arc<Mutex<NodeDb>>,
    next_job: u64,
    next_client: u64,
    next_dyn_token: u64,
    /// Requests waiting behind the active one (global FIFO — the server
    /// services dynamic requests serially; see Fig. 9).
    dyn_fifo: VecDeque<PendingDyn>,
    /// The request currently being serviced, if any.
    dyn_active: Option<PendingDyn>,
    deferred: BTreeMap<u64, Deferred>,
    next_timer: u64,
    /// Idempotency cache: correlation token -> in-flight (`None`) or the
    /// reply already sent (`Some`), so duplicate requests caused by
    /// client retransmits never re-execute.
    ifl_seen: BTreeMap<u64, Option<(Address, CachedResp)>>,
    ifl_order: VecDeque<u64>,
    /// Released dynamic sets whose `FreeDone` has not arrived yet; the
    /// retransmit tick re-drives the `DisjoinCmd`.
    pending_frees: BTreeMap<ClientId, (JobId, DynSet)>,
    /// Token of the last `ClusterQueryResp` served. A query whose
    /// `cached_token` matches proves the client applied that exact
    /// response, so the node and running lists can be answered as deltas
    /// of their dirty sets; any mismatch (lost response, fresh client)
    /// falls back to a full snapshot.
    snap_last_token: Option<u64>,
    /// Jobs whose scheduler-visible running entry changed since the last
    /// `ClusterQueryResp`: started, reported started by the mom, joined
    /// or released a dynamic set, or left `active`. Drained by every
    /// response.
    running_dirty: BTreeSet<JobId>,
    /// Debug builds only (empty otherwise): the running list as the
    /// scheduler holds it after applying every response served. Each
    /// delta is checked against a full rebuild, so a missed
    /// `running_dirty` mark fails the first delta after it.
    running_mirror: BTreeMap<JobId, RunningJobSnap>,
}

impl PbsServer {
    /// Create a server on `host` managing the given nodes.
    pub fn new(net: Network, fs: PseudoFs, host: HostId, cost: RmsCostModel, db: NodeDb) -> Self {
        PbsServer {
            net,
            fs,
            host,
            cost,
            jobs: BTreeMap::new(),
            active: BTreeSet::new(),
            queue_order: Vec::new(),
            queue_dead: 0,
            db: Arc::new(Mutex::new(db)),
            next_job: 1,
            next_client: 1,
            next_dyn_token: 1,
            dyn_fifo: VecDeque::new(),
            dyn_active: None,
            deferred: BTreeMap::new(),
            next_timer: 1,
            ifl_seen: BTreeMap::new(),
            ifl_order: VecDeque::new(),
            pending_frees: BTreeMap::new(),
            snap_last_token: None,
            running_dirty: BTreeSet::new(),
            running_mirror: BTreeMap::new(),
        }
    }

    /// Shared handle to the node database (e.g. for invariant auditors:
    /// the chaos harness checks pool conservation through it). The engine
    /// is single-threaded, so lock contention cannot occur; never hold
    /// the guard across an await point.
    pub fn db_handle(&self) -> Arc<Mutex<NodeDb>> {
        self.db.clone()
    }

    /// True if a duplicate of an already-accepted request was handled
    /// (cached reply re-sent, or silence while the original is still in
    /// flight). False admits the request and marks its token in flight.
    fn dedup_hit(&mut self, ctx: &mut Ctx<'_>, token: u64) -> bool {
        match self.ifl_seen.get(&token) {
            Some(Some((to, resp))) => {
                let (to, resp) = (*to, resp.clone());
                self.resend_cached(ctx, to, resp);
                true
            }
            Some(None) => true,
            None => {
                self.ifl_seen.insert(token, None);
                self.ifl_order.push_back(token);
                if self.ifl_order.len() > IFL_CACHE_CAP {
                    if let Some(old) = self.ifl_order.pop_front() {
                        self.ifl_seen.remove(&old);
                    }
                }
                false
            }
        }
    }

    /// Record the reply sent for `token` so duplicates can be re-answered.
    fn dedup_store(&mut self, token: u64, to: Address, resp: CachedResp) {
        if let Some(slot) = self.ifl_seen.get_mut(&token) {
            *slot = Some((to, resp));
        }
    }

    fn resend_cached(&mut self, ctx: &mut Ctx<'_>, to: Address, resp: CachedResp) {
        match resp {
            CachedResp::Qsub(r) => self.reply(ctx, to, r),
            CachedResp::Qdel(r) => self.reply(ctx, to, r),
            CachedResp::Qhold(r) => self.reply(ctx, to, r),
            CachedResp::DynGet(r) => self.reply(ctx, to, r),
            CachedResp::DynFree(r) => self.reply(ctx, to, r),
        }
    }

    fn defer(&mut self, ctx: &mut Ctx<'_>, after: darms_sim::SimDuration, d: Deferred) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.deferred.insert(token, d);
        ctx.set_timer(after, token);
    }

    fn wake_scheduler(&mut self, ctx: &mut Ctx<'_>) {
        let to = sched_addr(self.host);
        let bytes = self.cost.ctl_bytes;
        self.net.send_from_ctx(ctx, self.host, to, SchedWake, bytes);
    }

    fn send_mom<T: std::any::Any + Send + Clone>(
        &mut self,
        ctx: &mut Ctx<'_>,
        host: HostId,
        msg: T,
    ) {
        let bytes = self.cost.ctl_bytes;
        self.net.send_from_ctx(ctx, self.host, mom_addr(host), msg, bytes);
    }

    fn reply<T: std::any::Any + Send + Clone>(&mut self, ctx: &mut Ctx<'_>, to: Address, msg: T) {
        let bytes = self.cost.ctl_bytes;
        self.net.send_from_ctx(ctx, self.host, to, msg, bytes);
    }

    /// Sample accelerator-pool utilization (busy fraction) into the
    /// `rms.acc_pool_util` time-weighted gauge. Called after every node
    /// (de)allocation that can touch the pool.
    fn record_pool_util(&self, ctx: &mut Ctx<'_>) {
        // O(1): the node database keeps running usage counters.
        let (free, total) = self.db.lock().accelerator_usage();
        if total > 0 {
            let busy = total - free;
            let now = ctx.now();
            ctx.metrics().twg_set("rms.acc_pool_util", now, busy as f64 / total as f64);
        }
    }

    /// Drop stale `queue_order` entries (jobs no longer queued or held)
    /// once they outnumber the live ones. Amortized O(1) per dequeue.
    fn maybe_compact_queue(&mut self) {
        if self.queue_dead >= 64 && self.queue_dead * 2 > self.queue_order.len() {
            let jobs = &self.jobs;
            self.queue_order.retain(|id| {
                jobs.get(id).is_some_and(|j| matches!(j.state, JobState::Queued | JobState::Held))
            });
            self.queue_dead = 0;
        }
    }

    // -- qsub ----------------------------------------------------------

    fn handle_qsub(&mut self, ctx: &mut Ctx<'_>, req: QsubReq) {
        if self.dedup_hit(ctx, req.token) {
            return;
        }
        self.defer(
            ctx,
            self.cost.qsub_handling,
            Deferred::QsubDone { token: req.token, spec: req.spec, reply: req.reply },
        );
    }

    fn finish_qsub(&mut self, ctx: &mut Ctx<'_>, token: u64, spec: JobSpec, reply: Address) {
        let id = JobId(self.next_job);
        self.next_job += 1;
        let rec = JobRecord {
            id,
            spec,
            state: JobState::Queued,
            submitted: ctx.now(),
            started: None,
            completed: None,
            compute: Vec::new(),
            accs: Vec::new(),
            dyn_sets: Vec::new(),
            incarnation: 0,
            requeues: 0,
        };
        ctx.trace(format!("{id} queued ({})", rec.spec.name));
        self.jobs.insert(id, rec);
        self.queue_order.push(id);
        let resp = QsubResp { token, job: id };
        self.dedup_store(token, reply, CachedResp::Qsub(resp.clone()));
        self.reply(ctx, reply, resp);
        self.wake_scheduler(ctx);
    }

    // -- scheduler liaison ----------------------------------------------

    /// Build the response to one cluster query. When the client proves
    /// (via `cached_token`) that it applied the previous response, the
    /// node and running lists are deltas: only nodes the database dirtied
    /// since that response, plus any the client asked to have restated,
    /// and only the running jobs whose entry changed (with the ones that
    /// stopped running listed in `running_ended`). Queued and
    /// dyn-pending lists are always full. Returns the snapshot, the ids
    /// of jobs that left the running list, and whether it is a delta.
    fn snapshot_for(&mut self, req: &ClusterQueryReq) -> (ClusterSnapshot, Vec<JobId>, bool) {
        let snap_of = |n: &crate::nodes::NodeRecord| NodeSnap {
            host: n.host,
            role: n.role,
            class: n.class,
            cores_total: n.cores_total,
            cores_free: n.cores_free,
            offline: n.offline,
        };
        let delta = req.cached_token.is_some() && req.cached_token == self.snap_last_token;
        self.snap_last_token = Some(req.token);
        let nodes = {
            let mut db = self.db.lock();
            // Drain in either mode: after this response the client is
            // current, so only later changes matter.
            let mut changed = db.take_dirty();
            if delta {
                for h in &req.refresh {
                    if let Some(i) = db.index_of(*h) {
                        changed.insert(i);
                    }
                }
                let all = db.nodes();
                changed.iter().map(|&i| snap_of(&all[i])).collect()
            } else {
                db.nodes().iter().map(snap_of).collect()
            }
        };
        let queued = self
            .queue_order
            .iter()
            .filter_map(|id| self.jobs.get(id))
            .filter(|j| j.state == JobState::Queued)
            .map(|j| QueuedJobSnap {
                job: j.id,
                owner: j.spec.owner.clone(),
                submitted: j.submitted,
                nodes: j.spec.nodes,
                ppn: j.spec.ppn,
                acpn: j.spec.acpn,
                walltime_estimate: j.spec.walltime_estimate,
            })
            .collect();
        let dirty = std::mem::take(&mut self.running_dirty);
        let mut running_ended = Vec::new();
        let running: Vec<RunningJobSnap> = if delta {
            let mut running = Vec::new();
            for id in dirty {
                match self.jobs.get(&id).filter(|_| self.active.contains(&id)) {
                    Some(j) => running.push(j.running_snap()),
                    None => running_ended.push(id),
                }
            }
            running
        } else {
            self.running_full().collect()
        };
        if cfg!(debug_assertions) {
            self.check_running_mirror(delta, &running, &running_ended);
        }
        let dyn_pending = self.dyn_active.as_ref().and_then(|p| {
            p.queued_at.map(|t| DynPendingSnap {
                token: p.token,
                job: p.job,
                cn: p.cn,
                count: p.count,
                min_count: p.min_count,
                kind: p.kind,
                queued_at: t,
            })
        });
        (ClusterSnapshot { nodes, queued, running, dyn_pending }, running_ended, delta)
    }

    /// Every active job's running entry, in `JobId` order.
    fn running_full(&self) -> impl Iterator<Item = RunningJobSnap> + '_ {
        self.active.iter().filter_map(|id| self.jobs.get(id)).map(JobRecord::running_snap)
    }

    /// Apply a response to the mirror of the scheduler's running list the
    /// way the scheduler does, and check a delta against the full list.
    fn check_running_mirror(&mut self, delta: bool, running: &[RunningJobSnap], ended: &[JobId]) {
        if !delta {
            self.running_mirror.clear();
        }
        for id in ended {
            self.running_mirror.remove(id);
        }
        for r in running {
            self.running_mirror.insert(r.job, r.clone());
        }
        if delta {
            let full: BTreeMap<JobId, RunningJobSnap> =
                self.running_full().map(|r| (r.job, r)).collect();
            debug_assert!(
                self.running_mirror == full,
                "running delta diverged from the full list: client has {:?}, server has {:?}",
                self.running_mirror,
                full
            );
        }
    }

    fn handle_run_job(&mut self, ctx: &mut Ctx<'_>, cmd: RunJobCmd) {
        // Validate against the live state; the scheduler may have raced a
        // qdel. Infeasible commands are dropped and the scheduler re-woken.
        let feasible = match self.jobs.get(&cmd.job) {
            Some(j) if j.state == JobState::Queued => {
                let db = self.db.lock();
                cmd.compute.iter().all(|h| {
                    db.get(*h).is_some_and(|n| {
                        n.role == NodeRole::Compute && !n.offline && n.cores_free >= j.spec.ppn
                    })
                }) && cmd.accs.iter().flatten().all(|h| {
                    db.get(*h).is_some_and(|n| {
                        n.role == NodeRole::Accelerator && !n.offline && n.is_free()
                    })
                })
            }
            _ => false,
        };
        if !feasible {
            ctx.trace(format!("dropping infeasible RunJob for {}", cmd.job));
            self.wake_scheduler(ctx);
            return;
        }
        self.defer(ctx, self.cost.run_job_handling, Deferred::RunJobDo { cmd });
    }

    fn finish_run_job(&mut self, ctx: &mut Ctx<'_>, cmd: RunJobCmd) {
        let Some(job) = self.jobs.get_mut(&cmd.job) else { return };
        if job.state != JobState::Queued {
            return;
        }
        let ppn = job.spec.ppn;
        job.set_state(JobState::Running);
        job.compute = cmd.compute.clone();
        job.accs = cmd.accs.clone();
        job.incarnation += 1;
        let incarnation = job.incarnation;
        let id = job.id;
        {
            let mut db = self.db.lock();
            for h in &cmd.compute {
                db.allocate_compute(*h, id, ppn);
            }
            for h in cmd.accs.iter().flatten() {
                db.allocate_accelerator(*h, id);
            }
        }
        self.record_pool_util(ctx);
        self.active.insert(id);
        self.running_dirty.insert(id);
        self.queue_dead += 1;
        self.maybe_compact_queue();
        let ms = cmd.compute[0];
        ctx.trace(format!("{id} -> mother superior on host{}", ms.index()));
        let launch = JobLaunch {
            job: id,
            incarnation,
            spec: self.jobs[&id].spec.clone(),
            compute: cmd.compute,
            accs: cmd.accs,
        };
        self.send_mom(ctx, ms, SendJob { launch });
    }

    // -- dynamic requests (the paper's extension) ------------------------

    fn handle_dynget(&mut self, ctx: &mut Ctx<'_>, req: DynGetReq) {
        if self.dedup_hit(ctx, req.token) {
            return;
        }
        let valid = self
            .jobs
            .get(&req.job)
            .is_some_and(|j| matches!(j.state, JobState::Running | JobState::DynQueued));
        if !valid || req.count == 0 {
            let resp = DynGetResp { token: req.token, result: Err(DynReject::BadJob) };
            self.dedup_store(req.token, req.reply, CachedResp::DynGet(resp.clone()));
            self.reply(ctx, req.reply, resp);
            return;
        }
        let token = self.next_dyn_token;
        self.next_dyn_token += 1;
        self.dyn_fifo.push_back(PendingDyn {
            token,
            job: req.job,
            cn: req.cn,
            count: req.count,
            min_count: req.min_count.clamp(1, req.count),
            kind: req.kind,
            client_token: req.token,
            reply: req.reply,
            arrived: ctx.now(),
            queued_at: None,
            granted: Vec::new(),
            granted_slices: Vec::new(),
            client_id: None,
        });
        self.maybe_start_dyn(ctx);
    }

    /// Begin servicing the next dynamic request if none is active.
    fn maybe_start_dyn(&mut self, ctx: &mut Ctx<'_>) {
        if self.dyn_active.is_some() {
            return;
        }
        let Some(p) = self.dyn_fifo.pop_front() else { return };
        ctx.trace(format!("servicing dynamic request of {} (count {})", p.job, p.count));
        self.dyn_active = Some(p);
        self.defer(ctx, self.cost.dyn_request_handling, Deferred::DynExpose);
    }

    fn expose_dyn(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if let Some(p) = self.dyn_active.as_mut() {
            p.queued_at = Some(now);
            if let Some(job) = self.jobs.get_mut(&p.job) {
                job.set_state(JobState::DynQueued);
            }
            self.wake_scheduler(ctx);
        }
    }

    fn handle_run_dyn(&mut self, ctx: &mut Ctx<'_>, cmd: RunDynCmd) {
        let valid =
            self.dyn_active.as_ref().is_some_and(|p| p.token == cmd.token && p.queued_at.is_some());
        if !valid {
            return; // stale command
        }
        // Validate the grant against the live node state.
        let active = self.dyn_active.as_ref().expect("checked above");
        let (kind, req_job) = (active.kind, active.job);
        let ok = {
            let db = self.db.lock();
            cmd.accs.iter().all(|h| match kind {
                DynResource::Accelerators { class } => db.get(*h).is_some_and(|n| {
                    n.role == NodeRole::Accelerator && n.class == class && !n.offline && n.is_free()
                }),
                DynResource::ComputeNodes { ppn } => db.get(*h).is_some_and(|n| {
                    n.role == NodeRole::Compute && !n.offline && n.cores_free >= ppn
                }),
                DynResource::AcceleratorSlices { class } => {
                    db.get(*h).is_some_and(|n| n.can_slice(class, req_job))
                }
            })
        };
        let p = self.dyn_active.as_mut().expect("checked above");
        let n = cmd.accs.len();
        if !ok || n < p.min_count as usize || n > p.count as usize {
            ctx.trace(format!("dropping infeasible dyn grant for {}", p.job));
            let p = self.dyn_active.take().expect("active");
            self.finish_dyn_reject(ctx, p);
            return;
        }
        p.granted = cmd.accs;
        let client_id = ClientId(self.next_client);
        self.next_client += 1;
        let p = self.dyn_active.as_mut().expect("active");
        p.client_id = Some(client_id);
        let job = p.job;
        let kind = p.kind;
        let granted = p.granted.clone();
        let mut granted_slices = Vec::new();
        {
            let mut db = self.db.lock();
            for h in &granted {
                match kind {
                    DynResource::Accelerators { class: _ } => db.allocate_accelerator(*h, job),
                    DynResource::ComputeNodes { ppn } => db.allocate_compute(*h, job, ppn),
                    DynResource::AcceleratorSlices { class: _ } => {
                        granted_slices.push(db.allocate_accelerator_slice(*h, job));
                    }
                }
            }
        }
        self.dyn_active.as_mut().expect("active").granted_slices = granted_slices;
        self.record_pool_util(ctx);
        self.defer(ctx, self.cost.dyn_grant_handling, Deferred::DynGrantDo);
    }

    fn finish_dyn_grant(&mut self, ctx: &mut Ctx<'_>) {
        let Some(p) = self.dyn_active.as_ref() else { return };
        let Some(job) = self.jobs.get(&p.job) else { return };
        let ms = job.compute.first().copied();
        let cmd = DynJoinCmd {
            job: p.job,
            token: p.token,
            client_id: p.client_id.expect("granted"),
            cn: p.cn,
            accs: p.granted.clone(),
        };
        match ms {
            Some(ms) => self.send_mom(ctx, ms, cmd),
            None => {
                // Job lost its nodes (qdel race): abort the grant.
                let p = self.dyn_active.take().expect("active");
                {
                    let mut db = self.db.lock();
                    for h in &p.granted {
                        db.release(*h, p.job);
                    }
                }
                self.finish_dyn_reject(ctx, p);
            }
        }
    }

    fn handle_dyn_ready(&mut self, ctx: &mut Ctx<'_>, msg: DynReady) {
        let done =
            self.dyn_active.as_ref().is_some_and(|p| p.token == msg.token && p.job == msg.job);
        if !done {
            return;
        }
        let p = self.dyn_active.take().expect("checked");
        if let Some(job) = self.jobs.get_mut(&p.job) {
            job.set_state(JobState::Running);
            self.running_dirty.insert(p.job);
            job.dyn_sets.push(DynSet {
                client_id: p.client_id.expect("granted"),
                cn: p.cn,
                accs: p.granted.clone(),
                slices: p.granted_slices.clone(),
                ppn: match p.kind {
                    DynResource::Accelerators { class: _ } => 0,
                    DynResource::ComputeNodes { ppn } => ppn,
                    DynResource::AcceleratorSlices { class: _ } => 0,
                },
            });
        }
        let metrics = ctx.metrics();
        metrics.counter_inc("rms.dynjoin");
        metrics.observe_duration("rms.dyn_wait", ctx.now().since(p.arrived));
        // Grant-only latency: the dynget→grant SLO tracked by the soak
        // harness (rms.dyn_wait above also counts rejections).
        metrics.observe_duration("rms.dynget_to_grant", ctx.now().since(p.arrived));
        ctx.trace(format!(
            "{} granted {} accelerator(s) as {}",
            p.job,
            p.granted.len(),
            p.client_id.expect("granted")
        ));
        let resp = DynGetResp {
            token: p.client_token,
            result: Ok(DynGrant {
                client_id: p.client_id.expect("granted"),
                accs: p.granted.clone(),
                slices: p.granted_slices.clone(),
            }),
        };
        self.dedup_store(p.client_token, p.reply, CachedResp::DynGet(resp.clone()));
        self.reply(ctx, p.reply, resp);
        self.maybe_start_dyn(ctx);
    }

    fn handle_reject_dyn(&mut self, ctx: &mut Ctx<'_>, cmd: RejectDynCmd) {
        let matched = self.dyn_active.as_ref().is_some_and(|p| p.token == cmd.token);
        if !matched {
            return;
        }
        let p = self.dyn_active.take().expect("checked");
        self.finish_dyn_reject(ctx, p);
    }

    fn finish_dyn_reject(&mut self, ctx: &mut Ctx<'_>, p: PendingDyn) {
        if let Some(job) = self.jobs.get_mut(&p.job) {
            if job.state == JobState::DynQueued {
                job.set_state(JobState::Running);
            }
        }
        let metrics = ctx.metrics();
        metrics.counter_inc("rms.dyn_rejected");
        metrics.observe_duration("rms.dyn_wait", ctx.now().since(p.arrived));
        ctx.trace(format!("{} dynamic request rejected", p.job));
        let resp = DynGetResp { token: p.client_token, result: Err(DynReject::Unavailable) };
        self.dedup_store(p.client_token, p.reply, CachedResp::DynGet(resp.clone()));
        self.reply(ctx, p.reply, resp);
        self.maybe_start_dyn(ctx);
    }

    // -- release ---------------------------------------------------------

    fn handle_dynfree(&mut self, ctx: &mut Ctx<'_>, req: DynFreeReq) {
        if self.dedup_hit(ctx, req.token) {
            return;
        }
        let known = self
            .jobs
            .get(&req.job)
            .is_some_and(|j| j.dyn_sets.iter().any(|s| s.client_id == req.client_id));
        if !known {
            let resp = DynFreeResp { token: req.token, ok: false };
            self.dedup_store(req.token, req.reply, CachedResp::DynFree(resp.clone()));
            self.reply(ctx, req.reply, resp);
            return;
        }
        self.defer(
            ctx,
            self.cost.dyn_free_handling,
            Deferred::DynFreeDo {
                job: req.job,
                client_id: req.client_id,
                token: req.token,
                reply: req.reply,
            },
        );
    }

    fn finish_dynfree(
        &mut self,
        ctx: &mut Ctx<'_>,
        job: JobId,
        client_id: ClientId,
        token: u64,
        reply: Address,
    ) {
        // Positive reply immediately; disassociation continues behind the
        // application's back (§III-D).
        let resp = DynFreeResp { token, ok: true };
        self.dedup_store(token, reply, CachedResp::DynFree(resp.clone()));
        self.reply(ctx, reply, resp);
        let Some(rec) = self.jobs.get(&job) else { return };
        let Some(set) = rec.dyn_sets.iter().find(|s| s.client_id == client_id).cloned() else {
            return;
        };
        let ms = rec.compute.first().copied();
        ctx.trace(format!("{job} dynfree of {client_id}: instructing mother superior"));
        if let Some(ms) = ms {
            self.pending_frees.insert(client_id, (job, set.clone()));
            let cmd =
                DisjoinCmd { job, client_id, accs: set.accs, slices: set.slices, ppn: set.ppn };
            self.send_mom(ctx, ms, cmd);
        }
    }

    fn handle_free_done(&mut self, ctx: &mut Ctx<'_>, msg: FreeDone) {
        let known = self
            .jobs
            .get(&msg.job)
            .is_some_and(|j| j.dyn_sets.iter().any(|s| s.client_id == msg.set.client_id));
        let pending = self.pending_frees.remove(&msg.set.client_id).is_some();
        if !known && !pending {
            // Duplicate FreeDone (mom retransmit): already accounted for.
            return;
        }
        if let Some(rec) = self.jobs.get_mut(&msg.job) {
            rec.dyn_sets.retain(|s| s.client_id != msg.set.client_id);
            self.running_dirty.insert(msg.job);
        }
        {
            let mut db = self.db.lock();
            for h in &msg.set.accs {
                db.release(*h, msg.job);
            }
        }
        self.record_pool_util(ctx);
        ctx.metrics().counter_inc("rms.disjoin");
        ctx.trace(format!("{} released set {}", msg.job, msg.set.client_id));
        self.wake_scheduler(ctx);
    }

    // -- job end ----------------------------------------------------------

    fn handle_job_exit(&mut self, ctx: &mut Ctx<'_>, msg: JobExit) {
        // Every exit is acknowledged so the mom stops resending it, and the
        // job's dynamic requests die with it: a queued `AC_Get` of a dead
        // job would otherwise be served later and revive the job.
        let Some(rec) = self.jobs.get_mut(&msg.job) else {
            self.send_mom(ctx, msg.from, JobExitAck { job: msg.job });
            return;
        };
        let stale = rec.incarnation != msg.incarnation;
        let terminal =
            matches!(rec.state, JobState::Complete | JobState::Cancelled | JobState::TimedOut);
        if stale || terminal {
            // A stale mom of a requeued incarnation, or a duplicate of an
            // exit already applied: quench the sender, change nothing.
            self.send_mom(ctx, msg.from, JobExitAck { job: msg.job });
            return;
        }
        rec.set_state(if msg.timed_out { JobState::TimedOut } else { JobState::Complete });
        rec.completed = Some(ctx.now());
        rec.dyn_sets.clear();
        self.active.remove(&msg.job);
        self.running_dirty.insert(msg.job);
        self.db.lock().release_job(msg.job);
        self.fs.remove_job(msg.job);
        self.record_pool_util(ctx);
        ctx.trace(format!(
            "{} {}",
            msg.job,
            if msg.timed_out { "killed: walltime exceeded" } else { "complete" }
        ));
        self.purge_dyns_for(ctx, msg.job);
        self.purge_frees_for(msg.job);
        self.send_mom(ctx, msg.from, JobExitAck { job: msg.job });
        self.wake_scheduler(ctx);
    }

    /// Reject every queued or in-service dynamic request of `job` (it is
    /// terminating or losing its nodes) and release accelerators that were
    /// granted but never acknowledged as ready.
    fn purge_dyns_for(&mut self, ctx: &mut Ctx<'_>, job: JobId) {
        let mut victims: Vec<PendingDyn> = Vec::new();
        let mut keep = VecDeque::new();
        while let Some(p) = self.dyn_fifo.pop_front() {
            if p.job == job {
                victims.push(p);
            } else {
                keep.push_back(p);
            }
        }
        self.dyn_fifo = keep;
        if self.dyn_active.as_ref().is_some_and(|p| p.job == job) {
            let p = self.dyn_active.take().expect("checked");
            if p.client_id.is_some() {
                let mut db = self.db.lock();
                for h in &p.granted {
                    db.release(*h, p.job);
                }
            }
            victims.push(p);
        }
        if victims.is_empty() {
            return;
        }
        for p in victims {
            self.finish_dyn_reject(ctx, p);
        }
        self.record_pool_util(ctx);
    }

    /// Forget pending disjoins of a job that no longer exists; its node
    /// registrations were already dropped wholesale by `release_job`.
    fn purge_frees_for(&mut self, job: JobId) {
        self.pending_frees.retain(|_, (j, _)| *j != job);
    }

    /// A node went offline: strip it from every non-terminal job. The
    /// first failure requeues the job (fresh incarnation when the
    /// scheduler restarts it); a repeat failure cancels it. This is the
    /// server-side reclamation that keeps the accelerator pool conserved
    /// when moms or jobs die mid-flight.
    fn reclaim_host(&mut self, ctx: &mut Ctx<'_>, host: HostId) {
        let victims: Vec<JobId> = self
            .active
            .iter()
            .filter_map(|id| self.jobs.get(id))
            .filter(|j| {
                j.compute.contains(&host)
                    || j.accs.iter().flatten().any(|h| *h == host)
                    || j.dyn_sets.iter().any(|s| s.accs.contains(&host))
            })
            .map(|j| j.id)
            .collect();
        for job in victims {
            self.purge_dyns_for(ctx, job);
            self.purge_frees_for(job);
            let Some(rec) = self.jobs.get_mut(&job) else { continue };
            let ms = rec.compute.first().copied();
            let incarnation = rec.incarnation;
            let requeue = rec.requeues == 0;
            rec.compute.clear();
            rec.accs.clear();
            rec.dyn_sets.clear();
            rec.started = None;
            if requeue {
                rec.requeues += 1;
                rec.set_state(JobState::Queued);
            } else {
                rec.set_state(JobState::Cancelled);
                rec.completed = Some(ctx.now());
            }
            self.active.remove(&job);
            self.running_dirty.insert(job);
            self.db.lock().release_job(job);
            self.fs.remove_job(job);
            if requeue {
                // Reclaim is rare (fault path), so an exact O(queue)
                // de-dup beats tracking staleness: the job's entry from
                // its first queueing may still be lazily present.
                self.queue_order.retain(|j| *j != job);
                self.queue_order.push(job);
            }
            if let Some(ms) = ms {
                if ms != host {
                    self.send_mom(ctx, ms, CleanupJob { job, incarnation });
                }
            }
            ctx.metrics().counter_inc("rms.reclaims");
            ctx.trace(format!(
                "{job} reclaimed from offline host{}: {}",
                host.index(),
                if requeue { "requeued" } else { "cancelled" }
            ));
        }
        self.record_pool_util(ctx);
    }

    /// Periodic re-drive of server->mom commands still awaiting their
    /// response; armed (timer token 0) only when a retry policy is set.
    fn retransmit_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(pol) = self.net.retry_policy() else { return };
        let launches: Vec<(HostId, JobLaunch)> = self
            .active
            .iter()
            .filter_map(|id| self.jobs.get(id))
            .filter(|j| j.started.is_none() && !j.compute.is_empty())
            .map(|j| {
                (
                    j.compute[0],
                    JobLaunch {
                        job: j.id,
                        incarnation: j.incarnation,
                        spec: j.spec.clone(),
                        compute: j.compute.clone(),
                        accs: j.accs.clone(),
                    },
                )
            })
            .collect();
        for (ms, launch) in launches {
            self.send_mom(ctx, ms, SendJob { launch });
        }
        if let Some(p) = &self.dyn_active {
            if let (Some(client_id), false) = (p.client_id, p.granted.is_empty()) {
                if let Some(ms) = self.jobs.get(&p.job).and_then(|j| j.compute.first().copied()) {
                    let cmd = DynJoinCmd {
                        job: p.job,
                        token: p.token,
                        client_id,
                        cn: p.cn,
                        accs: p.granted.clone(),
                    };
                    self.send_mom(ctx, ms, cmd);
                }
            }
        }
        let frees: Vec<(HostId, DisjoinCmd)> = self
            .pending_frees
            .iter()
            .filter_map(|(cid, (job, set))| {
                self.jobs.get(job).and_then(|j| j.compute.first().copied()).map(|ms| {
                    (
                        ms,
                        DisjoinCmd {
                            job: *job,
                            client_id: *cid,
                            accs: set.accs.clone(),
                            slices: set.slices.clone(),
                            ppn: set.ppn,
                        },
                    )
                })
            })
            .collect();
        for (ms, cmd) in frees {
            self.send_mom(ctx, ms, cmd);
        }
        ctx.set_timer(pol.retransmit, TOKEN_RETRY);
    }

    /// `qhold`/`qrls`: only queued jobs can be held (TORQUE holds running
    /// jobs only via checkpointing, which the DAC architecture does not
    /// model); only held jobs can be released.
    fn handle_qhold(&mut self, ctx: &mut Ctx<'_>, req: QholdReq) {
        if self.dedup_hit(ctx, req.token) {
            return;
        }
        let ok = match self.jobs.get_mut(&req.job) {
            Some(rec) if req.hold && rec.state == JobState::Queued => {
                rec.set_state(JobState::Held);
                ctx.trace(format!("{} held", req.job));
                true
            }
            Some(rec) if !req.hold && rec.state == JobState::Held => {
                rec.set_state(JobState::Queued);
                ctx.trace(format!("{} released from hold", req.job));
                true
            }
            _ => false,
        };
        let resp = QholdResp { token: req.token, ok };
        self.dedup_store(req.token, req.reply, CachedResp::Qhold(resp.clone()));
        self.reply(ctx, req.reply, resp);
        if ok && !req.hold {
            self.wake_scheduler(ctx);
        }
    }

    fn handle_qdel(&mut self, ctx: &mut Ctx<'_>, req: QdelReq) {
        if self.dedup_hit(ctx, req.token) {
            return;
        }
        let mut was_active = false;
        let ok = match self.jobs.get_mut(&req.job) {
            Some(rec) if matches!(rec.state, JobState::Queued | JobState::Held) => {
                rec.set_state(JobState::Cancelled);
                rec.completed = Some(ctx.now());
                self.queue_dead += 1;
                self.maybe_compact_queue();
                true
            }
            Some(rec) if matches!(rec.state, JobState::Running | JobState::DynQueued) => {
                rec.set_state(JobState::Cancelled);
                rec.completed = Some(ctx.now());
                rec.dyn_sets.clear();
                self.active.remove(&req.job);
                self.running_dirty.insert(req.job);
                was_active = true;
                let ms = rec.compute.first().copied();
                let incarnation = rec.incarnation;
                self.db.lock().release_job(req.job);
                self.fs.remove_job(req.job);
                if let Some(ms) = ms {
                    self.send_mom(ctx, ms, CleanupJob { job: req.job, incarnation });
                }
                true
            }
            _ => false,
        };
        let resp = QdelResp { token: req.token, ok };
        self.dedup_store(req.token, req.reply, CachedResp::Qdel(resp.clone()));
        self.reply(ctx, req.reply, resp);
        if was_active {
            self.purge_dyns_for(ctx, req.job);
            self.purge_frees_for(req.job);
        }
        if ok {
            self.record_pool_util(ctx);
            self.wake_scheduler(ctx);
        }
    }
}

impl Actor for PbsServer {
    fn name(&self) -> &str {
        "pbs_server"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        let env = match env.downcast::<QsubReq>() {
            Ok(m) => return self.handle_qsub(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<QstatReq>() {
            Ok(m) => {
                let jobs = self.jobs.values().map(|j| j.status()).collect();
                let resp = QstatResp { token: m.token, jobs };
                return self.reply(ctx, m.reply, resp);
            }
            Err(e) => e,
        };
        let env = match env.downcast::<QdelReq>() {
            Ok(m) => return self.handle_qdel(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<QholdReq>() {
            Ok(m) => return self.handle_qhold(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DynGetReq>() {
            Ok(m) => return self.handle_dynget(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DynFreeReq>() {
            Ok(m) => return self.handle_dynfree(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<ClusterQueryReq>() {
            Ok(m) => {
                let (snapshot, running_ended, delta) = self.snapshot_for(&m);
                let resp = ClusterQueryResp { token: m.token, snapshot, running_ended, delta };
                return self.reply(ctx, m.reply, resp);
            }
            Err(e) => e,
        };
        let env = match env.downcast::<RunJobCmd>() {
            Ok(m) => return self.handle_run_job(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<RunDynCmd>() {
            Ok(m) => return self.handle_run_dyn(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<RejectDynCmd>() {
            Ok(m) => return self.handle_reject_dyn(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<DynReady>() {
            Ok(m) => return self.handle_dyn_ready(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<FreeDone>() {
            Ok(m) => return self.handle_free_done(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<JobStarted>() {
            Ok(m) => {
                if let Some(rec) = self.jobs.get_mut(&m.job) {
                    if rec.incarnation == m.incarnation
                        && rec.started.is_none()
                        && matches!(rec.state, JobState::Running | JobState::DynQueued)
                    {
                        let now = ctx.now();
                        rec.started = Some(now);
                        self.running_dirty.insert(m.job);
                        let latency = now.since(rec.submitted);
                        ctx.metrics().observe_duration("rms.qsub_to_run", latency);
                    }
                }
                return;
            }
            Err(e) => e,
        };
        let env = match env.downcast::<JobExit>() {
            Ok(m) => return self.handle_job_exit(ctx, m),
            Err(e) => e,
        };
        let env = match env.downcast::<SetNodeOffline>() {
            Ok(m) => {
                self.db.lock().set_offline(m.host, m.offline);
                ctx.trace(format!(
                    "node host{} marked {}",
                    m.host.index(),
                    if m.offline { "offline" } else { "online" }
                ));
                if m.offline {
                    self.reclaim_host(ctx, m.host);
                }
                self.wake_scheduler(ctx);
                return;
            }
            Err(e) => e,
        };
        ctx.trace(format!("pbs_server: unhandled message {env:?}"));
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
            Some(Deferred::QsubDone { token, spec, reply }) => {
                self.finish_qsub(ctx, token, spec, reply)
            }
            Some(Deferred::RunJobDo { cmd }) => self.finish_run_job(ctx, cmd),
            Some(Deferred::DynExpose) => self.expose_dyn(ctx),
            Some(Deferred::DynGrantDo) => self.finish_dyn_grant(ctx),
            Some(Deferred::DynFreeDo { job, client_id, token, reply }) => {
                self.finish_dynfree(ctx, job, client_id, token, reply)
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darms_net::{HostKind, LatencyModel};
    use darms_sim::{Engine, SimDuration};

    type Drive = Box<dyn FnOnce(&mut PbsServer, &mut Ctx<'_>) + Send>;

    /// Runs one scripted sequence of server handlers at t = 0, where a
    /// `Ctx` exists. Timers and messages are not forwarded, so deferred
    /// work runs only when the script calls it.
    struct Probe {
        server: PbsServer,
        drive: Option<Drive>,
    }

    impl Actor for Probe {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}

        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(drive) = self.drive.take() {
                drive(&mut self.server, ctx);
            }
        }
    }

    struct Rig {
        cn: HostId,
        acc: HostId,
        reply: Address,
    }

    /// A server with one compute node and one accelerator, driven by
    /// `drive`.
    fn run_server(drive: impl FnOnce(&mut PbsServer, &mut Ctx<'_>, &Rig) + Send + 'static) {
        let mut sim = Engine::with_seed(1);
        let net = Network::new(LatencyModel::ideal(), 1);
        let head = net.add_host("head", HostKind::Head);
        let cn = net.add_host("cn00", HostKind::Compute);
        let acc = net.add_host("ac00", HostKind::Accelerator);
        let mut db = NodeDb::new();
        db.add_compute(cn, 4);
        db.add_accelerator(acc);
        let server = PbsServer::new(net, PseudoFs::new(), head, RmsCostModel::instant(), db);
        let rig = Rig { cn, acc, reply: sched_addr(head) };
        let drive: Drive = Box::new(move |server, ctx| drive(server, ctx, &rig));
        sim.add_actor(Box::new(Probe { server, drive: Some(drive) }));
        sim.run();
    }

    /// Submit and start one job on the compute node, then take its
    /// `AC_Get` for the accelerator through expose and grant, so only the
    /// mom's `DynReady` is outstanding. Returns the job and the request's
    /// server token.
    fn start_with_granted_acc(
        server: &mut PbsServer,
        ctx: &mut Ctx<'_>,
        rig: &Rig,
    ) -> (JobId, u64) {
        let spec = JobSpec::synthetic("victim", SimDuration::from_secs(100));
        server.finish_qsub(ctx, 1, spec, rig.reply);
        let job = JobId(1);
        server.finish_run_job(ctx, RunJobCmd { job, compute: vec![rig.cn], accs: vec![vec![]] });
        let req = DynGetReq {
            token: 2,
            job,
            cn: rig.cn,
            count: 1,
            min_count: 1,
            kind: DynResource::Accelerators { class: DeviceClass::default() },
            reply: rig.reply,
        };
        server.handle_dynget(ctx, req);
        server.expose_dyn(ctx);
        assert_eq!(server.jobs[&job].state, JobState::DynQueued);
        let token = server.dyn_active.as_ref().expect("active").token;
        server.handle_run_dyn(ctx, RunDynCmd { token, accs: vec![rig.acc] });
        assert!(!server.db.lock().get(rig.acc).expect("acc").is_free(), "granted");
        (job, token)
    }

    #[test]
    fn dyn_ready_after_timeout_leaves_job_timed_out() {
        run_server(|server, ctx, rig| {
            let (job, token) = start_with_granted_acc(server, ctx, rig);
            let exit = JobExit { job, from: rig.cn, incarnation: 1, timed_out: true };
            server.handle_job_exit(ctx, exit);
            server.handle_dyn_ready(ctx, DynReady { job, token });
            let rec = &server.jobs[&job];
            assert_eq!(rec.state, JobState::TimedOut);
            assert!(rec.dyn_sets.is_empty());
            assert!(server.db.lock().get(rig.acc).expect("acc").is_free());
        });
    }

    #[test]
    fn dynget_of_a_terminal_job_is_rejected_without_queueing() {
        run_server(|server, ctx, rig| {
            let spec = JobSpec::synthetic("done", SimDuration::from_secs(10));
            server.finish_qsub(ctx, 1, spec, rig.reply);
            let job = JobId(1);
            server
                .finish_run_job(ctx, RunJobCmd { job, compute: vec![rig.cn], accs: vec![vec![]] });
            let exit = JobExit { job, from: rig.cn, incarnation: 1, timed_out: false };
            server.handle_job_exit(ctx, exit);
            let req = DynGetReq {
                token: 2,
                job,
                cn: rig.cn,
                count: 1,
                min_count: 1,
                kind: DynResource::Accelerators { class: DeviceClass::default() },
                reply: rig.reply,
            };
            server.handle_dynget(ctx, req);
            assert!(server.dyn_fifo.is_empty() && server.dyn_active.is_none(), "never queued");
            assert!(
                matches!(
                    server.ifl_seen.get(&2),
                    Some(Some((
                        _,
                        CachedResp::DynGet(DynGetResp { result: Err(DynReject::BadJob), .. })
                    )))
                ),
                "answered BadJob"
            );
            assert_eq!(server.jobs[&job].state, JobState::Complete);
            assert!(server.db.lock().get(rig.acc).expect("acc").is_free());
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "may not leave TimedOut")]
    fn leaving_a_terminal_state_trips_the_debug_check() {
        run_server(|server, ctx, rig| {
            let (job, _) = start_with_granted_acc(server, ctx, rig);
            let rec = server.jobs.get_mut(&job).expect("job");
            rec.set_state(JobState::TimedOut);
            rec.set_state(JobState::Running);
        });
    }
}
