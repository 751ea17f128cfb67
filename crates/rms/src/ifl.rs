//! The Interface Library: blocking client calls into the server, usable
//! from any simulation process (front-end submitters and job tasks alike).
//!
//! Mirrors TORQUE's IFL plus the paper's two extensions, `pbs_dynget`
//! and `pbs_dynfree` (§III-B).

use std::sync::atomic::{AtomicU64, Ordering};

use darms_net::{Address, HostId, Network};
use darms_sim::{Envelope, Proc};

use crate::job::{ClientId, JobId, JobSpec, JobStatus};
use crate::proto::*;

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Wire size modelled for IFL requests.
const IFL_BYTES: u64 = 256;

fn fresh_token() -> u64 {
    NEXT_TOKEN.fetch_add(1, Ordering::Relaxed)
}

/// Why an IFL exchange failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IflError {
    /// Every attempt went unanswered, or the request could not be sent
    /// and there was no retry policy to try again. The server may or may
    /// not have acted on the request.
    Timeout,
}

/// Send `msg` from a process and wait for the first envelope matching
/// `is_reply`, resending on the schedule of the network's
/// [`darms_net::RetryPolicy`]: up to `max_attempts` sends, each awaited
/// for the capped exponential per-attempt timeout. With no policy there
/// is one send and an unbounded wait, as classic TORQUE clients block;
/// a send the network refuses then fails at once instead of waiting for
/// a reply that cannot come. Returns `None` once the attempts are spent.
pub(crate) async fn exchange<M: std::any::Any + Send + Clone>(
    p: &Proc,
    net: &Network,
    from: HostId,
    to: Address,
    msg: M,
    bytes: u64,
    is_reply: impl Fn(&Envelope) -> bool,
) -> Option<Envelope> {
    let policy = net.retry_policy();
    for attempt in 0..policy.map_or(1, |pol| pol.max_attempts.max(1)) {
        let sent = net.send_from_proc(p, from, to, msg.clone(), bytes).is_sent();
        let reply = match policy {
            Some(pol) => p.recv_where_timeout(&is_reply, pol.timeout_for(attempt)).await,
            None if sent => Some(p.recv_where(&is_reply).await),
            None => None,
        };
        if reply.is_some() {
            return reply;
        }
    }
    None
}

/// Generic blocking request/response exchange with the server.
///
/// The correlation token doubles as an idempotency key (the server caches
/// the reply to every completed token and re-answers duplicates without
/// re-executing), so retransmits are safe even for mutating verbs.
async fn call<Req, Resp>(
    p: &Proc,
    net: &Network,
    from: HostId,
    server: Address,
    build: impl Fn(u64, Address) -> Req,
    token_of: impl Fn(&Resp) -> u64,
) -> Result<Resp, IflError>
where
    Req: std::any::Any + Send + Clone,
    Resp: std::any::Any + Send,
{
    let token = fresh_token();
    let reply = net.bind_auto(from, p.endpoint());
    // Evict replies from earlier timed-out calls of this process so
    // mailboxes stay bounded under duplication.
    while p.try_recv_where(|e| e.peek::<Resp>().is_some()).is_some() {}
    let is_reply = |e: &Envelope| e.peek::<Resp>().is_some_and(|r| token_of(r) == token);
    let got = exchange(p, net, from, server, build(token, reply), IFL_BYTES, &is_reply).await;
    // Drop duplicate replies the fault layer may have delivered.
    while p.try_recv_where(&is_reply).is_some() {}
    net.unbind(reply);
    got.map(|env| env.downcast::<Resp>().expect("matched by predicate")).ok_or(IflError::Timeout)
}

/// Submit a job; returns its id once the server has enqueued it.
pub async fn qsub(p: &Proc, net: &Network, from: HostId, server: Address, spec: JobSpec) -> JobId {
    try_qsub(p, net, from, server, spec).await.expect("qsub: IFL retry budget exhausted")
}

/// Fallible [`qsub`]: surfaces retry-budget exhaustion instead of
/// panicking (for clients living on faulty links).
pub async fn try_qsub(
    p: &Proc,
    net: &Network,
    from: HostId,
    server: Address,
    spec: JobSpec,
) -> Result<JobId, IflError> {
    let resp: QsubResp = call(
        p,
        net,
        from,
        server,
        |token, reply| QsubReq { token, spec: spec.clone(), reply },
        |r: &QsubResp| r.token,
    )
    .await?;
    Ok(resp.job)
}

/// Query the status of all jobs.
pub async fn qstat(p: &Proc, net: &Network, from: HostId, server: Address) -> Vec<JobStatus> {
    try_qstat(p, net, from, server).await.expect("qstat: IFL retry budget exhausted")
}

/// Fallible [`qstat`].
pub async fn try_qstat(
    p: &Proc,
    net: &Network,
    from: HostId,
    server: Address,
) -> Result<Vec<JobStatus>, IflError> {
    let resp: QstatResp = call(
        p,
        net,
        from,
        server,
        |token, reply| QstatReq { token, reply },
        |r: &QstatResp| r.token,
    )
    .await?;
    Ok(resp.jobs)
}

/// Cancel a job; true if the server knew it and acted.
pub async fn qdel(p: &Proc, net: &Network, from: HostId, server: Address, job: JobId) -> bool {
    let resp: QdelResp = call(
        p,
        net,
        from,
        server,
        |token, reply| QdelReq { token, job, reply },
        |r: &QdelResp| r.token,
    )
    .await
    .expect("qdel: IFL retry budget exhausted");
    resp.ok
}

/// Hold a queued job (`qhold`): the scheduler skips it until released.
pub async fn qhold(p: &Proc, net: &Network, from: HostId, server: Address, job: JobId) -> bool {
    let resp: QholdResp = call(
        p,
        net,
        from,
        server,
        |token, reply| QholdReq { token, job, hold: true, reply },
        |r: &QholdResp| r.token,
    )
    .await
    .expect("qhold: IFL retry budget exhausted");
    resp.ok
}

/// Release a held job back into the queue (`qrls`).
pub async fn qrls(p: &Proc, net: &Network, from: HostId, server: Address, job: JobId) -> bool {
    let resp: QholdResp = call(
        p,
        net,
        from,
        server,
        |token, reply| QholdReq { token, job, hold: false, reply },
        |r: &QholdResp| r.token,
    )
    .await
    .expect("qrls: IFL retry budget exhausted");
    resp.ok
}

/// Request `count` additional network-attached accelerators for a running
/// job. Blocks until the batch system grants or rejects (the paper's
/// `pbs_dynget`). On rejection the application simply continues with its
/// current allocation.
pub async fn pbs_dynget(
    p: &Proc,
    net: &Network,
    from: HostId,
    server: Address,
    job: JobId,
    cn: HostId,
    count: u32,
) -> Result<DynGrant, DynReject> {
    pbs_dynget_range(p, net, from, server, job, cn, count, count).await
}

/// Dynamically request `count` additional **compute nodes** with `ppn`
/// cores each — the malleable-job generalisation the paper sketches in
/// §V (Cera et al.'s dynamic MPI). Same serial servicing and scheduling
/// path as accelerator requests.
#[allow(clippy::too_many_arguments)]
pub async fn pbs_dynget_nodes(
    p: &Proc,
    net: &Network,
    from: HostId,
    server: Address,
    job: JobId,
    cn: HostId,
    count: u32,
    ppn: u32,
) -> Result<DynGrant, DynReject> {
    let resp: Result<DynGetResp, IflError> = call(
        p,
        net,
        from,
        server,
        |token, reply| DynGetReq {
            token,
            job,
            cn,
            count,
            min_count: count,
            kind: DynResource::ComputeNodes { ppn },
            reply,
        },
        |r: &DynGetResp| r.token,
    )
    .await;
    match resp {
        Ok(r) => r.result,
        Err(IflError::Timeout) => Err(DynReject::Timeout),
    }
}

/// Like [`pbs_dynget`] but accepting any grant of at least `min_count`
/// accelerators (the partial-grant policy the paper lists as future
/// work, §VI). The scheduler grants `min(count, free)` when at least
/// `min_count` are free, and rejects otherwise.
#[allow(clippy::too_many_arguments)]
pub async fn pbs_dynget_range(
    p: &Proc,
    net: &Network,
    from: HostId,
    server: Address,
    job: JobId,
    cn: HostId,
    count: u32,
    min_count: u32,
) -> Result<DynGrant, DynReject> {
    let kind = DynResource::Accelerators { class: DeviceClass::GpuLike };
    pbs_dynget_kind(p, net, from, server, job, cn, count, min_count, kind).await
}

/// The general dynamic-request entry point: any [`DynResource`] kind —
/// whole accelerators of a device class, compute nodes, or accelerator
/// *slices* (the fabric extension, DESIGN.md §15).
#[allow(clippy::too_many_arguments)]
pub async fn pbs_dynget_kind(
    p: &Proc,
    net: &Network,
    from: HostId,
    server: Address,
    job: JobId,
    cn: HostId,
    count: u32,
    min_count: u32,
    kind: DynResource,
) -> Result<DynGrant, DynReject> {
    let resp: Result<DynGetResp, IflError> = call(
        p,
        net,
        from,
        server,
        |token, reply| DynGetReq { token, job, cn, count, min_count, kind, reply },
        |r: &DynGetResp| r.token,
    )
    .await;
    match resp {
        Ok(r) => r.result,
        Err(IflError::Timeout) => Err(DynReject::Timeout),
    }
}

/// Release a dynamically allocated accelerator set (the paper's
/// `pbs_dynfree`). Returns as soon as the server accepts; the
/// disassociation continues in the background.
pub async fn pbs_dynfree(
    p: &Proc,
    net: &Network,
    from: HostId,
    server: Address,
    job: JobId,
    client_id: ClientId,
) -> bool {
    let resp: Result<DynFreeResp, IflError> = call(
        p,
        net,
        from,
        server,
        |token, reply| DynFreeReq { token, job, client_id, reply },
        |r: &DynFreeResp| r.token,
    )
    .await;
    // Exhaustion maps to `false`: the release may or may not have been
    // applied; server-side reclamation on job exit covers the difference.
    resp.map(|r| r.ok).unwrap_or(false)
}
