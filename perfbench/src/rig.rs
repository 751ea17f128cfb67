//! The simulated cluster a workload runs on, in two wirings:
//!
//! - [`Rig::untraced`] is `Cluster::build`, the facade every user calls;
//! - [`Rig::traced`] wires the same cluster from the same public
//!   constructors, but wraps each daemon in a [`TimedActor`] that times
//!   its callbacks from outside.
//!
//! Workload code also times its own calls into the IFL client and the
//! `AcSession` front end through a [`Probe`]; an untraced probe reads
//! no clock.

use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use darms::{ClientCtx, Cluster, ClusterConfig};
use darms_dac::{DacRuntime, DacStarter, KernelRegistry};
use darms_mpi::MpiRuntime;
use darms_net::{Address, HostId, HostKind, Network};
use darms_rms::{mom_addr, sched_addr, server_addr, NodeDb, PbsMom, PbsServer, PseudoFs};
use darms_sched::MauiScheduler;
use darms_sim::{
    Actor, Ctx, Endpoint, Engine, Envelope, MetricsRegistry, Recorder, SimDuration, SimStats,
};

/// A layer whose host time the traced run attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `pbs_server` callbacks.
    Server,
    /// Maui scheduler callbacks.
    Sched,
    /// `pbs_mom` callbacks, summed over every host.
    Mom,
    /// Polls of the benchmark's `qsub`/`qstat` client futures.
    Ifl,
    /// Polls of the benchmark's `AcSession` call futures (including the
    /// MPI work they drive inline).
    Dac,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [Layer::Server, Layer::Sched, Layer::Mom, Layer::Ifl, Layer::Dac];

    /// Metric-name prefix of the layer.
    pub fn key(self) -> &'static str {
        match self {
            Layer::Server => "rms.server",
            Layer::Sched => "sched",
            Layer::Mom => "rms.mom",
            Layer::Ifl => "rms.ifl",
            Layer::Dac => "dac",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Calls and busy host nanoseconds per layer, accumulated in memory
/// during a traced run and read once it ends.
#[derive(Default)]
pub struct LayerClock {
    calls: [AtomicU64; 5],
    busy_ns: [AtomicU64; 5],
}

impl LayerClock {
    fn add(&self, layer: Layer, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Relaxed: plain statistics, read after the run has ended.
        self.calls[layer.index()].fetch_add(1, Ordering::Relaxed);
        self.busy_ns[layer.index()].fetch_add(ns, Ordering::Relaxed);
    }

    /// Timed calls into `layer` so far.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()].load(Ordering::Relaxed)
    }

    /// Host seconds spent inside `layer` so far.
    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.busy_ns[layer.index()].load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// Times calls into a layer when tracing, and does nothing otherwise.
#[derive(Clone, Default)]
pub struct Probe(Option<Arc<LayerClock>>);

impl Probe {
    /// Await `fut`, charging the host time of each of its polls to
    /// `layer`.
    pub async fn time<F: Future>(&self, layer: Layer, fut: F) -> F::Output {
        let Some(clock) = &self.0 else {
            return fut.await;
        };
        let mut fut = std::pin::pin!(fut);
        std::future::poll_fn(|cx| {
            // darms-lint: allow(nondet, reason = "host-time attribution of the traced benchmark run; never reaches the simulation")
            let t = Instant::now();
            let out = fut.as_mut().poll(cx);
            clock.add(layer, t);
            out
        })
        .await
    }

    /// Run `f`, charging its host time to `layer`.
    pub fn time_sync<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let Some(clock) = &self.0 else {
            return f();
        };
        // darms-lint: allow(nondet, reason = "host-time attribution of the traced benchmark run; never reaches the simulation")
        let t = Instant::now();
        let out = f();
        clock.add(layer, t);
        out
    }
}

/// A daemon whose callbacks are timed and charged to one layer.
struct TimedActor<A> {
    inner: A,
    layer: Layer,
    clock: Arc<LayerClock>,
}

impl<A: Actor + 'static> TimedActor<A> {
    fn boxed(inner: A, layer: Layer, clock: &Arc<LayerClock>) -> Box<dyn Actor> {
        Box::new(TimedActor { inner, layer, clock: clock.clone() })
    }
}

impl<A: Actor> Actor for TimedActor<A> {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        // darms-lint: allow(nondet, reason = "host-time attribution of the traced benchmark run; never reaches the simulation")
        let t = Instant::now();
        self.inner.on_message(ctx, env);
        self.clock.add(self.layer, t);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        // darms-lint: allow(nondet, reason = "host-time attribution of the traced benchmark run; never reaches the simulation")
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        self.clock.add(self.layer, t);
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // darms-lint: allow(nondet, reason = "host-time attribution of the traced benchmark run; never reaches the simulation")
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.clock.add(self.layer, t);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A wired cluster plus the handles workloads need to drive it.
pub struct Rig {
    /// The simulation engine.
    pub sim: Engine,
    /// The interconnect.
    pub net: Network,
    /// The shared pseudo-filesystem.
    pub fs: PseudoFs,
    /// The DAC runtime (job scripts open `AcSession`s on it).
    pub dac: DacRuntime,
    /// The engine's metrics registry.
    pub metrics: MetricsRegistry,
    /// The head node.
    pub head: HostId,
    /// How workload code times its calls.
    pub probe: Probe,
}

impl Rig {
    /// The cluster exactly as `Cluster::build` wires it.
    pub fn untraced(config: ClusterConfig) -> Rig {
        let Cluster { sim, net, fs, dac, metrics, head, .. } = Cluster::build(config);
        Rig { sim, net, fs, dac, metrics, head, probe: Probe::default() }
    }

    /// The same cluster, wired from the same public constructors in the
    /// same order, with every daemon timed into `clock`. Supports the
    /// configurations the workloads use: no DPU ranks, unsliced GPUs,
    /// no health monitor, no fault plan and no tracing.
    pub fn traced(config: ClusterConfig, clock: Arc<LayerClock>) -> Rig {
        assert!(
            config.fabric.dpu_ranks == 0
                && config.fabric.gpu_slices == 1
                && config.monitor.is_none()
                && config.fault.is_none()
                && !config.sim.trace,
            "traced wiring covers only the benchmark's cluster shape"
        );
        let mut sim = Engine::new(config.sim.clone());
        let net = Network::new(config.latency.clone(), config.sim.seed ^ 0x6e65_7477);
        let fs = PseudoFs::new();
        let recorder = Recorder::new();
        let metrics = sim.metrics();
        net.attach_metrics(metrics.clone());
        net.set_retry_policy(config.retry);

        let head = net.add_host("head", HostKind::Head);
        let compute: Vec<HostId> = (0..config.compute_nodes)
            .map(|i| net.add_host(format!("cn{i:02}"), HostKind::Compute))
            .collect();
        let accs: Vec<HostId> = (0..config.accelerators)
            .map(|i| net.add_host(format!("ac{i:02}"), HostKind::Accelerator))
            .collect();

        let mpi = MpiRuntime::new(net.clone(), config.mpi_cost.clone());
        let dac = DacRuntime::new(
            mpi,
            fs.clone(),
            config.dac_cost.clone(),
            KernelRegistry::with_builtins(),
            config.device,
        );

        let mut db = NodeDb::new();
        for &h in &compute {
            db.add_compute(h, config.cores_per_node);
        }
        for &h in &accs {
            db.add_accelerator(h);
        }

        let server = PbsServer::new(net.clone(), fs.clone(), head, config.rms_cost.clone(), db);
        let server_id = sim.add_actor(TimedActor::boxed(server, Layer::Server, &clock));
        net.bind(server_addr(head), Endpoint::Actor(server_id));

        let sched =
            MauiScheduler::new(net.clone(), head, config.sched.clone()).with_recorder(recorder);
        let sched_id = sim.add_actor(TimedActor::boxed(sched, Layer::Sched, &clock));
        net.bind(sched_addr(head), Endpoint::Actor(sched_id));

        let starter = Arc::new(DacStarter::new(dac.clone()));
        for &h in compute.iter().chain(accs.iter()) {
            let mom = PbsMom::new(
                net.clone(),
                fs.clone(),
                h,
                head,
                config.rms_cost.clone(),
                Some(starter.clone()),
            );
            let mom_id = sim.add_actor(TimedActor::boxed(mom, Layer::Mom, &clock));
            net.bind(mom_addr(h), Endpoint::Actor(mom_id));
        }

        Rig { sim, net, fs, dac, metrics, head, probe: Probe(Some(clock)) }
    }

    /// The server's address.
    pub fn server(&self) -> Address {
        server_addr(self.head)
    }

    /// Spawn a front-end client process on the head node after `delay`,
    /// as `Cluster::client_after` does.
    pub fn client_after<F, Fut>(&mut self, name: String, delay: SimDuration, f: F)
    where
        F: FnOnce(ClientCtx) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        let net = self.net.clone();
        let fs = self.fs.clone();
        let head = self.head;
        let server = self.server();
        self.sim.spawn_process_after(name, delay, move |proc| {
            f(ClientCtx { proc, net, fs, head, server })
        });
    }

    /// Run to quiescence; returns the engine statistics and the host
    /// seconds spent in the event loop.
    pub fn run(&mut self) -> (SimStats, f64) {
        // darms-lint: allow(nondet, reason = "benchmark wall-clock measurement; never reaches the simulation")
        let t = Instant::now();
        let stats = self.sim.run();
        (stats, t.elapsed().as_secs_f64())
    }
}
