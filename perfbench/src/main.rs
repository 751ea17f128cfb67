//! darms benchmark: runs one workload for a fixed host-time budget,
//! checks its outputs, and prints every metric by name, unit and
//! sample count. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dc_deep --seed 1 --seconds 25 --trace 0
//! ```
//!
//! A run cycles through a fixed number of independent simulations
//! (`Shape::periods`), each one period of the workload (a compressed day, or an hour) seeded from
//! `--seed`, until at least one cycle is done and `--seconds` have
//! passed. Simulated-time metrics pool the first cycle, so they are
//! identical for every run of a seed; host-time metrics are medians
//! over every simulation run. `--trace 0` reports the end-to-end
//! metrics from untraced runs; `--trace 1` alternates untraced and
//! traced runs and reports the per-layer metrics. See `README.md`.

mod hostspeed;
mod measure;
mod rig;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use measure::{fnv1a, median, quantile, run_once, Rep, SimOutcome};
use rig::{Layer, LayerClock};
use workload::Workload;

/// Times each repetition sets the cluster up (see [`run_once`]).
const SETUPS_PER_REP: usize = 5;

/// Samples a p99 must rest on before it is reported as one.
const MIN_P99_SAMPLES: usize = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|s| s.is_finite() && *s >= 0.0).ok_or("--seconds is required")?,
        trace,
    })
}

/// Seed of the `period`-th simulation of a run (splitmix64).
fn period_seed(seed: u64, period: usize) -> u64 {
    let mut z = seed.wrapping_add((period as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A series of per-simulation samples.
type Series = fn(&SimOutcome) -> &Vec<f64>;

/// One value per simulation.
type PerPeriod = fn(&SimOutcome) -> f64;

/// The first cycle of a run: one simulation of each period.
struct Cycle<'a>(Vec<&'a SimOutcome>);

impl<'a> Cycle<'a> {
    fn of(reps: &'a [Rep], periods: usize) -> Cycle<'a> {
        Cycle(reps[..periods].iter().map(|r| &r.sim).collect())
    }

    /// Every period's samples of one series, pooled.
    fn pooled(&self, f: Series) -> Vec<f64> {
        self.0.iter().flat_map(|s| f(s).iter().copied()).collect()
    }

    fn total(&self, f: impl Fn(&SimOutcome) -> u64) -> u64 {
        self.0.iter().map(|s| f(s)).sum()
    }

    /// Median over the periods of a per-period value.
    fn per_period(&self, f: impl Fn(&SimOutcome) -> f64) -> f64 {
        median(&self.0.iter().map(|s| f(s)).collect::<Vec<_>>())
    }

    /// Median over the periods of each period's `q`-quantile of a
    /// series: one congested period moves it no more than any other
    /// period does. `None` when no period has samples.
    fn per_period_quantile(&self, f: Series, q: f64) -> Option<f64> {
        let each: Vec<f64> = self.0.iter().filter_map(|s| quantile(f(s), q)).collect();
        (!each.is_empty()).then(|| median(&each))
    }

    fn counter(&self, name: &str) -> f64 {
        self.per_period(|s| s.counter(name) as f64)
    }

    fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self.0.iter().flat_map(|s| s.digest.to_le_bytes()).collect();
        fnv1a(&bytes)
    }

    /// End-to-end outcomes whose spread across seeds is wider than any
    /// regression bound allows: the tail of queueing near the knee, and
    /// refusals, which occur only under congestion (and never on
    /// `dc_wide`). Printed on every run and reported by the traced run
    /// without a bound.
    fn seed_volatile(&self) -> [(&'static str, Option<f64>, &'static str, usize); 2] {
        let q2s = self.pooled(|s| &s.qsub_to_start_s);
        let attempts = self.total(|s| s.acget_attempts);
        let refused = self.total(|s| s.acget_refused);
        [
            ("qsub_to_start_p99_s", quantile(&q2s, 0.99), "sim_s", q2s.len()),
            (
                "dyn_reject_ratio",
                (attempts > 0).then(|| refused as f64 / attempts as f64),
                "ratio",
                attempts as usize,
            ),
        ]
    }

    /// The simulated-behaviour lines every run prints.
    fn print(&self) {
        println!("# digest {:016x} (engine stats, job tables, registry counters)", self.digest());
        let (jobs, failed) = (self.total(|s| s.jobs), self.total(|s| s.failed_jobs));
        println!(
            "# jobs {jobs} failed {failed}: job_fail_ratio {}",
            failed as f64 / jobs.max(1) as f64
        );
        println!(
            "# AC_Get attempts {} granted {} refused {}; AC_Free {} vs rms.disjoin {}; \
             rms.dynjoin {}",
            self.total(|s| s.acget_attempts),
            self.total(|s| s.grant_latency_s.len() as u64),
            self.total(|s| s.acget_refused),
            self.total(|s| s.acfree_ok),
            self.total(|s| s.counter("rms.disjoin")),
            self.total(|s| s.counter("rms.dynjoin"))
        );
        let kernels = self.total(|s| s.kernels);
        if kernels > 0 {
            println!(
                "# readbacks equal to the host sum: {} of {kernels}",
                self.total(|s| s.readbacks_ok)
            );
        }
    }
}

/// What a run prints: the verdict and the metrics, in order.
#[derive(Default)]
struct Report {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Record a metric and print it with its unit and sample count. A
    /// value that is not a finite number fails the run.
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        println!("metric {name} = {value} {unit} (n={samples})");
        if value.is_finite() {
            self.metrics.push((name.to_string(), value, unit));
        } else {
            self.failures.push(format!("{name} is {value}"));
        }
    }

    /// A metric that may have no samples; a missing one fails the run.
    fn metric_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str, n: usize) {
        match value {
            Some(v) => self.metric(name, v, unit, n),
            None => self.failures.push(format!("{name}: no samples")),
        }
    }

    /// Fold in every repetition's correctness verdict and operation
    /// counts, and check that each reproduces the first repetition of
    /// its period.
    fn absorb(&mut self, reps: &[Rep], periods: usize) {
        for (i, rep) in reps.iter().enumerate() {
            let (sim, first) = (&rep.sim, &reps[i % periods].sim);
            self.failures.extend(sim.failures.iter().cloned());
            if sim.digest != first.digest {
                self.failures.push(format!(
                    "repetition {i}: digest {:016x} differs from {:016x} of the same seed",
                    sim.digest, first.digest
                ));
            }
            self.attempted += sim.jobs;
            self.failed += sim.failed_jobs;
        }
    }

    fn print_json(&self) {
        let correct = self.failures.is_empty();
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Seconds since `start`.
fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `VmHWM` of this process in MiB: its peak resident set so far.
fn peak_rss_mib() -> Option<f64> {
    // darms-lint: allow(nondet, reason = "peak-memory measurement of the benchmark process; never reaches the simulation")
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn describe(args: &Args) {
    let shape = args.workload.shape(false);
    // darms-lint: allow(nondet, reason = "host fingerprint printed with the results; never reaches the simulation")
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# host: cores={cores} rustc=\"{}\" profile={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    );
    println!(
        "# workload {} seed {}: {} compute nodes, {} accelerators, {} jobs per {} s period, \
         {} periods",
        args.workload.name(),
        args.seed,
        shape.compute,
        shape.accs,
        shape.jobs,
        shape.period.as_secs_f64(),
        shape.periods
    );
}

fn print_rep(label: &str, i: usize, period: usize, rep: &Rep) {
    println!(
        "# {label} {i} (period {}): setup {:.4} s, loop {:.4} s, probe {:.4} s, events {}, \
         digest {:016x}",
        period,
        median(&rep.setup_s),
        rep.loop_s,
        rep.probe_s,
        rep.sim.stats.events,
        rep.sim.digest
    );
}

/// `--trace 0`: cycle untraced runs until the budget is spent and
/// report the end-to-end metrics.
fn end_to_end(args: &Args) -> Report {
    // darms-lint: allow(nondet, reason = "benchmark wall-clock budget; never reaches the simulation")
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut peak_rss = None;
    let periods = args.workload.shape(false).periods;
    while reps.len() < periods || since(start) < args.seconds {
        let (i, period) = (reps.len(), reps.len() % periods);
        // The first repetition sets up once, so the high-water mark read
        // after it is that of one set-up and one run.
        let setups = if i == 0 { 1 } else { SETUPS_PER_REP };
        let rep = run_once(args.workload, false, period_seed(args.seed, period), setups, None);
        if i == 0 {
            peak_rss = peak_rss_mib();
        }
        print_rep("rep", i, period, &rep);
        reps.push(rep);
    }
    let mut r = Report::default();
    r.absorb(&reps, periods);
    let cycle = Cycle::of(&reps, periods);
    cycle.print();

    // Host times skip the first repetition: it pays the process's
    // first-touch costs, which no later repetition pays again.
    let warm = &reps[1..];
    let loops: Vec<f64> = warm.iter().map(|p| p.normalised(p.loop_s)).collect();
    r.metric("wall_s", median(&loops), "s", loops.len());
    let setups: Vec<f64> =
        warm.iter().flat_map(|p| p.setup_s.iter().map(|&s| p.normalised(s))).collect();
    r.metric("setup_s", median(&setups), "s", setups.len());
    let raw = |f: fn(&Rep) -> f64| median(&warm.iter().map(f).collect::<Vec<_>>());
    println!(
        "note raw medians: loop {} s, host-speed probe {} s (reference {} s)",
        raw(|p| p.loop_s),
        raw(|p| p.probe_s),
        hostspeed::REFERENCE_S
    );
    r.metric_opt("peak_rss_mib", peak_rss, "MiB", 1);
    let q2s = cycle.pooled(|s| &s.qsub_to_start_s);
    r.metric_opt("qsub_to_start_p50_s", quantile(&q2s, 0.50), "sim_s", q2s.len());
    let grants = cycle.pooled(|s| &s.grant_latency_s);
    r.metric_opt("dynget_p50_s", quantile(&grants, 0.50), "sim_s", grants.len());
    // The p99 is each period's p99, then the median over periods: near
    // the knee an occasional period congests so badly that it alone
    // would set a pooled p99 (the pooled value is printed below).
    if grants.len() >= MIN_P99_SAMPLES {
        let p99 = cycle.per_period_quantile(|s| &s.grant_latency_s, 0.99);
        r.metric_opt("dynget_p99_s", p99, "sim_s", grants.len());
    } else {
        let n = grants.len();
        println!("# dynget_p99_s not reported: {n} grants, fewer than {MIN_P99_SAMPLES}");
        r.failures.push(format!("dynget_p99_s rests on {n} grants"));
    }
    let per_period_grants = cycle.per_period(|s| s.grant_latency_s.len() as f64);
    println!(
        "note dynget_p99_pooled_s = {} sim_s (n={}; {per_period_grants} grants in the median \
         period)",
        quantile(&grants, 0.99).map_or("none".to_string(), |v| v.to_string()),
        grants.len()
    );
    r.metric("makespan_s", cycle.per_period(|s| s.makespan_s), "sim_s", periods);
    for (name, value, unit, n) in cycle.seed_volatile() {
        let v = value.map_or("none".to_string(), |v| v.to_string());
        println!("note {name} = {v} {unit} (n={n}; no bound, see README)");
    }
    r
}

/// Per-layer host time of one traced repetition, normalised to the
/// reference host like every host time the benchmark reports.
struct LayerTimes {
    calls: [u64; 5],
    busy_s: [f64; 5],
    loop_s: f64,
}

impl LayerTimes {
    fn residual_s(&self) -> f64 {
        self.loop_s - self.busy_s.iter().sum::<f64>()
    }
}

/// `--trace 1`: alternate untraced and traced runs of each period,
/// check that the traced wiring reproduces `Cluster::build`, and report
/// per-layer metrics.
fn per_layer(args: &Args) -> Report {
    // darms-lint: allow(nondet, reason = "benchmark wall-clock budget; never reaches the simulation")
    let start = Instant::now();
    let (mut plain, mut layers, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatch: Option<String> = None;
    let periods = args.workload.shape(false).periods;
    while plain.len() < periods || since(start) < args.seconds {
        let (i, period) = (plain.len(), plain.len() % periods);
        let seed = period_seed(args.seed, period);
        let traced_first = i % 2 == 1;
        for with_trace in [traced_first, !traced_first] {
            if with_trace {
                let clock = Arc::new(LayerClock::default());
                let rep = run_once(args.workload, false, seed, 1, Some(clock.clone()));
                print_rep("traced", i, period, &rep);
                layers.push(LayerTimes {
                    calls: Layer::ALL.map(|l| clock.calls(l)),
                    busy_s: Layer::ALL.map(|l| rep.normalised(clock.busy_s(l))),
                    loop_s: rep.normalised(rep.loop_s),
                });
                traced.push(rep.sim);
            } else {
                let rep = run_once(args.workload, false, seed, SETUPS_PER_REP, None);
                print_rep("untraced", i, period, &rep);
                plain.push(rep);
            }
        }
        let (p, t) = (&plain[i].sim, &traced[i]);
        if mismatch.is_none() && (p.stats != t.stats || p.table_digest != t.table_digest) {
            mismatch = Some(format!(
                "traced wiring diverged from Cluster::build in period {}: events {} vs {}, \
                 job table {:016x} vs {:016x}",
                period, t.stats.events, p.stats.events, t.table_digest, p.table_digest
            ));
        }
    }
    let mut r = Report::default();
    r.absorb(&plain, periods);
    r.failures.extend(traced.iter().flat_map(|t| t.failures.iter().cloned()));
    let cycle = Cycle::of(&plain, periods);
    cycle.print();
    // Host times skip the first pair, as `end_to_end` skips its first
    // repetition.
    let (warm, warm_layers) = (&plain[1..], &layers[1..]);
    let (np, nt) = (warm.len(), warm_layers.len());

    match &mismatch {
        Some(why) => {
            println!("# per-layer host times unavailable: {why}");
            r.failures.push(why.clone());
        }
        None => {
            println!("# layer        calls/period  busy_s/period   us/call");
            for (i, layer) in Layer::ALL.into_iter().enumerate() {
                let key = layer.key();
                let calls: Vec<f64> = layers[..periods].iter().map(|l| l.calls[i] as f64).collect();
                let calls = median(&calls);
                let busy = median(&warm_layers.iter().map(|l| l.busy_s[i]).collect::<Vec<_>>());
                let per_call: Vec<f64> = warm_layers
                    .iter()
                    .map(|l| l.busy_s[i] / l.calls[i].max(1) as f64 * 1e6)
                    .collect();
                let per_call = median(&per_call);
                println!("# {key:<12} {calls:>12} {busy:>14.4} {per_call:>9.3}");
                r.metric(&format!("{key}.calls"), calls, "count", periods);
                r.metric(&format!("{key}.busy_s"), busy, "s", nt);
                if matches!(layer, Layer::Server | Layer::Sched) {
                    r.metric(&format!("{key}.us_per_call"), per_call, "us", nt);
                }
            }
            let residual: Vec<f64> = warm_layers.iter().map(LayerTimes::residual_s).collect();
            r.metric("sim.residual_s", median(&residual), "s", nt);
            let loop_t = median(&warm_layers.iter().map(|l| l.loop_s).collect::<Vec<_>>());
            let loop_p = median(&warm.iter().map(|p| p.normalised(p.loop_s)).collect::<Vec<_>>());
            r.metric("sim.loop_s", loop_t, "s", nt);
            r.metric("trace.overhead", loop_t / loop_p, "ratio", nt.min(np));
            write_folded(args, warm_layers);
        }
    }

    let per_event: Vec<f64> = warm
        .iter()
        .map(|p| p.normalised(p.loop_s) / p.sim.stats.events.max(1) as f64 * 1e6)
        .collect();
    r.metric("sim.us_per_event", median(&per_event), "us", np);
    let stats: [(&str, PerPeriod); 5] = [
        ("sim.events", |s| s.stats.events as f64),
        ("sim.polls", |s| s.stats.context_switches as f64),
        ("sim.procs_spawned", |s| s.stats.processes_spawned as f64),
        ("sim.queue_depth_peak", |s| s.stats.peak_queue_depth as f64),
        ("sim.queue_depth_mean", |s| s.stats.mean_queue_depth()),
    ];
    for (name, f) in stats {
        r.metric(name, cycle.per_period(f), "count", periods);
    }
    let all = |f: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        warm.iter().flat_map(|p| f(p).iter().map(|&s| p.normalised(s))).collect()
    };
    let (build, gen) = (all(|p| &p.build_s), all(|p| &p.gen_s));
    r.metric("core.build_s", median(&build), "s", build.len());
    r.metric("workload.gen_s", median(&gen), "s", gen.len());

    for name in ["sched.iterations", "sched.backfill_hits"] {
        r.metric(name, cycle.counter(name), "count", periods);
    }
    let pooled: [(&str, Series, f64, &'static str); 5] = [
        ("sched.queue_depth_p99", |s| &s.sched_queue_depth, 0.99, "count"),
        ("sched.iteration_cost_p99_s", |s| &s.sched_iteration_cost_s, 0.99, "sim_s"),
        ("sched.dyn_wait_p99_s", |s| &s.sched_dyn_wait_s, 0.99, "sim_s"),
        ("rms.dyn_wait_p50_s", |s| &s.rms_dyn_wait_s, 0.50, "sim_s"),
        ("rms.dyn_wait_p99_s", |s| &s.rms_dyn_wait_s, 0.99, "sim_s"),
    ];
    for (name, f, q, unit) in pooled {
        let v = cycle.pooled(f);
        r.metric_opt(name, quantile(&v, q), unit, v.len());
    }
    for name in ["rms.dynjoin", "rms.disjoin", "rms.dyn_rejected"] {
        r.metric(name, cycle.counter(name), "count", periods);
    }
    let util = cycle.per_period(|s| s.acc_pool_util.unwrap_or(0.0));
    r.metric("rms.acc_pool_util", util, "ratio", periods);
    for (name, value, unit, n) in cycle.seed_volatile() {
        r.metric_opt(name, value, unit, n);
    }
    let dac: [(&str, PerPeriod, &'static str); 5] = [
        ("dac.acget_attempts", |s| s.acget_attempts as f64, "count"),
        ("dac.acget_granted", |s| s.counter("dac.acget_granted") as f64, "count"),
        ("dac.acget_rejected", |s| s.counter("dac.acget_rejected") as f64, "count"),
        ("dac.kernels", |s| s.kernels as f64, "count"),
        ("dac.offload_bytes", |s| s.offload_bytes as f64, "bytes"),
    ];
    for (name, f, unit) in dac {
        r.metric(name, cycle.per_period(f), unit, periods);
    }
    for (name, unit) in
        [("net.messages", "count"), ("net.bytes", "bytes"), ("net.dropped", "count")]
    {
        r.metric(name, cycle.counter(name), unit, periods);
    }
    r
}

/// Write the median per-period layer times as folded stacks
/// (`frame;frame microseconds`), which flame-graph renderers read.
fn write_folded(args: &Args, layers: &[LayerTimes]) {
    let name = args.workload.name();
    let us = |v: Vec<f64>| (median(&v).max(0.0) * 1e6).round();
    let mut text = String::new();
    for (i, layer) in Layer::ALL.into_iter().enumerate() {
        let busy = us(layers.iter().map(|l| l.busy_s[i]).collect());
        text.push_str(&format!("{name};{} {busy}\n", layer.key()));
    }
    let residual = us(layers.iter().map(LayerTimes::residual_s).collect());
    text.push_str(&format!("{name};residual {residual}\n"));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{name}-seed{}.folded", args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("# folded stacks written to {}", path.display()),
        Err(e) => println!("# folded stacks not written ({}): {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dc_deep|dc_wide|dyn_offload> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    describe(&args);
    let report = if args.trace { per_layer(&args) } else { end_to_end(&args) };
    report.print_json();
    ExitCode::SUCCESS
}
