//! Event-queue order property test: the kernel must deliver events in
//! `(time, seq)` order, so virtual time never runs backwards, events
//! scheduled for the same instant keep their scheduling order, and a
//! seed replays identically. Schedules are randomized and deliberately
//! include same-timestamp batches (duplicate delays and zero-delay
//! sends) and cancelled/re-armed timers.

use std::sync::Arc;

use darms_sim::{Actor, Ctx, Engine, Envelope, SimConfig, SimDuration};
use parking_lot::Mutex;
use proptest::prelude::*;

/// One scheduling op: `(action, delay_ns, token)`.
type Op = (u8, u64, u64);

/// Shared observation log: `(virtual time ns, tag)` in occurrence order.
type Log = Arc<Mutex<Vec<(u64, u32)>>>;

/// Driver actor: replays the op list at start, logs timer fires, and
/// answers each fire with a zero-delay send (a same-timestamp batch
/// with whatever else is pending at that instant).
struct Driver {
    ops: Vec<Op>,
    recorder: darms_sim::ProcessId,
    log: Log,
}

impl Actor for Driver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let recorder = self.recorder.into();
        for (i, &(action, delay, token)) in self.ops.iter().enumerate() {
            let d = SimDuration::from_nanos(delay);
            match action % 4 {
                0 => ctx.send(recorder, i as u32, d),
                1 => ctx.set_timer(d, token),
                2 => {
                    // Armed then immediately cancelled: must never fire
                    // (unless a later op re-arms the token).
                    ctx.set_timer(d, token);
                    ctx.cancel_timer(token);
                }
                _ => {
                    // Same-timestamp pair.
                    ctx.send(recorder, 1_000 + i as u32, d);
                    ctx.send(recorder, 2_000 + i as u32, d);
                }
            }
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _env: Envelope) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.log.lock().push((ctx.now().as_nanos(), 10_000 + token as u32));
        ctx.send(self.recorder.into(), 20_000 + token as u32, SimDuration::ZERO);
    }

    fn name(&self) -> &str {
        "driver"
    }
}

/// Run the scenario; returns the observation log plus the stats the run
/// produced (`SimStats` equality ignores wall time, so this compares
/// event counts, clock, switches, depths...).
fn run_scenario(ops: &[Op], seed: u64) -> (Vec<(u64, u32)>, darms_sim::SimStats) {
    let mut sim = Engine::new(SimConfig { seed, ..Default::default() });
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    let recorder = sim.spawn_process("recorder", move |p| async move {
        loop {
            let (v, _) = p.recv_as::<u32>().await;
            l.lock().push((p.now().as_nanos(), v));
        }
    });
    sim.add_actor(Box::new(Driver { ops: ops.to_vec(), recorder, log: log.clone() }));
    let stats = sim.run();
    let out = log.lock().clone();
    (out, stats)
}

/// Check one scenario: timestamps never decrease, every same-timestamp
/// pair arrives in send order, and a second run of the seed reproduces
/// the log and stats exactly.
fn check_order(ops: &[Op], seed: u64) -> Vec<(u64, u32)> {
    let (log, stats) = run_scenario(ops, seed);
    prop_assert!(log.windows(2).all(|w| w[0].0 <= w[1].0), "time ran backwards: {:?}", log);
    for (i, &(action, _, _)) in ops.iter().enumerate() {
        if action % 4 == 3 {
            let pos = |tag: u32| log.iter().position(|&(_, v)| v == tag);
            let (first, second) = (pos(1_000 + i as u32), pos(2_000 + i as u32));
            prop_assert!(first.is_some() && first < second, "pair {} out of order: {:?}", i, log);
        }
    }
    let (replay_log, replay_stats) = run_scenario(ops, seed);
    prop_assert_eq!(&log, &replay_log);
    prop_assert_eq!(stats, replay_stats);
    log
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// The observable history (every delivery and timer fire, with its
    /// virtual timestamp) is in time order and reproducible.
    #[test]
    fn queue_yields_time_order(
        ops in prop::collection::vec((0u8..4, 0u64..5_000, 0u64..6u64), 1..60),
        seed in 0u64..1_000,
    ) {
        let log = check_order(&ops, seed);
        // Sanity: non-degenerate scenarios actually observe something.
        if ops.iter().any(|&(a, _, _)| a % 4 != 2) {
            prop_assert!(!log.is_empty());
        }
    }

    /// Same property under wide time spreads and many duplicate
    /// timestamps (deep same-time batches).
    #[test]
    fn queue_yields_time_order_extremes(
        raw_ops in prop::collection::vec((0u8..4, 0usize..9, 0u64..6u64), 1..40),
        seed in 0u64..1_000,
    ) {
        // Delay palette skewed toward collisions (deep same-time
        // batches) and huge gaps.
        const DELAYS: [u64; 9] = [0, 1, 2, 1_000, 1_000, 1_000, 50_000, 10_000_000, 4_000_000_000];
        let ops: Vec<Op> =
            raw_ops.iter().map(|&(a, d, t)| (a, DELAYS[d], t)).collect();
        check_order(&ops, seed);
    }
}
