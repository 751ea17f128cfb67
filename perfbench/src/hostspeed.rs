//! A fixed probe of how fast the host runs right now.
//!
//! Shared hosts slow down by tens of percent for minutes at a time when
//! neighbours are busy, which no median over one run can remove. The
//! probe is a fixed amount of work of the same kind the event loop does
//! (heap push/pop, ordered-map updates, small allocations), written here
//! and not in the simulator, so a change to the simulator cannot move
//! it. Host times are divided by the probe time measured next to them
//! and scaled to [`REFERENCE_S`], which makes them comparable across
//! runs taken minutes apart.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Probe time on the reference host (2-core VM, rustc 1.95, release
/// profile) in a quiet phase. Only a unit: it scales normalised times
/// back to seconds and never changes once published.
pub const REFERENCE_S: f64 = 0.025;

/// Host seconds the probe takes now.
pub fn probe_s() -> f64 {
    // darms-lint: allow(nondet, reason = "host-speed probe; never reaches the simulation")
    let t = Instant::now();
    black_box(work(black_box(0x5eed)));
    t.elapsed().as_secs_f64()
}

/// The fixed work: a timer-heap and an ordered map driven by a
/// xorshift stream, with a boxed payload per entry.
fn work(seed: u64) -> u64 {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::new();
    let mut map: BTreeMap<u64, Box<[u64; 4]>> = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        let k = next();
        heap.push(std::cmp::Reverse((k >> 16, i)));
        map.insert(k % 50_000, Box::new([k, i, acc, 0]));
        if i % 2 == 1 {
            let std::cmp::Reverse((t, j)) = heap.pop().expect("pushed twice per pop");
            acc = acc.wrapping_add(t ^ j);
            if let Some(v) = map.remove(&(next() % 50_000)) {
                acc = acc.wrapping_add(v[0]);
            }
        }
    }
    acc ^ heap.len() as u64 ^ map.len() as u64
}
