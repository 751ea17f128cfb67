//! Golden-trace determinism guard.
//!
//! The files under `tests/golden/` pin complete seeded runs: every
//! structured trace event (virtual time, source, name, detail) in order,
//! plus the deterministic engine counters (events, context switches,
//! queue-depth profile, process counts). These tests assert the current
//! build reproduces them **byte-for-byte**. A change that moves protocol
//! timing re-records them; diffing old and new with the `t_ns` fields
//! stripped shows whether anything but timing moved.
//!
//! Regenerate deliberately with:
//!
//! ```text
//! DARMS_REGEN_GOLDEN=1 cargo test -p darms-experiments --test golden_trace
//! ```

use std::path::PathBuf;

use darms_experiments::golden;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compare `actual` against the checked-in golden file, or rewrite the
/// file when `DARMS_REGEN_GOLDEN` is set. On mismatch, report the first
/// differing line so the divergence is actionable.
fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("DARMS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with DARMS_REGEN_GOLDEN=1",
            path.display()
        )
    });
    if expected != actual {
        let mut exp_lines = expected.lines();
        let mut act_lines = actual.lines();
        let mut line_no = 1usize;
        loop {
            match (exp_lines.next(), act_lines.next()) {
                (Some(e), Some(a)) if e == a => line_no += 1,
                (e, a) => panic!(
                    "{name} diverged from the pre-refactor golden trace at line {line_no}:\n  \
                     expected: {}\n  actual:   {}",
                    e.unwrap_or("<end of golden file>"),
                    a.unwrap_or("<end of actual output>"),
                ),
            }
        }
    }
}

#[test]
fn fig8_trace_is_byte_identical_to_pre_refactor_runtime() {
    check("fig8_load16_seed3000.jsonl", &golden::fig8_golden());
}

#[test]
fn swf_replay_trace_is_byte_identical_to_pre_refactor_runtime() {
    check("swf_replay_jobs8_seed4242.jsonl", &golden::swf_replay_golden());
}

#[test]
fn chaos_seed7_trace_is_byte_identical() {
    // Captured when the fault-injection layer landed: pins the seeded
    // failure schedule and the retry/reclaim recovery behaviour.
    check("chaos_seed7.jsonl", &golden::chaos_golden());
}

#[test]
fn mixed_fabric_trace_is_byte_identical() {
    // Captured when the heterogeneous fabric landed: pins device
    // slicing, class-constrained placement and the fabric collectives
    // (multicast broadcast, rank-ordered gather).
    check("fabric_mixed_seed6400.jsonl", &golden::mixed_fabric_golden());
}
