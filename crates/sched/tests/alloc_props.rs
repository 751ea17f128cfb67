//! Free-pool index property test: the bucketed [`FreeTracker`] must
//! return exactly the host sets the retained linear-scan reference
//! returns, for both policies, across randomized take/give-back
//! sequences. Any divergence would silently change every scheduling
//! decision downstream, so this is the load-bearing gate on the index.

use darms_net::HostId;
use darms_rms::proto::{ClusterSnapshot, DeviceClass, NodeSnap, QueuedJobSnap};
use darms_rms::{JobId, NodeRole};
use darms_sched::alloc::reference::LinearFreeTracker;
use darms_sched::alloc::{AllocPolicy, FreeTracker};
use darms_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn h(i: usize) -> HostId {
    HostId::from_raw(i)
}

/// Node palette: (total cores, free cores) — mixes full, partial, empty.
const CORES: [(u32, u32); 6] = [(8, 8), (8, 4), (8, 0), (16, 16), (16, 3), (4, 4)];

/// Build a snapshot from per-node recipe bytes: low bits pick the core
/// palette / busy flag, one bit marks the node offline.
fn snapshot(computes: &[u8], accs: &[u8]) -> ClusterSnapshot {
    let mut nodes = Vec::new();
    for (i, &r) in computes.iter().enumerate() {
        let (total, free) = CORES[r as usize % CORES.len()];
        nodes.push(NodeSnap {
            host: h(i),
            role: NodeRole::Compute,
            cores_total: total,
            cores_free: free,
            offline: r & 0x40 != 0,
            class: DeviceClass::default(),
        });
    }
    for (j, &r) in accs.iter().enumerate() {
        let busy = r & 1 != 0;
        nodes.push(NodeSnap {
            host: h(computes.len() + j),
            role: NodeRole::Accelerator,
            cores_total: 1,
            cores_free: u32::from(!busy),
            offline: r & 0x40 != 0,
            class: DeviceClass::default(),
        });
    }
    ClusterSnapshot { nodes, queued: vec![], running: vec![], dyn_pending: None }
}

/// Sliceable-device palette: (slices total, slices free).
const SLICES: [(u32, u32); 6] = [(1, 1), (4, 4), (4, 2), (8, 8), (8, 5), (2, 0)];

fn class_of_recipe(r: u8) -> DeviceClass {
    if r & 0x2 != 0 {
        DeviceClass::DpuRankLike
    } else {
        DeviceClass::GpuLike
    }
}

/// Build an all-accelerator fabric snapshot from recipe bytes: palette
/// index, device class bit, offline bit.
fn fabric_snapshot(accs: &[u8]) -> ClusterSnapshot {
    let nodes = accs
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let (total, free) = SLICES[(r >> 2) as usize % SLICES.len()];
            NodeSnap {
                host: h(i),
                role: NodeRole::Accelerator,
                cores_total: total,
                cores_free: free,
                offline: r & 0x40 != 0,
                class: class_of_recipe(r),
            }
        })
        .collect();
    ClusterSnapshot { nodes, queued: vec![], running: vec![], dyn_pending: None }
}

fn job(nodes: usize, ppn: u32, acpn: u32) -> QueuedJobSnap {
    QueuedJobSnap {
        job: JobId(1),
        owner: "prop".into(),
        submitted: SimTime::ZERO,
        nodes,
        ppn,
        acpn,
        walltime_estimate: SimDuration::from_secs(60),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Apply the same randomized op sequence to the indexed tracker and
    /// the linear reference; every return value must be identical.
    #[test]
    fn indexed_tracker_matches_linear_reference(
        computes in prop::collection::vec(0u8..=0x7f, 1..24),
        accs in prop::collection::vec(0u8..=0x7f, 0..12),
        ops in prop::collection::vec((0u8..4, 1usize..5, 0u32..18, 0u8..2), 1..40),
    ) {
        let snap = snapshot(&computes, &accs);
        let mut fast = FreeTracker::from_snapshot(&snap);
        let mut slow = LinearFreeTracker::from_snapshot(&snap);
        prop_assert_eq!(fast.free_acc_count(), slow.free_acc_count());
        // History of grants, so give-back ops return plausible sets.
        let mut grants: Vec<(Vec<HostId>, u32, Vec<HostId>)> = Vec::new();
        for (op, k, ppn, pol) in ops {
            let policy = if pol == 0 { AllocPolicy::FirstFit } else { AllocPolicy::BestFit };
            match op {
                0 => {
                    let a = fast.take_compute(k, ppn, policy);
                    let b = slow.take_compute(k, ppn, policy);
                    prop_assert_eq!(&a, &b, "take_compute(k={}, ppn={}, {:?})", k, ppn, policy);
                    if let Some(hosts) = a {
                        grants.push((hosts, ppn, Vec::new()));
                    }
                }
                1 => {
                    let a = fast.take_accelerators(k);
                    let b = slow.take_accelerators(k);
                    prop_assert_eq!(&a, &b, "take_accelerators({})", k);
                    if let Some(hosts) = a {
                        grants.push((Vec::new(), 0, hosts));
                    }
                }
                2 => {
                    if !grants.is_empty() {
                        let (ch, gppn, ah) = grants.remove(k % grants.len());
                        fast.give_back(&ch, gppn, &ah);
                        slow.give_back(&ch, gppn, &ah);
                    }
                }
                _ => {
                    let q = job(k, ppn, u32::from(pol));
                    prop_assert_eq!(fast.fits(&q), slow.fits(&q));
                }
            }
            // Full-state agreement after every op.
            prop_assert_eq!(fast.free_acc_count(), slow.free_acc_count());
            for i in 0..computes.len() + accs.len() {
                prop_assert_eq!(fast.free_cores(h(i)), slow.free_cores(h(i)));
            }
        }
    }

    /// Per-class pools and slice accounting: the indexed tracker and the
    /// linear reference must agree on every class-constrained and
    /// unconstrained grant, slice grant (with exclusion), revoke, whole-
    /// device return, and offline/revive/re-class patch — the fabric
    /// extension of the invariant above. Mixing both grant kinds in one
    /// sequence checks the free pool's overall order and its per-class
    /// index against each other.
    #[test]
    fn class_and_slice_tracking_matches_linear_reference(
        accs in prop::collection::vec(0u8..=0x7f, 1..16),
        ops in prop::collection::vec((0u8..7, 1usize..4, 0usize..16, 0u8..2), 1..48),
    ) {
        let snap = fabric_snapshot(&accs);
        let mut fast = FreeTracker::from_snapshot(&snap);
        let mut slow = LinearFreeTracker::from_snapshot(&snap);
        // History of slice grants, so revokes return plausible sets; the
        // most recent grant doubles as the exclusion list (a job's own
        // footprint) for the next request.
        let mut slice_grants: Vec<Vec<HostId>> = Vec::new();
        // Unconstrained whole-device grants, returned whole by `give_back`.
        let mut device_grants: Vec<Vec<HostId>> = Vec::new();
        for (op, k, sel, cls) in ops {
            let class = if cls == 0 { DeviceClass::GpuLike } else { DeviceClass::DpuRankLike };
            match op {
                0 => {
                    let a = fast.take_accelerators_class(k, class);
                    let b = slow.take_accelerators_class(k, class);
                    prop_assert_eq!(&a, &b, "take_accelerators_class({}, {})", k, class);
                    if let Some(hosts) = a {
                        // Whole devices revoke slice-by-slice too (the
                        // server frees a job's holdings per host).
                        slice_grants.push(hosts);
                    }
                }
                1 => {
                    let exclude = slice_grants.last().cloned().unwrap_or_default();
                    let a = fast.take_slices(k, class, &exclude);
                    let b = slow.take_slices(k, class, &exclude);
                    prop_assert_eq!(&a, &b, "take_slices({}, {}, {:?})", k, class, &exclude);
                    if let Some(hosts) = a {
                        slice_grants.push(hosts);
                    }
                }
                2 => {
                    if !slice_grants.is_empty() {
                        let hosts = slice_grants.remove(sel % slice_grants.len());
                        fast.give_back_slices(&hosts);
                        slow.give_back_slices(&hosts);
                    }
                }
                3 => {
                    // An authoritative server patch: arbitrary free/total/
                    // offline overwrite for one accelerator host (covers
                    // offline, revive, and out-of-band allocation).
                    let host = h(sel % accs.len());
                    let (total, _) = SLICES[k % SLICES.len()];
                    let n = NodeSnap {
                        host,
                        role: NodeRole::Accelerator,
                        cores_total: total,
                        cores_free: (sel as u32) % (total + 1),
                        offline: sel & 0x1 != 0,
                        class,
                    };
                    fast.apply(&n);
                    slow.apply_acc(&n);
                }
                4 => {
                    let a = fast.take_accelerators(k);
                    let b = slow.take_accelerators(k);
                    prop_assert_eq!(&a, &b, "take_accelerators({})", k);
                    if let Some(hosts) = a {
                        device_grants.push(hosts);
                    }
                }
                5 => {
                    if !device_grants.is_empty() {
                        let hosts = device_grants.remove(sel % device_grants.len());
                        fast.give_back(&[], 0, &hosts);
                        slow.give_back(&[], 0, &hosts);
                    }
                }
                _ => {
                    prop_assert_eq!(
                        fast.free_slice_count(class, &[]),
                        slow.free_slice_count(class, &[])
                    );
                }
            }
            // Full-state agreement after every op.
            prop_assert_eq!(fast.free_acc_count(), slow.free_acc_count());
            for class in [DeviceClass::GpuLike, DeviceClass::DpuRankLike] {
                prop_assert_eq!(
                    fast.free_acc_count_class(class),
                    slow.free_acc_count_class(class)
                );
                prop_assert_eq!(
                    fast.free_slice_count(class, &[]),
                    slow.free_slice_count(class, &[])
                );
            }
            for i in 0..accs.len() {
                prop_assert_eq!(fast.free_slices_of(h(i)), slow.free_slices_of(h(i)));
            }
        }
    }
}
