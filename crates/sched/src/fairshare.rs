//! Fairshare accounting: exponentially decayed per-user core-seconds,
//! in the spirit of Maui's fairshare component.

use std::collections::BTreeMap;

use darms_rms::proto::RunningJobSnap;
use darms_sim::{SimDuration, SimTime};

/// Decayed usage per owner.
#[derive(Clone, Debug)]
pub struct Fairshare {
    usage: BTreeMap<String, f64>,
    last_update: SimTime,
    half_life: SimDuration,
}

impl Fairshare {
    /// Create with the given decay half-life.
    pub fn new(half_life: SimDuration) -> Self {
        Fairshare { usage: BTreeMap::new(), last_update: SimTime::ZERO, half_life }
    }

    /// Decay all usage to `now` and accrue `cores × Δt` for every running
    /// job's owner, in the order given.
    pub fn update<'a>(
        &mut self,
        now: SimTime,
        running: impl IntoIterator<Item = &'a RunningJobSnap>,
    ) {
        let dt = (now - self.last_update).as_secs_f64();
        if dt > 0.0 {
            let hl = self.half_life.as_secs_f64().max(1e-9);
            let decay = 0.5f64.powf(dt / hl);
            for v in self.usage.values_mut() {
                *v *= decay;
            }
            for job in running {
                let cores = (job.compute_hosts.len() as f64) * job.ppn as f64;
                match self.usage.get_mut(job.owner.as_str()) {
                    Some(v) => *v += cores * dt,
                    None => {
                        self.usage.insert(job.owner.clone(), cores * dt);
                    }
                }
            }
            self.last_update = now;
        }
        self.usage.retain(|_, v| *v > 1e-9);
    }

    /// Current decayed usage of one owner.
    pub fn usage_of(&self, owner: &str) -> f64 {
        self.usage.get(owner).copied().unwrap_or(0.0)
    }

    /// Usage normalised to the heaviest user (0..=1); 0 when idle.
    pub fn normalised(&self, owner: &str) -> f64 {
        let max = self.usage.values().cloned().fold(0.0, f64::max);
        if max <= 0.0 {
            0.0
        } else {
            self.usage_of(owner) / max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darms_net::HostId;
    use darms_rms::JobId;

    fn running(owner: &str, nodes: usize, ppn: u32) -> RunningJobSnap {
        RunningJobSnap {
            job: JobId(1),
            owner: owner.into(),
            started: SimTime::ZERO,
            walltime_estimate: SimDuration::from_secs(100),
            compute_hosts: (0..nodes).map(HostId::from_raw).collect(),
            ppn,
            acc_hosts: vec![],
        }
    }

    #[test]
    fn usage_accrues_with_cores_and_time() {
        let mut fs = Fairshare::new(SimDuration::from_secs(3600));
        fs.update(SimTime::from_nanos(10_000_000_000), &[running("alice", 2, 4)]);
        // 8 cores for 10 seconds ~ 80 core-seconds (minus negligible decay)
        let u = fs.usage_of("alice");
        assert!(u > 75.0 && u <= 80.0, "usage {u}");
        assert_eq!(fs.usage_of("bob"), 0.0);
    }

    #[test]
    fn usage_decays_towards_zero() {
        let hl = SimDuration::from_secs(100);
        let mut fs = Fairshare::new(hl);
        fs.update(SimTime::from_nanos(10_000_000_000), &[running("alice", 1, 1)]);
        let before = fs.usage_of("alice");
        // One half-life later with no running jobs.
        fs.update(SimTime::from_nanos(110_000_000_000), &[]);
        let after = fs.usage_of("alice");
        assert!((after - before / 2.0).abs() < before * 0.05, "{before} -> {after}");
    }

    #[test]
    fn normalisation_is_relative_to_heaviest() {
        let mut fs = Fairshare::new(SimDuration::from_secs(3600));
        fs.update(
            SimTime::from_nanos(5_000_000_000),
            &[running("alice", 4, 4), running("bob", 1, 1)],
        );
        assert!((fs.normalised("alice") - 1.0).abs() < 1e-9);
        assert!(fs.normalised("bob") > 0.0 && fs.normalised("bob") < 0.1);
        assert_eq!(fs.normalised("carol"), 0.0);
    }

    #[test]
    fn idle_system_normalises_to_zero() {
        let fs = Fairshare::new(SimDuration::from_secs(10));
        assert_eq!(fs.normalised("nobody"), 0.0);
    }
}
