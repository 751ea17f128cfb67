//! Whole-cluster configuration: topology plus every layer's cost model.

use darms_dac::{DacCostModel, DeviceProps};
use darms_mpi::MpiCostModel;
use darms_net::{FaultPlan, LatencyModel, RetryPolicy};
use darms_rms::{MonitorConfig, RmsCostModel};
use darms_sched::SchedConfig;
use darms_sim::SimConfig;

/// Heterogeneous-fabric topology: extra DPU-rank accelerator hosts and
/// device slicing (DESIGN.md §15). The default is inert — no DPU hosts,
/// unsliced GPUs — so pre-fabric configurations and their golden traces
/// are untouched.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Number of DPU-rank accelerator hosts, appended to the pool after
    /// the GPU-like accelerators (`du00`, `du01`, ...).
    pub dpu_ranks: usize,
    /// Slices each DPU-rank device is carved into.
    pub dpu_slices: u32,
    /// Slices each GPU-like device is carved into (1 = exclusive
    /// whole-device grants, the paper's behaviour).
    pub gpu_slices: u32,
    /// DPU-rank device parameters; `None` uses
    /// [`DeviceProps::dpu_rank`].
    pub dpu_device: Option<DeviceProps>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig { dpu_ranks: 0, dpu_slices: 1, gpu_slices: 1, dpu_device: None }
    }
}

/// Configuration of a simulated DAC cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of compute nodes (excluding the head node).
    pub compute_nodes: usize,
    /// Number of network-attached accelerators.
    pub accelerators: usize,
    /// Cores per compute node.
    pub cores_per_node: u32,
    /// Engine configuration (seed, horizon, tracing).
    pub sim: SimConfig,
    /// Interconnect model.
    pub latency: LatencyModel,
    /// MPI runtime costs.
    pub mpi_cost: MpiCostModel,
    /// Batch-system daemon costs.
    pub rms_cost: RmsCostModel,
    /// DAC stack costs.
    pub dac_cost: DacCostModel,
    /// Scheduler configuration.
    pub sched: SchedConfig,
    /// Accelerator device parameters.
    pub device: DeviceProps,
    /// Heterogeneous-fabric topology (DPU ranks, device slicing).
    pub fabric: FabricConfig,
    /// Run a node health monitor on the head node (fault tolerance).
    /// `None` (the default) keeps the cluster free of periodic traffic so
    /// idle simulations quiesce; enable it for failure scenarios together
    /// with a finite simulation horizon.
    pub monitor: Option<MonitorConfig>,
    /// Control-plane resend schedule. `None` (the default) sends every
    /// request once and waits for its answer without bound, with no
    /// retransmit ticks. Set it to survive an installed [`FaultPlan`];
    /// the protocol itself is the same either way.
    pub retry: Option<RetryPolicy>,
    /// Deterministic fault-injection plan installed on the network at
    /// build time. Combine with [`ClusterConfig::retry`]; faults without
    /// retries will wedge the control plane.
    pub fault: Option<FaultPlan>,
}

impl ClusterConfig {
    /// The paper's testbed shape: 8 hosts — 1 head node plus 7 hosts
    /// split between compute nodes and accelerators per scenario — with
    /// every cost model calibrated to the 2013 hardware/software stack
    /// (§IV). Use [`ClusterConfig::with_split`] to pick the split.
    pub fn paper_testbed(seed: u64) -> Self {
        ClusterConfig {
            compute_nodes: 1,
            accelerators: 6,
            cores_per_node: 8,
            sim: SimConfig { seed, ..Default::default() },
            latency: LatencyModel::paper_testbed(),
            mpi_cost: MpiCostModel::paper_testbed(),
            rms_cost: RmsCostModel::paper_testbed(),
            dac_cost: DacCostModel::paper_testbed(),
            sched: SchedConfig::paper_testbed(),
            device: DeviceProps::gpu_2013(),
            fabric: FabricConfig::default(),
            monitor: None,
            retry: None,
            fault: None,
        }
    }

    /// Near-zero protocol costs: logic-focused tests where virtual-time
    /// calibration does not matter.
    pub fn fast(seed: u64) -> Self {
        ClusterConfig {
            compute_nodes: 2,
            accelerators: 4,
            cores_per_node: 8,
            sim: SimConfig { seed, ..Default::default() },
            latency: LatencyModel::ideal(),
            mpi_cost: MpiCostModel::instant(),
            rms_cost: RmsCostModel::instant(),
            dac_cost: DacCostModel::instant(),
            sched: SchedConfig::instant(),
            device: DeviceProps::gpu_2013(),
            fabric: FabricConfig::default(),
            monitor: None,
            retry: None,
            fault: None,
        }
    }

    /// Builder: set the compute/accelerator split.
    pub fn with_split(mut self, compute: usize, accelerators: usize) -> Self {
        self.compute_nodes = compute;
        self.accelerators = accelerators;
        self
    }

    /// Builder: set the heterogeneous-fabric topology.
    pub fn with_fabric(mut self, fabric: FabricConfig) -> Self {
        self.fabric = fabric;
        self
    }

    /// Builder: set the scheduler configuration.
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Builder: enable event tracing.
    pub fn with_trace(mut self) -> Self {
        self.sim.trace = true;
        self
    }

    /// Builder: resend control-plane messages under a retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Builder: install a deterministic fault plan on the interconnect.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builder: enable the node health monitor and bound the simulation
    /// horizon (monitored clusters produce periodic traffic forever, so a
    /// finite horizon is required for `run()` to return).
    pub fn with_monitor(mut self, monitor: MonitorConfig, horizon: darms_sim::SimTime) -> Self {
        self.monitor = Some(monitor);
        self.sim.horizon = horizon;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_has_eight_hosts_total() {
        let c = ClusterConfig::paper_testbed(1);
        assert_eq!(1 + c.compute_nodes + c.accelerators, 8);
    }

    #[test]
    fn builders_chain() {
        let c = ClusterConfig::fast(1).with_split(3, 2).with_trace();
        assert_eq!(c.compute_nodes, 3);
        assert_eq!(c.accelerators, 2);
        assert!(c.sim.trace);
    }
}
