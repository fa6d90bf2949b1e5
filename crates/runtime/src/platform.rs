//! Virtual platform description for the discrete-event simulator.
//!
//! The paper's experiments run on *Dancer*: 16 nodes × 8 cores (two Intel
//! Westmere-EP E5606 @ 2.13 GHz per node), Infiniband 10G, 1091 GFLOP/s
//! aggregate peak — identical nodes on one flat fabric. A [`Platform`] is
//! exactly that shape: `nodes` copies of one [`NodeSpec`] (core count, core
//! speed, per-kernel-class efficiency) joined pairwise by one [`LinkSpec`]
//! (latency, bandwidth).
//!
//! Per-kernel-class [`Efficiency`] captures what a tuned BLAS achieves (a
//! GEMM runs much closer to peak than a pivoted panel factorization; that
//! asymmetry is the entire reason the paper prefers LU steps).

use std::fmt;

use crate::graph::CostClass;

/// One node of the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Cores on this node.
    pub cores: usize,
    /// Peak GFLOP/s of one core.
    pub core_gflops: f64,
    /// Fraction of core peak achieved per kernel class on this node.
    pub efficiency: Efficiency,
}

impl NodeSpec {
    /// A node with the default (Table-II-calibrated) efficiency profile.
    pub fn new(cores: usize, core_gflops: f64) -> Self {
        NodeSpec {
            cores,
            core_gflops,
            efficiency: Efficiency::default(),
        }
    }

    /// Aggregate peak GFLOP/s of the node.
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.core_gflops
    }

    /// Human-readable spec, e.g. `"8c @ 8.52 GF"` (Chrome-trace lane
    /// labels).
    pub fn label(&self) -> String {
        format!("{}c @ {} GF", self.cores, self.core_gflops)
    }
}

/// The network link between any two nodes: per-message latency and wire
/// bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Latency per message, seconds.
    pub latency: f64,
    /// Bandwidth, bytes per second.
    pub bandwidth: f64,
}

impl LinkSpec {
    pub fn new(latency: f64, bandwidth: f64) -> Self {
        LinkSpec { latency, bandwidth }
    }

    /// Seconds to move `bytes` over this link.
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// A cluster of identical multicore nodes on a flat network.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Number of nodes; node ranks are `0..nodes`.
    pub nodes: usize,
    /// The spec every node shares.
    pub node: NodeSpec,
    /// The link every pair of distinct nodes shares.
    pub link: LinkSpec,
    /// Node-local memory bandwidth, bytes per second (costs backup/restore).
    pub mem_bandwidth: f64,
}

/// A platform was asked to host more nodes than it has — the typed form of
/// what used to surface as a downstream index panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCountMismatch {
    /// Nodes the caller needs (e.g. a process grid's `p × q`).
    pub required: usize,
    /// Nodes the platform actually has.
    pub available: usize,
}

impl fmt::Display for NodeCountMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "platform has {} node(s) but {} are required",
            self.available, self.required
        )
    }
}

impl std::error::Error for NodeCountMismatch {}

/// Per-kernel-class fraction of peak floating-point throughput.
///
/// Defaults are calibrated on the paper's Table II: LU NoPiv reaches 77.8%
/// of peak (GEMM-dominated), HQR reaches 61.1% "true" flops, LUPP only 32%
/// (latency-bound panel), which the simulator reproduces with GEMM ≈ 0.9 of
/// peak and the panel/QR kernels markedly lower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Efficiency {
    pub gemm: f64,
    pub trsm: f64,
    pub panel_factor: f64,
    pub qr_factor: f64,
    pub qr_apply: f64,
    pub estimate: f64,
}

impl Default for Efficiency {
    fn default() -> Self {
        Efficiency {
            gemm: 0.90,
            trsm: 0.75,
            panel_factor: 0.35,
            qr_factor: 0.45,
            qr_apply: 0.65,
            estimate: 0.20,
        }
    }
}

impl Efficiency {
    /// Every class at exactly peak (test platforms with round numbers).
    pub fn flat() -> Self {
        Efficiency {
            gemm: 1.0,
            trsm: 1.0,
            panel_factor: 1.0,
            qr_factor: 1.0,
            qr_apply: 1.0,
            estimate: 1.0,
        }
    }

    pub fn of(&self, class: CostClass) -> f64 {
        match class {
            CostClass::Gemm => self.gemm,
            CostClass::Trsm => self.trsm,
            CostClass::PanelFactor => self.panel_factor,
            CostClass::QrFactor => self.qr_factor,
            CostClass::QrApply => self.qr_apply,
            CostClass::Estimate => self.estimate,
            CostClass::Memory | CostClass::Control => 1.0,
        }
    }
}

impl Platform {
    /// A cluster of `nodes` copies of `node` on a flat network.
    ///
    /// Panics on zero nodes or cores, and on any divisor of the cost model
    /// that is not positive and finite: the core speed, every efficiency
    /// class and the memory bandwidth (tasks divide by them), the link's
    /// bandwidth; the latency must be finite and non-negative.
    pub fn uniform(nodes: usize, node: NodeSpec, link: LinkSpec, mem_bandwidth: f64) -> Self {
        let positive = |x: f64| x > 0.0 && x.is_finite();
        assert!(nodes >= 1, "platform needs at least one node");
        assert!(node.cores >= 1, "every node needs at least one core");
        assert!(
            positive(node.core_gflops),
            "every node needs a positive, finite core speed"
        );
        let e = node.efficiency;
        assert!(
            [
                e.gemm,
                e.trsm,
                e.panel_factor,
                e.qr_factor,
                e.qr_apply,
                e.estimate
            ]
            .into_iter()
            .all(positive),
            "every efficiency class must be positive and finite: {e:?}"
        );
        assert!(
            positive(mem_bandwidth),
            "memory bandwidth must be positive and finite (got {mem_bandwidth})"
        );
        check_link(&link);
        Platform {
            nodes,
            node,
            link,
            mem_bandwidth,
        }
    }

    /// The paper's Dancer cluster in its default 4×4-grid configuration:
    /// 16 nodes × 8 cores @ 2.13 GHz ×4 flops/cycle = 8.52 GFLOP/s per core,
    /// 1091 GFLOP/s aggregate; IB 10G.
    pub fn dancer() -> Self {
        Platform::dancer_nodes(16)
    }

    /// Dancer restricted to `nodes` nodes (e.g. the paper's 16×1 grid runs).
    pub fn dancer_nodes(nodes: usize) -> Self {
        Platform::uniform(
            nodes,
            NodeSpec::new(8, 8.52),
            LinkSpec::new(5e-6, 1.25e9), // IB: 5 µs, 10 Gbit/s
            12e9,
        )
    }

    /// A single shared-memory node (laptop-scale sanity runs).
    pub fn single_node(cores: usize) -> Self {
        let dancer = NodeSpec::new(8, 8.52);
        Platform::uniform(
            1,
            NodeSpec { cores, ..dancer },
            LinkSpec::new(5e-6, 1.25e9),
            12e9,
        )
    }

    /// Total cores across all nodes.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.node.cores
    }

    /// Aggregate peak GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        self.nodes as f64 * self.node.peak_gflops()
    }

    /// `Ok(())` when the platform can host `required` nodes; the typed
    /// mismatch otherwise. Entry points validate with this instead of
    /// letting node indices run off the end of the core heaps.
    pub fn require_nodes(&self, required: usize) -> Result<(), NodeCountMismatch> {
        if required <= self.nodes {
            Ok(())
        } else {
            Err(NodeCountMismatch {
                required,
                available: self.nodes,
            })
        }
    }

    /// Seconds one task takes on one core.
    pub fn task_seconds(&self, flops: f64, class: CostClass) -> f64 {
        match class {
            CostClass::Control => 0.0,
            // Memory tasks carry bytes in the `flops` field.
            CostClass::Memory => flops / self.mem_bandwidth,
            _ => {
                if flops <= 0.0 {
                    0.0
                } else {
                    flops / (self.node.efficiency.of(class) * self.node.core_gflops * 1e9)
                }
            }
        }
    }

    /// Replace the link's latency.
    pub fn with_latency(mut self, latency: f64) -> Self {
        self.link.latency = latency;
        check_link(&self.link);
        self
    }

    /// Replace the link's bandwidth.
    pub fn with_bandwidth(mut self, bandwidth: f64) -> Self {
        self.link.bandwidth = bandwidth;
        check_link(&self.link);
        self
    }
}

/// Construction-time link check: a malformed link must fail here, not as a
/// divide-by-zero or infinite-makespan surprise mid-simulation.
fn check_link(l: &LinkSpec) {
    assert!(
        l.bandwidth > 0.0,
        "the link needs positive bandwidth (got {})",
        l.bandwidth
    );
    assert!(
        l.latency >= 0.0 && l.latency.is_finite(),
        "the link needs a finite, non-negative latency (got {})",
        l.latency
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dancer_matches_paper_peak() {
        let p = Platform::dancer();
        assert!(
            (p.peak_gflops() - 1090.56).abs() < 1.0,
            "{}",
            p.peak_gflops()
        );
        assert_eq!(p.nodes, 16);
        assert_eq!(p.total_cores(), 128);
    }

    #[test]
    fn task_seconds_scales_with_efficiency() {
        let p = Platform::dancer();
        let g = p.task_seconds(1e9, CostClass::Gemm);
        let f = p.task_seconds(1e9, CostClass::PanelFactor);
        assert!(f > 2.0 * g, "panel must be much slower per flop than GEMM");
        assert_eq!(p.task_seconds(1e9, CostClass::Control), 0.0);
    }

    #[test]
    fn memory_tasks_use_bytes() {
        let p = Platform::dancer();
        let s = p.task_seconds(12e9, CostClass::Memory);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_includes_latency() {
        let p = Platform::dancer();
        assert!(p.link.transfer_seconds(0) >= 5e-6);
        let big = p.link.transfer_seconds(1_250_000_000);
        assert!((big - 1.0).abs() < 1e-3);
    }

    #[test]
    fn require_nodes_reports_typed_mismatch() {
        let p = Platform::dancer_nodes(4);
        assert!(p.require_nodes(4).is_ok());
        let err = p.require_nodes(16).unwrap_err();
        assert_eq!(
            err,
            NodeCountMismatch {
                required: 16,
                available: 4
            }
        );
        assert!(err.to_string().contains("4 node(s)"));
        assert!(err.to_string().contains("16"));
    }

    #[test]
    fn uniform_builders_mutate_the_flat_link() {
        let p = Platform::dancer_nodes(2)
            .with_latency(0.0)
            .with_bandwidth(1e6);
        assert_eq!(p.link, LinkSpec::new(0.0, 1e6));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn single_node_rejects_zero_cores() {
        let _ = Platform::single_node(0);
    }

    #[test]
    #[should_panic(expected = "positive bandwidth")]
    fn zero_bandwidth_fails_at_construction() {
        let _ = Platform::dancer_nodes(2).with_bandwidth(0.0);
    }

    #[test]
    #[should_panic(expected = "positive, finite core speed")]
    fn zero_speed_fails_at_construction() {
        let _ = Platform::uniform(2, NodeSpec::new(8, 0.0), LinkSpec::new(0.0, 1e9), 1e9);
    }

    #[test]
    #[should_panic(expected = "memory bandwidth must be positive and finite")]
    fn zero_mem_bandwidth_fails_at_construction() {
        let _ = Platform::uniform(2, NodeSpec::new(8, 8.52), LinkSpec::new(5e-6, 1.25e9), 0.0);
    }

    #[test]
    #[should_panic(expected = "every efficiency class must be positive and finite")]
    fn zero_efficiency_class_fails_at_construction() {
        let node = NodeSpec {
            efficiency: Efficiency {
                qr_apply: 0.0,
                ..Efficiency::default()
            },
            ..NodeSpec::new(8, 8.52)
        };
        let _ = Platform::uniform(2, node, LinkSpec::new(5e-6, 1.25e9), 12e9);
    }

    #[test]
    fn node_spec_label_reads_naturally() {
        assert_eq!(NodeSpec::new(4, 8.0).label(), "4c @ 8 GF");
        assert_eq!(NodeSpec::new(8, 8.52).label(), "8c @ 8.52 GF");
    }
}
