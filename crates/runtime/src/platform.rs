//! Virtual platform description for the discrete-event simulator.
//!
//! The paper's experiments run on *Dancer*: 16 nodes × 8 cores (two Intel
//! Westmere-EP E5606 @ 2.13 GHz per node), Infiniband 10G, 1091 GFLOP/s
//! aggregate peak. This module describes such platforms — and anything less
//! uniform: a [`Platform`] is a list of per-node [`NodeSpec`]s (core count,
//! core speed, per-kernel-class efficiency) plus a [`Topology`] giving the
//! latency/bandwidth of every node pair. Two topologies are modeled:
//!
//! * [`Topology::Uniform`] — one [`LinkSpec`] for every pair (the paper's
//!   flat Infiniband fabric; what all the uniform constructors build);
//! * [`Topology::Hierarchical`] — nodes grouped into islands of
//!   `nodes_per_group`, a fast `intra` link inside a group and a slower
//!   `inter` link across groups (rack/switch hierarchies, multi-island
//!   clusters).
//!
//! Per-kernel-class [`Efficiency`] captures what a tuned BLAS achieves (a
//! GEMM runs much closer to peak than a pivoted panel factorization; that
//! asymmetry is the entire reason the paper prefers LU steps). Because it
//! lives in the [`NodeSpec`], a mixed cluster can model nodes that differ
//! not just in speed but in how well each kernel class runs on them.
//!
//! The degenerate case is load-bearing: a heterogeneous platform whose
//! [`NodeSpec`]s are identical and whose topology is [`Topology::Uniform`]
//! costs every task and transfer exactly like the pre-refactor homogeneous
//! model — pinned by the `dist_props` property tests.

use std::fmt;

use crate::graph::CostClass;

/// One node of a (possibly heterogeneous) cluster.
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

    /// Effective GEMM throughput (cores × speed × GEMM efficiency) — the
    /// weight the speed-aware data distribution keys on.
    pub fn gemm_gflops(&self) -> f64 {
        self.peak_gflops() * self.efficiency.gemm
    }

    /// Human-readable spec, e.g. `"8c @ 8.52 GF"` (Chrome-trace lane
    /// labels).
    pub fn label(&self) -> String {
        format!("{}c @ {} GF", self.cores, self.core_gflops)
    }
}

/// One directed network link: per-message latency and wire bandwidth.
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

/// The network shape: which [`LinkSpec`] connects each node pair.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// Every pair of distinct nodes shares one link spec (flat fabric).
    Uniform(LinkSpec),
    /// Nodes are grouped into islands of `nodes_per_group` consecutive
    /// ranks; pairs inside an island use `intra`, pairs across use `inter`.
    Hierarchical {
        intra: LinkSpec,
        inter: LinkSpec,
        nodes_per_group: usize,
        /// Shared inter-island trunk capacity, bytes per second. `None`
        /// models an uncontended backbone (every inter-island pair gets the
        /// full `inter` link); `Some(bw)` serializes all inter-island
        /// transfers on one trunk of finite bisection bandwidth, the way a
        /// single top-of-fabric switch would (see
        /// [`crate::comm::Network::send`]).
        backbone: Option<f64>,
    },
}

impl Topology {
    /// The link from `src` to `dst` (`src != dst`; a same-node "link" is
    /// free and infinitely fast, matching the cost model's never-send-local
    /// invariant).
    pub fn link(&self, src: usize, dst: usize) -> LinkSpec {
        if src == dst {
            return LinkSpec::new(0.0, f64::INFINITY);
        }
        match self {
            Topology::Uniform(l) => *l,
            Topology::Hierarchical {
                intra,
                inter,
                nodes_per_group,
                ..
            } => {
                if src / nodes_per_group == dst / nodes_per_group {
                    *intra
                } else {
                    *inter
                }
            }
        }
    }

    /// Islands-of-`nodes_per_group` topology with an uncontended backbone
    /// (the common case; set `backbone` explicitly — or via
    /// [`Platform::with_backbone`] — for a finite shared trunk).
    pub fn hierarchical(intra: LinkSpec, inter: LinkSpec, nodes_per_group: usize) -> Self {
        Topology::Hierarchical {
            intra,
            inter,
            nodes_per_group,
            backbone: None,
        }
    }

    /// The shared-trunk capacity charged to a `src → dst` transfer: the
    /// hierarchical backbone bandwidth when the pair crosses islands and a
    /// finite backbone is configured, `None` otherwise (uncontended).
    pub fn shared_trunk(&self, src: usize, dst: usize) -> Option<f64> {
        match self {
            Topology::Hierarchical {
                nodes_per_group,
                backbone: Some(bw),
                ..
            } if src / nodes_per_group != dst / nodes_per_group => Some(*bw),
            _ => None,
        }
    }

    /// The largest latency any link of the topology charges (what
    /// kernel-internal synchronization rounds are billed at).
    pub fn max_latency(&self) -> f64 {
        match self {
            Topology::Uniform(l) => l.latency,
            Topology::Hierarchical { intra, inter, .. } => intra.latency.max(inter.latency),
        }
    }
}

/// A cluster of multicore nodes: per-node specs plus a network topology.
///
/// The uniform constructors ([`Platform::dancer`], [`Platform::dancer_nodes`],
/// [`Platform::single_node`], [`Platform::uniform`]) build the degenerate
/// homogeneous case; [`Platform::heterogeneous`] takes an explicit spec list
/// and topology for mixed clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// One spec per node; node rank = index.
    pub specs: Vec<NodeSpec>,
    /// Network shape over those nodes.
    pub topology: Topology,
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
    /// A heterogeneous platform from explicit specs and topology.
    ///
    /// Panics if `specs` is empty, any node has zero cores or a zero core
    /// speed, or a link of `topology` is malformed.
    pub fn heterogeneous(specs: Vec<NodeSpec>, topology: Topology, mem_bandwidth: f64) -> Self {
        assert!(!specs.is_empty(), "platform needs at least one node");
        assert!(
            specs.iter().all(|s| s.cores >= 1),
            "every node needs at least one core"
        );
        assert!(
            specs
                .iter()
                .all(|s| s.core_gflops > 0.0 && s.core_gflops.is_finite()),
            "every node needs a positive, finite core speed"
        );
        validate_topology(&topology);
        Platform {
            specs,
            topology,
            mem_bandwidth,
        }
    }

    /// A homogeneous cluster: `nodes` copies of `spec` on a flat network.
    pub fn uniform(nodes: usize, spec: NodeSpec, link: LinkSpec, mem_bandwidth: f64) -> Self {
        Platform::heterogeneous(vec![spec; nodes], Topology::Uniform(link), mem_bandwidth)
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

    /// The reference *mixed* cluster of the heterogeneity studies (what
    /// `examples/cluster_hetero.rs`, `benches/hetero.rs`, and the parity
    /// tests all run against): one island of two Dancer nodes
    /// (8c @ 8.52 GF) and one island of two half-speed nodes
    /// (4c @ 4.26 GF), 20 Gbit/s intra-island links over a 10 Gbit/s
    /// backbone.
    pub fn mixed_islands() -> Self {
        Platform::heterogeneous(
            vec![
                NodeSpec::new(8, 8.52),
                NodeSpec::new(8, 8.52),
                NodeSpec::new(4, 4.26),
                NodeSpec::new(4, 4.26),
            ],
            Topology::hierarchical(LinkSpec::new(2e-6, 2.5e9), LinkSpec::new(1e-5, 1.25e9), 2),
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

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.specs.len()
    }

    /// The spec of one node.
    pub fn node(&self, node: usize) -> &NodeSpec {
        &self.specs[node]
    }

    /// Total cores across all nodes.
    pub fn total_cores(&self) -> usize {
        self.specs.iter().map(|s| s.cores).sum()
    }

    /// Aggregate peak GFLOP/s.
    pub fn peak_gflops(&self) -> f64 {
        self.specs.iter().map(|s| s.peak_gflops()).sum()
    }

    /// Effective per-node GEMM throughput — the weight vector for
    /// speed-aware (weighted block-cyclic) tile distribution.
    pub fn node_speeds(&self) -> Vec<f64> {
        self.specs.iter().map(|s| s.gemm_gflops()).collect()
    }

    /// `Ok(())` when the platform can host `required` nodes; the typed
    /// mismatch otherwise. Entry points validate with this instead of
    /// letting node indices run off the end of the core heaps.
    pub fn require_nodes(&self, required: usize) -> Result<(), NodeCountMismatch> {
        if required <= self.nodes() {
            Ok(())
        } else {
            Err(NodeCountMismatch {
                required,
                available: self.nodes(),
            })
        }
    }

    /// Seconds one task takes on one core of `node`.
    pub fn task_seconds(&self, node: usize, flops: f64, class: CostClass) -> f64 {
        let spec = &self.specs[node];
        match class {
            CostClass::Control => 0.0,
            // Memory tasks carry bytes in the `flops` field.
            CostClass::Memory => flops / self.mem_bandwidth,
            _ => {
                if flops <= 0.0 {
                    0.0
                } else {
                    flops / (spec.efficiency.of(class) * spec.core_gflops * 1e9)
                }
            }
        }
    }

    /// The link connecting `src` to `dst`.
    pub fn link(&self, src: usize, dst: usize) -> LinkSpec {
        self.topology.link(src, dst)
    }

    /// Seconds to move `bytes` from `src` to `dst` over their link.
    pub fn transfer_seconds(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        self.link(src, dst).transfer_seconds(bytes)
    }

    /// The latency one kernel-internal synchronization round costs (e.g.
    /// the per-column pivot all-reduce of a distributed LUPP panel): the
    /// worst link latency of the topology, since an all-reduce spans every
    /// participant.
    pub fn sync_latency(&self) -> f64 {
        self.topology.max_latency()
    }

    /// The single link of a [`Topology::Uniform`] platform. Panics on
    /// non-uniform topologies — callers reasoning about "the" latency or
    /// bandwidth only make sense on a flat fabric.
    pub fn uniform_link(&self) -> LinkSpec {
        match &self.topology {
            Topology::Uniform(l) => *l,
            t => panic!("uniform_link() on a non-uniform topology: {t:?}"),
        }
    }

    /// Replace the flat network's latency (uniform topologies only).
    pub fn with_latency(self, latency: f64) -> Self {
        let mut l = self.uniform_link();
        l.latency = latency;
        self.with_topology(Topology::Uniform(l))
    }

    /// Replace the flat network's bandwidth (uniform topologies only).
    pub fn with_bandwidth(self, bandwidth: f64) -> Self {
        let mut l = self.uniform_link();
        l.bandwidth = bandwidth;
        self.with_topology(Topology::Uniform(l))
    }

    /// Replace the topology (builder-style).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        validate_topology(&topology);
        self.topology = topology;
        self
    }

    /// Give a [`Topology::Hierarchical`] platform a finite shared backbone:
    /// all inter-island transfers serialize on one trunk of `bandwidth`
    /// bytes per second. Panics on non-hierarchical topologies (a flat
    /// fabric has no trunk to contend on) or a non-positive bandwidth.
    pub fn with_backbone(mut self, bandwidth: f64) -> Self {
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "backbone needs a positive, finite bandwidth (got {bandwidth})"
        );
        match &mut self.topology {
            Topology::Hierarchical { backbone, .. } => *backbone = Some(bandwidth),
            t => panic!("with_backbone() on a non-hierarchical topology: {t:?}"),
        }
        self
    }
}

/// Construction-time topology checks shared by [`Platform::heterogeneous`]
/// and [`Platform::with_topology`] — a malformed topology must fail here,
/// not as a divide-by-zero or infinite-makespan surprise mid-simulation.
fn validate_topology(topology: &Topology) {
    let check_link = |l: &LinkSpec, what: &str| {
        assert!(
            l.bandwidth > 0.0,
            "{what} link needs positive bandwidth (got {})",
            l.bandwidth
        );
        assert!(
            l.latency >= 0.0 && l.latency.is_finite(),
            "{what} link needs a finite, non-negative latency (got {})",
            l.latency
        );
    };
    match topology {
        Topology::Hierarchical {
            intra,
            inter,
            nodes_per_group,
            backbone,
        } => {
            assert!(*nodes_per_group >= 1, "groups need at least one node");
            check_link(intra, "the intra-group");
            check_link(inter, "the inter-group");
            if let Some(bw) = backbone {
                assert!(
                    *bw > 0.0 && bw.is_finite(),
                    "backbone needs a positive, finite bandwidth (got {bw})"
                );
            }
        }
        Topology::Uniform(l) => check_link(l, "the uniform"),
    }
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
        assert_eq!(p.nodes(), 16);
        assert_eq!(p.total_cores(), 128);
    }

    #[test]
    fn task_seconds_scales_with_efficiency() {
        let p = Platform::dancer();
        let g = p.task_seconds(0, 1e9, CostClass::Gemm);
        let f = p.task_seconds(0, 1e9, CostClass::PanelFactor);
        assert!(f > 2.0 * g, "panel must be much slower per flop than GEMM");
        assert_eq!(p.task_seconds(0, 1e9, CostClass::Control), 0.0);
    }

    #[test]
    fn memory_tasks_use_bytes() {
        let p = Platform::dancer();
        let s = p.task_seconds(0, 12e9, CostClass::Memory);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_includes_latency() {
        let p = Platform::dancer();
        assert!(p.transfer_seconds(0, 1, 0) >= 5e-6);
        let big = p.transfer_seconds(0, 1, 1_250_000_000);
        assert!((big - 1.0).abs() < 1e-3);
    }

    #[test]
    fn heterogeneous_nodes_cost_tasks_differently() {
        let fast = NodeSpec::new(8, 8.0);
        let slow = NodeSpec::new(4, 2.0);
        let p = Platform::heterogeneous(
            vec![fast, slow],
            Topology::Uniform(LinkSpec::new(1e-6, 1e9)),
            12e9,
        );
        let on_fast = p.task_seconds(0, 1e9, CostClass::Gemm);
        let on_slow = p.task_seconds(1, 1e9, CostClass::Gemm);
        assert!((on_slow / on_fast - 4.0).abs() < 1e-12, "4x speed ratio");
        assert_eq!(p.total_cores(), 12);
        assert!((p.peak_gflops() - 72.0).abs() < 1e-12);
        let speeds = p.node_speeds();
        assert!((speeds[0] / speeds[1] - 8.0).abs() < 1e-12, "8x gemm ratio");
    }

    #[test]
    fn hierarchical_topology_picks_links_by_group() {
        let intra = LinkSpec::new(1e-6, 10e9);
        let inter = LinkSpec::new(1e-5, 1e9);
        let t = Topology::hierarchical(intra, inter, 2);
        assert_eq!(t.link(0, 1), intra, "same island");
        assert_eq!(t.link(2, 3), intra, "same island");
        assert_eq!(t.link(1, 2), inter, "across islands");
        assert_eq!(t.link(0, 3), inter);
        assert_eq!(t.max_latency(), 1e-5);
    }

    #[test]
    fn same_node_link_is_free() {
        let p = Platform::dancer_nodes(2);
        let l = p.link(1, 1);
        assert_eq!(l.latency, 0.0);
        assert_eq!(l.transfer_seconds(1 << 30), 0.0);
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
        let l = p.uniform_link();
        assert_eq!(l.latency, 0.0);
        assert_eq!(l.bandwidth, 1e6);
        assert_eq!(p.sync_latency(), 0.0);
    }

    #[test]
    #[should_panic(expected = "groups need at least one node")]
    fn with_topology_rejects_empty_groups() {
        let _ = Platform::dancer_nodes(4).with_topology(Topology::hierarchical(
            LinkSpec::new(0.0, 1e9),
            LinkSpec::new(0.0, 1e9),
            0,
        ));
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
    fn mixed_islands_is_the_documented_fixture() {
        let p = Platform::mixed_islands();
        assert_eq!(p.nodes(), 4);
        assert_eq!(p.node(0).label(), "8c @ 8.52 GF");
        assert_eq!(p.node(2).label(), "4c @ 4.26 GF");
        let speeds = p.node_speeds();
        assert!((speeds[0] / speeds[2] - 4.0).abs() < 1e-12, "4x gemm ratio");
        assert_eq!(p.link(0, 1), LinkSpec::new(2e-6, 2.5e9));
        assert_eq!(p.link(1, 2), LinkSpec::new(1e-5, 1.25e9));
    }

    #[test]
    fn node_spec_label_reads_naturally() {
        assert_eq!(NodeSpec::new(4, 8.0).label(), "4c @ 8 GF");
        assert_eq!(NodeSpec::new(8, 8.52).label(), "8c @ 8.52 GF");
    }
}
