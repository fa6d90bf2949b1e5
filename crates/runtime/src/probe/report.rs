//! Makespan attribution: where did the time go?
//!
//! The virtual-time engine decomposes every core's timeline into four
//! exclusive buckets. For each executed task it knows three thresholds:
//!
//! * `d0` — when the task's inputs *finished being produced* (writer /
//!   WAR-reader finish times, no transfer cost at all);
//! * `d1` — when its inputs would have arrived over an *uncontended* link
//!   (`d0` plus the link's raw `transfer_seconds`, ignoring NIC
//!   serialization);
//! * `d2` — when the inputs *actually* arrived (the full comm model,
//!   with NIC egress queueing).
//!
//! `d0 <= d1 <= d2 <= start` by construction, so the gap between a
//! core's previous free time and the task's start splits cleanly:
//! waiting below `d0` is **idle** (nothing to run — scheduler- or
//! dependency-induced), `d0..d1` is **transfer** (the unavoidable price
//! of moving bytes), `d1..d2` is **contention** (queueing behind other
//! transfers on the sender's NIC), and the execution itself is
//! **compute**. Tail idle after a core's last task runs to the makespan.
//! Summed per node and divided by the core count, the four buckets
//! partition the node's wall clock
//! exactly: `compute + transfer + contention + idle == makespan` to
//! floating-point roundoff (the reconciliation the acceptance tests
//! assert at 1e-9).

use crate::probe::ProbeSnapshot;

/// Core-seconds (or wall-seconds, once normalized) split into the four
/// attribution buckets.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttribBuckets {
    /// Time executing kernels.
    pub compute: f64,
    /// Time waiting on uncontended data movement.
    pub transfer: f64,
    /// Extra wait from NIC egress queueing: the sender's NIC was busy
    /// with earlier messages.
    pub contention: f64,
    /// Time with no runnable work (dependency / scheduler idle).
    pub idle: f64,
}

impl AttribBuckets {
    /// Sum of the four buckets.
    pub fn total(&self) -> f64 {
        self.compute + self.transfer + self.contention + self.idle
    }

    pub(crate) fn add(&mut self, other: &AttribBuckets) {
        self.compute += other.compute;
        self.transfer += other.transfer;
        self.contention += other.contention;
        self.idle += other.idle;
    }

    pub(crate) fn scale(&self, s: f64) -> AttribBuckets {
        AttribBuckets {
            compute: self.compute * s,
            transfer: self.transfer * s,
            contention: self.contention * s,
            idle: self.idle * s,
        }
    }
}

/// The makespan-attribution pass over one simulated or streamed run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attribution {
    /// Per-node wall-seconds (core-seconds normalized by the node's core
    /// count): each entry's [`AttribBuckets::total`] equals
    /// [`Attribution::makespan`] up to roundoff.
    pub nodes: Vec<AttribBuckets>,
    /// Per-elimination-step **core-seconds**, across all nodes. Tasks
    /// whose name carries no `k=` step tag land under `None`. Tail idle
    /// after the last task of a core belongs to no step, so step totals
    /// cover the busy+stalled portion of the run, not the full makespan.
    pub steps: Vec<(Option<usize>, AttribBuckets)>,
    /// The run's simulated makespan in seconds.
    pub makespan: f64,
}

impl Attribution {
    /// Whole-run buckets in core-seconds (per-node wall buckets weighted
    /// back by core count).
    pub fn total_core_seconds(&self, cores_per_node: &[usize]) -> AttribBuckets {
        let mut total = AttribBuckets::default();
        for (node, buckets) in self.nodes.iter().enumerate() {
            let cores = cores_per_node.get(node).copied().unwrap_or(1) as f64;
            total.add(&buckets.scale(cores));
        }
        total
    }

    /// Largest per-node deviation `|total() - makespan|`, the quantity
    /// the 1e-9 reconciliation bound is asserted on.
    pub fn max_reconciliation_error(&self) -> f64 {
        self.nodes
            .iter()
            .map(|b| (b.total() - self.makespan).abs())
            .fold(0.0, f64::max)
    }
}

/// Everything a probed run produced: the raw metric snapshot plus the
/// makespan attribution (when an attribution-capable engine ran).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProbeReport {
    /// The makespan-attribution pass, if the run went through the
    /// virtual-time engine with probes enabled.
    pub attribution: Option<Attribution>,
    /// Counters, gauges, and histograms recorded during the run.
    pub snapshot: ProbeSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_total_and_scale() {
        let b = AttribBuckets {
            compute: 1.0,
            transfer: 0.5,
            contention: 0.25,
            idle: 0.25,
        };
        assert_eq!(b.total(), 2.0);
        let s = b.scale(4.0);
        assert_eq!(s.compute, 4.0);
        assert_eq!(s.total(), 8.0);
    }

    #[test]
    fn reconciliation_error_is_the_worst_node() {
        let att = Attribution {
            nodes: vec![
                AttribBuckets {
                    compute: 1.0,
                    idle: 1.0,
                    ..Default::default()
                },
                AttribBuckets {
                    compute: 1.5,
                    idle: 0.5 + 1e-3,
                    ..Default::default()
                },
            ],
            steps: Vec::new(),
            makespan: 2.0,
        };
        assert!((att.max_reconciliation_error() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn total_core_seconds_weights_by_cores() {
        let att = Attribution {
            nodes: vec![
                AttribBuckets {
                    compute: 2.0,
                    ..Default::default()
                },
                AttribBuckets {
                    compute: 1.0,
                    ..Default::default()
                },
            ],
            steps: Vec::new(),
            makespan: 2.0,
        };
        let total = att.total_core_seconds(&[4, 2]);
        assert_eq!(total.compute, 10.0);
    }
}
