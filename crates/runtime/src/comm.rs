//! Platform communication model, shared by the batch simulator and the
//! distributed streaming window.
//!
//! The paper's runtime moves a tile across the network once per destination
//! node (consumers on that node then hit the local cache), serializes
//! egress on the sender's NIC, and charges `latency + bytes/bandwidth` per
//! message. That cost model used to live inline in [`crate::sim::simulate`];
//! it is factored out here so the replay and the distributed window share
//! one definition of a message, the window accounting its protocol
//! traffic — [`DataMsg`] tile transfers, [`DecisionMsg`] broadcasts of the
//! hybrid's LU-vs-QR criterion decision from the panel-owner node, and
//! [`RetireMsg`] per-node step-completion reports — through one chokepoint.

use std::collections::BTreeMap;

use crate::graph::{DataClass, DataKey, TaskId};
use crate::platform::Platform;

/// A tile (or any payload datum) crossing a node boundary: sent once per
/// destination node per produced version, regardless of how many tasks
/// there consume it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataMsg {
    pub key: DataKey,
    /// Producing task, or `None` for an initial tile fetched from its home.
    pub producer: Option<TaskId>,
    pub from: usize,
    pub to: usize,
    pub bytes: usize,
}

/// The hybrid's per-step LU/QR decision, computed on the panel-owner node
/// and broadcast to every node hosting tasks of the chosen branch (the
/// paper's dynamic task-graph propagation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionMsg {
    /// The decision datum (step-indexed; see the algorithm layer's key
    /// encoding).
    pub key: DataKey,
    pub from: usize,
    pub to: usize,
    pub bytes: usize,
}

/// A node reporting its share of an elimination step fully drained, so the
/// planner can retire the step and reclaim window capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetireMsg {
    pub step: usize,
    pub node: usize,
}

/// One message of the distributed streaming protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Msg {
    Data(DataMsg),
    Decision(DecisionMsg),
    Retire(RetireMsg),
}

/// Build the protocol message for one cross-node data dependency, keyed by
/// the datum's declared class.
pub fn flow_msg(
    key: DataKey,
    class: DataClass,
    producer: Option<TaskId>,
    from: usize,
    to: usize,
    bytes: usize,
) -> Msg {
    match class {
        DataClass::Decision => Msg::Decision(DecisionMsg {
            key,
            from,
            to,
            bytes,
        }),
        DataClass::Payload => Msg::Data(DataMsg {
            key,
            producer,
            from,
            to,
            bytes,
        }),
    }
}

/// Message counters of one distributed streaming run.
///
/// `data_msgs + decision_msgs` equals the discrete-event simulator's
/// message count for the same run (both count payload-bearing transfers,
/// deduplicated per destination node); `retire_msgs` is pure protocol
/// overhead with no payload, so the simulator does not cost it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MsgStats {
    /// Tile / T-factor / backup transfers.
    pub data_msgs: u64,
    /// Criterion-decision broadcasts.
    pub decision_msgs: u64,
    /// Per-node step-retirement reports.
    pub retire_msgs: u64,
    /// Payload bytes moved (data + decision messages).
    pub bytes: u64,
}

impl MsgStats {
    /// Fold one routed message into the counters.
    pub fn record(&mut self, msg: &Msg) {
        match msg {
            Msg::Data(m) => {
                self.data_msgs += 1;
                self.bytes += m.bytes as u64;
            }
            Msg::Decision(m) => {
                self.decision_msgs += 1;
                self.bytes += m.bytes as u64;
            }
            Msg::Retire(_) => self.retire_msgs += 1,
        }
    }

    /// Messages that move payload over the network (what the simulator
    /// counts as `messages`).
    pub fn payload_msgs(&self) -> u64 {
        self.data_msgs + self.decision_msgs
    }
}

/// Aggregate payload traffic of one directed `(src, dst)` link, as costed
/// by the simulator's network model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTraffic {
    pub src: usize,
    pub dst: usize,
    /// Payload messages sent over this link.
    pub messages: u64,
    /// Payload bytes moved over this link.
    pub bytes: u64,
}

/// Per-link protocol counters of one distributed streaming run: the
/// [`MsgStats`] breakdown (data / decision / retire, by kind) restricted
/// to one directed `(src, dst)` pair. Retire reports flow to the planner
/// node, so they appear on `(node, 0)` links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkMsgStats {
    pub src: usize,
    pub dst: usize,
    pub msgs: MsgStats,
}

/// Sender-side network state: one egress NIC per node, serialized.
///
/// Wire time is `bytes / bandwidth` of the platform's link; a message
/// arrives the link's `latency` after its wire time completes. Messages
/// from one node queue on that node's NIC in the order they are issued,
/// whatever their destinations — egress is the shared resource, the
/// fabric itself is not.
#[derive(Debug, Clone)]
pub struct Network {
    /// Earliest next free egress slot per node.
    nic_free: Vec<f64>,
    /// Payload messages sent.
    pub messages: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Per-(src, dst) (messages, bytes) tallies. A `BTreeMap` so exports
    /// iterate in deterministic link order on every engine path.
    links: BTreeMap<(usize, usize), (u64, u64)>,
}

impl Network {
    pub fn new(nodes: usize) -> Self {
        Network {
            nic_free: vec![0.0; nodes],
            messages: 0,
            bytes: 0,
            links: BTreeMap::new(),
        }
    }

    /// Send `nbytes` from `from` to `to` (distinct nodes) at `ready` (or
    /// later, once `from`'s NIC is free); returns the arrival time at the
    /// destination.
    pub fn send(
        &mut self,
        platform: &Platform,
        from: usize,
        to: usize,
        ready: f64,
        nbytes: usize,
    ) -> f64 {
        let link = platform.link;
        self.messages += 1;
        self.bytes += nbytes as u64;
        let tally = self.links.entry((from, to)).or_insert((0, 0));
        tally.0 += 1;
        tally.1 += nbytes as u64;
        let start = ready.max(self.nic_free[from]);
        let wire = nbytes as f64 / link.bandwidth;
        self.nic_free[from] = start + wire;
        start + link.latency + wire
    }

    /// Per-link payload traffic so far, in `(src, dst)` order.
    pub fn link_traffic(&self) -> Vec<LinkTraffic> {
        self.links
            .iter()
            .map(|(&(src, dst), &(messages, bytes))| LinkTraffic {
                src,
                dst,
                messages,
                bytes,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform(latency: f64, bandwidth: f64) -> Platform {
        Platform::dancer_nodes(4)
            .with_latency(latency)
            .with_bandwidth(bandwidth)
    }

    #[test]
    fn send_charges_latency_plus_wire() {
        let p = platform(0.5, 100.0);
        let mut net = Network::new(4);
        let arrival = net.send(&p, 0, 1, 1.0, 200);
        // start 1.0 + latency 0.5 + wire 2.0
        assert!((arrival - 3.5).abs() < 1e-12);
        assert_eq!(net.messages, 1);
        assert_eq!(net.bytes, 200);
    }

    #[test]
    fn zero_latency_degenerates_to_pure_bandwidth() {
        let p = platform(0.0, 1000.0);
        let mut net = Network::new(4);
        let a1 = net.send(&p, 0, 1, 0.0, 500);
        assert!((a1 - 0.5).abs() < 1e-12, "arrival must be bytes/bandwidth");
        // Second message queues behind the first on the same NIC.
        let a2 = net.send(&p, 0, 2, 0.0, 500);
        assert!((a2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nic_serializes_same_sender_but_not_distinct_senders() {
        let p = platform(0.0, 100.0);
        let mut net = Network::new(4);
        let a = net.send(&p, 0, 2, 0.0, 100); // wire 1s
        let b = net.send(&p, 0, 3, 0.0, 100); // queues on node 0's NIC
        let c = net.send(&p, 1, 2, 0.0, 100); // different NIC: no queueing
        assert!((a - 1.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
        assert!((c - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_classify_messages() {
        let mut s = MsgStats::default();
        s.record(&Msg::Data(DataMsg {
            key: DataKey(1),
            producer: Some(3),
            from: 0,
            to: 1,
            bytes: 64,
        }));
        s.record(&Msg::Decision(DecisionMsg {
            key: DataKey(2),
            from: 0,
            to: 2,
            bytes: 8,
        }));
        s.record(&Msg::Retire(RetireMsg { step: 0, node: 1 }));
        assert_eq!(s.data_msgs, 1);
        assert_eq!(s.decision_msgs, 1);
        assert_eq!(s.retire_msgs, 1);
        assert_eq!(s.bytes, 72);
        assert_eq!(s.payload_msgs(), 2);
    }

    #[test]
    fn per_link_tallies() {
        let p = platform(0.0, 100.0);
        let mut net = Network::new(4);
        net.send(&p, 0, 1, 0.0, 100);
        net.send(&p, 0, 1, 0.0, 50);
        net.send(&p, 1, 2, 0.0, 25);
        let links = net.link_traffic();
        assert_eq!(links.len(), 2);
        assert_eq!(
            links[0],
            LinkTraffic {
                src: 0,
                dst: 1,
                messages: 2,
                bytes: 150
            }
        );
        assert_eq!(
            links[1],
            LinkTraffic {
                src: 1,
                dst: 2,
                messages: 1,
                bytes: 25
            }
        );
    }

    #[test]
    fn flow_msg_routes_by_class() {
        let m = flow_msg(DataKey(9), DataClass::Decision, Some(1), 0, 3, 8);
        assert!(matches!(m, Msg::Decision(_)));
        let m = flow_msg(DataKey(9), DataClass::Payload, None, 2, 3, 64);
        assert!(matches!(m, Msg::Data(DataMsg { producer: None, .. })));
    }
}
