//! A three-node dataflow the library's planners never plan, run on every
//! path of the parity harness.
//!
//! No factorization owes one producer's output to remote consumers planned
//! in different phases: the driver awaits a hybrid step's panel before it
//! plans the finish, and every prelude task is an ancestor of the panel, so
//! whatever the finish reads has completed by then. The [`Toy`] does, each
//! step `k`:
//!
//! * prelude: `D` (node 0) writes the step's decision; `P` (node 0) reads
//!   it, naps, and writes `X` and `Y`; `C1` (node 1) reads `X`; `L` (node 1)
//!   naps, then reads `Z`, the datum its node is home to; `W` (node 0)
//!   writes `Z`; and from step 1 on, `C3` (node 2) reads the `Y` of the
//!   step before;
//! * finish, planned once `D` has run: `C2` (node 2) reads `X`, `M` (node 1)
//!   reads `Z`.
//!
//! `P` is still napping when the finish and the next prelude are planned,
//! so it owes `X` to node 1 from its own phase, `X` to node 2 from its
//! step's finish and `Y` to node 2 from the next step's prelude. And node 1
//! reads one version of `Z` in `L` while node 0 writes the next for `M`:
//! `M`'s copy of `Z` may land in node 1's memory only after `L` has read the
//! old one. Every task folds what it reads into what it writes, so a lost
//! transfer or an early overwrite changes the result.
//!
//! With [`Producer::Alternating`], `P` runs on node 1 in odd steps. Node 0's
//! share of an odd step is then `D` and `W`, neither of which waits for the
//! napping `P` before it, so that share drains while that `P` still owes the
//! step's `P` its `X` and `Y` and `C3` its `Y`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use luqr_runtime::net::loopback::loopback_set;
use luqr_runtime::net::socket::{socket_set, SocketSpec};
use luqr_runtime::stream::{execute_net, execute_with};
use luqr_runtime::{
    execute, simulate, Access, CostClass, DataClass, DataKey, GraphBuilder, LinkMsgStats,
    NetConfig, PayloadStore, Platform, Pred, Routed, Share, StepPhase, StepSource, StreamOptions,
    StreamReport, TaskId, TaskOp, TaskResult, TaskSink, Transport, TransportError, Visit,
};

use crate::paths::{assert_wire_is_protocol, Path};
use crate::{assert_routing_matches_replay, with_watchdog};

/// Nodes of the toy.
const NODES: usize = 3;
/// Steps of the toy.
const STEPS: usize = 3;
/// How long `P` naps: long enough for the driver to plan the finish and
/// the next prelude while it runs.
const P_NAP: Duration = Duration::from_millis(50);
/// How long `L` naps before it reads `Z`.
const L_NAP: Duration = Duration::from_millis(30);

const X: DataKey = DataKey(1);
const Y: DataKey = DataKey(2);
const Z: DataKey = DataKey(3);
/// What the consumers accumulate into: `C1`, `C2` and `C3`, `L`, `M`.
const R1: DataKey = DataKey(4);
const R2: DataKey = DataKey(5);
const R3: DataKey = DataKey(6);
const R4: DataKey = DataKey(7);
/// [`Producer::Rewritten`]'s datum, and what its readers accumulate into.
const V: DataKey = DataKey(8);
const R5: DataKey = DataKey(9);

/// The run-scoped data and their home nodes.
const DATA: [(DataKey, usize); 9] = [
    (X, 0),
    (Y, 0),
    (Z, 1),
    (R1, 1),
    (R2, 2),
    (R3, 1),
    (R4, 1),
    (V, 0),
    (R5, 2),
];

/// Step `k`'s decision cell.
fn decision(k: usize) -> DataKey {
    DataKey(100 + k as u64)
}

/// A datum's state under the textbook rule: its last writer (and the node
/// it ran on, on a rank's share) and the readers since, and which nodes a
/// rank's share visited a read of that version for.
#[derive(Default)]
struct Seen {
    writer: Option<Pred>,
    src: Option<usize>,
    readers: Vec<Pred>,
    routed: Routed,
}

/// One planned task.
struct Def {
    name: String,
    step: usize,
    pos: usize,
    accesses: Vec<Access>,
    nap: Duration,
}

/// The run's tasks and one node's memory: every cell of the whole run on
/// the counted paths, the cells a rank holds or was sent on a wire.
#[derive(Default)]
pub struct ToyCtx {
    defs: RwLock<Vec<Arc<Def>>>,
    /// Per datum, its last writer and the readers since, over the phases
    /// swept so far.
    seen: Mutex<HashMap<DataKey, Seen>>,
    cells: Mutex<HashMap<DataKey, f64>>,
}

impl ToyCtx {
    /// The context of `rank`, holding the initial values of the data homed
    /// there (`None`: of every datum).
    fn new(rank: Option<usize>) -> Arc<ToyCtx> {
        let ctx = ToyCtx::default();
        let mine = DATA
            .iter()
            .filter(|&&(_, home)| rank.is_none_or(|r| r == home));
        let start = mine.map(|&(key, _)| (key, 1.0 / key.0 as f64));
        ctx.cells.lock().unwrap().extend(start);
        Arc::new(ctx)
    }

    fn def(&self, op: ToyOp) -> Arc<Def> {
        Arc::clone(&self.defs.read().unwrap()[op.0 as usize])
    }

    /// The result cells, bits and all, in key order.
    fn result(&self) -> Vec<u64> {
        let cells = self.cells.lock().unwrap();
        DATA.iter().map(|(key, _)| cells[key].to_bits()).collect()
    }
}

/// A task of the toy, by its index in the context's table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ToyOp(u32);

impl TaskOp for ToyOp {
    type Ctx = ToyCtx;

    /// Nap, then fold every datum read into every datum written, in order:
    /// any change to what a task reads moves its output's bits.
    fn run(self, ctx: &ToyCtx) {
        let def = ctx.def(self);
        std::thread::sleep(def.nap);
        let mut cells = ctx.cells.lock().unwrap();
        let mut acc = def.pos as f64;
        for access in &def.accesses {
            if let Access::Read(key) | Access::Mut(key) = access {
                // A decision cell starts out unwritten; nothing else may.
                let held = cells.get(key).copied();
                let v = held.or((key.0 >= decision(0).0).then_some(0.0));
                let v = v.unwrap_or_else(|| panic!("{} reads {key:?}, not held", def.name));
                acc = (acc * 1.000_000_1).sin() + v * 0.5;
            }
        }
        for access in &def.accesses {
            if let Access::Mut(key) = access {
                cells.insert(*key, acc + key.0 as f64 * 1e-3);
            }
        }
    }

    fn cost(self, _ctx: &ToyCtx) -> Option<TaskResult> {
        Some(TaskResult::executed(1.0, CostClass::Gemm))
    }

    fn step(self, ctx: &ToyCtx) -> Option<usize> {
        Some(ctx.def(self).step)
    }

    fn write_name(self, ctx: &ToyCtx, out: &mut String) {
        out.push_str(&ctx.def(self).name);
    }

    fn for_each_access(self, ctx: &ToyCtx, f: impl FnMut(Access)) {
        ctx.def(self).accesses.iter().copied().for_each(f);
    }

    fn position(self, ctx: &ToyCtx) -> usize {
        ctx.def(self).pos
    }

    /// The textbook rule, op by op: all of an op's accesses see the state
    /// before it, then update it in access order. A datum `share` does not
    /// sweep is tracked, not visited; of one it does, an access is visited
    /// as `share` says, and a read it does not visit names nobody later.
    fn for_each_predecessor(
        ctx: &ToyCtx,
        step: usize,
        ops: &[ToyOp],
        share: &Share<'_>,
        mut f: impl FnMut(Visit<'_>),
    ) {
        let seen = &mut *ctx.seen.lock().unwrap();
        let mut visited = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let def = ctx.def(op);
            visited.clear();
            for &access in &def.accesses {
                let swept = share.sweeps(access.key());
                let s = seen.entry(access.key()).or_default();
                let visit = swept
                    && match access {
                        Access::Read(_) => share.reads(i, s.writer, s.src, &mut s.routed),
                        _ => share.full(i),
                    };
                if visit {
                    let readers = if matches!(access, Access::Mut(_)) {
                        &s.readers[..]
                    } else {
                        &[]
                    };
                    f(Visit {
                        op: i,
                        access,
                        writer: s.writer,
                        readers,
                    });
                }
                visited.push(visit || !swept);
            }
            let me = Pred { step, pos: def.pos };
            for (acc, &named) in def.accesses.iter().zip(&visited) {
                let s = seen.entry(acc.key()).or_default();
                match acc {
                    Access::Read(_) if named => s.readers.push(me),
                    Access::Read(_) | Access::Control(_) => {}
                    Access::Mut(_) => {
                        s.writer = Some(me);
                        s.src = share.of().map(|_| share.node(i));
                        s.readers.clear();
                    }
                }
            }
        }
    }

    fn data_class(_ctx: &ToyCtx, key: DataKey) -> DataClass {
        if key.0 >= decision(0).0 {
            DataClass::Decision
        } else {
            DataClass::Payload
        }
    }
}

/// The toy as a step source over one node's context.
pub struct Toy {
    ctx: Arc<ToyCtx>,
    producer: Producer,
    /// Positions handed out in the open step.
    next_pos: usize,
}

impl Toy {
    fn new(ctx: Arc<ToyCtx>, producer: Producer) -> Toy {
        Toy {
            ctx,
            producer,
            next_pos: 0,
        }
    }

    fn task(
        &mut self,
        sink: &mut dyn TaskSink<ToyOp>,
        (name, step, node): (&str, usize, usize),
        accesses: &[Access],
        nap: Duration,
    ) -> TaskId {
        let mut defs = self.ctx.defs.write().unwrap();
        defs.push(Arc::new(Def {
            name: format!("{name} k={step}"),
            step,
            pos: self.next_pos,
            accesses: accesses.to_vec(),
            nap,
        }));
        let op = ToyOp((defs.len() - 1) as u32);
        drop(defs);
        self.next_pos += 1;
        sink.push(node, op)
    }
}

impl StepSource for Toy {
    type Op = ToyOp;

    fn context(&self) -> Arc<ToyCtx> {
        Arc::clone(&self.ctx)
    }

    fn num_steps(&self) -> usize {
        STEPS
    }

    fn num_nodes(&self) -> usize {
        NODES
    }

    fn prepare(&mut self, sink: &mut dyn TaskSink<ToyOp>) {
        for (key, home) in DATA {
            sink.declare(key, 8, home);
        }
    }

    fn plan_prelude(&mut self, k: usize, sink: &mut dyn TaskSink<ToyOp>) -> StepPhase {
        use Access::{Mut, Read};
        const NO_NAP: Duration = Duration::ZERO;
        self.next_pos = 0;
        if k > 0 {
            self.task(sink, ("C3", k, 2), &[Read(Y), Mut(R2)], NO_NAP);
        }
        sink.declare(decision(k), 8, 0);
        let d = self.task(sink, ("D", k, 0), &[Mut(decision(k))], NO_NAP);
        let p_node = match self.producer {
            Producer::Node0 | Producer::Rewritten => 0,
            Producer::Alternating => k % 2,
        };
        let p = [Read(decision(k)), Mut(X), Mut(Y)];
        self.task(sink, ("P", k, p_node), &p, P_NAP);
        self.task(sink, ("C1", k, 1), &[Read(X), Mut(R1)], NO_NAP);
        self.task(sink, ("L", k, 1), &[Read(Z), Mut(R3)], L_NAP);
        self.task(sink, ("W", k, 0), &[Mut(Z)], NO_NAP);
        if self.producer == Producer::Rewritten {
            let read = [Read(V), Mut(R5)];
            self.task(sink, ("A", k, 0), &[Mut(V)], NO_NAP);
            self.task(sink, ("Ra", k, 2), &read, NO_NAP);
            self.task(sink, ("B", k, 1), &[Mut(V)], NO_NAP);
            self.task(sink, ("Rb", k, 2), &read, NO_NAP);
            self.task(sink, ("C", k, 0), &[Mut(V)], NO_NAP);
            self.task(sink, ("Rc", k, 2), &read, NO_NAP);
        }
        StepPhase::AwaitDecision(d)
    }

    fn plan_finish(&mut self, k: usize, sink: &mut dyn TaskSink<ToyOp>) {
        use Access::{Mut, Read};
        self.task(sink, ("C2", k, 2), &[Read(X), Mut(R2)], Duration::ZERO);
        self.task(sink, ("M", k, 1), &[Read(Z), Mut(R4)], Duration::ZERO);
    }
}

/// A rank's payload store: its cells, eight bytes each.
struct ToyStore(Arc<ToyCtx>);

impl PayloadStore for ToyStore {
    fn load(&self, key: DataKey) -> Option<Vec<u8>> {
        let cells = self.0.cells.lock().unwrap();
        cells.get(&key).map(|v| v.to_le_bytes().to_vec())
    }

    fn store(&self, key: DataKey, bytes: &[u8]) -> Result<(), TransportError> {
        let bytes: [u8; 8] = bytes
            .try_into()
            .map_err(|_| TransportError::Frame(format!("bad payload for {key:?}")))?;
        let value = f64::from_le_bytes(bytes);
        self.0.cells.lock().unwrap().insert(key, value);
        Ok(())
    }

    fn knows(&self, key: DataKey) -> bool {
        self.in_result(key) || (decision(0).0..decision(STEPS).0).contains(&key.0)
    }

    fn in_result(&self, key: DataKey) -> bool {
        DATA.iter().any(|&(k, _)| k == key)
    }
}

/// What one path made of the toy.
pub struct ToyOutcome {
    pub path: Path,
    /// The result cells' bits (rank 0's, after the hand-off, on a wire).
    pub x: Vec<u64>,
    /// `Batch`: the replay's payload traffic per link.
    pub replay: Vec<luqr_runtime::LinkTraffic>,
    /// The streamed paths: every rank's report, rank 0 first.
    pub reports: Vec<StreamReport>,
}

/// Where the producer `P` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Producer {
    /// On node 0 every step: node 0's share of a step waits for the `P`
    /// before it, which its own `P` overwrites.
    Node0,
    /// On node 0 in even steps and on node 1 in odd ones: node 0's share of
    /// an odd step waits for nothing that `P` does.
    Alternating,
    /// On node 0, and each prelude also rewrites `V` in turn: `A` (node 0)
    /// writes it, `Ra` (node 2) reads it, `B` (node 1) rewrites it, `Rb`
    /// (node 2) reads that, `C` (node 0) rewrites it and `Rc` (node 2)
    /// reads it once more. In one phase node 0 sources two versions of `V`
    /// that node 2 reads, with another rank's write between them, so node
    /// 0's sweep must visit a reader per version and destination, not per
    /// datum.
    Rewritten,
}

/// Live steps of the streamed paths: the next prelude is planned while
/// `P` naps.
const WINDOW: usize = 3;

/// Run the toy on `path` under the watchdog, two workers per node.
pub fn run(path: Path, producer: Producer) -> ToyOutcome {
    let what = format!("toy ({producer:?}) on {path:?}");
    with_watchdog(&what, move || perform(path, producer))
}

fn perform(path: Path, producer: Producer) -> ToyOutcome {
    let opts = StreamOptions::fixed(WINDOW, 2);
    let (mut x, mut replay, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    match path {
        Path::Batch => {
            let ctx = ToyCtx::new(None);
            let mut toy = Toy::new(Arc::clone(&ctx), producer);
            let mut b = GraphBuilder::new(NODES, Arc::clone(&ctx));
            toy.prepare(&mut b);
            for k in 0..STEPS {
                toy.plan_prelude(k, &mut b);
                toy.plan_finish(k, &mut b);
                b.close_phase(k);
            }
            let graph = b.build();
            execute(&graph, 2);
            replay = simulate(&graph, &Platform::dancer_nodes(NODES)).link_messages;
            x = ctx.result();
        }
        Path::Stream => {
            let ctx = ToyCtx::new(None);
            let mut toy = Toy::new(Arc::clone(&ctx), producer);
            reports.push(execute_with(&mut toy, &opts));
            x = ctx.result();
        }
        Path::Loopback | Path::Uds => {
            static RUN: AtomicUsize = AtomicUsize::new(0);
            let run = RUN.fetch_add(1, Ordering::Relaxed);
            let dir: PathBuf =
                std::env::temp_dir().join(format!("luqr-net-toy-{}-{run}", std::process::id()));
            let set: Vec<Arc<dyn Transport>> = match path {
                Path::Loopback => loopback_set(NODES).into_iter().map(|t| t as _).collect(),
                _ => {
                    std::fs::create_dir_all(&dir).expect("socket directory");
                    let set = socket_set(&SocketSpec::Uds { dir: dir.clone() }, NODES);
                    let set = set.expect("socket mesh");
                    set.into_iter().map(|t| t as _).collect()
                }
            };
            let ranks: Vec<(Vec<u64>, StreamReport)> = std::thread::scope(|s| {
                let ranks: Vec<_> = set
                    .into_iter()
                    .map(|transport| {
                        let opts = &opts;
                        s.spawn(move || {
                            let rank = transport.rank();
                            let ctx = ToyCtx::new(Some(rank));
                            let store = Arc::new(ToyStore(Arc::clone(&ctx)));
                            let mut toy = Toy::new(Arc::clone(&ctx), producer);
                            let net = NetConfig { transport, store };
                            let report = execute_net(&mut toy, opts, net).expect("toy wire run");
                            let x = if rank == 0 { ctx.result() } else { Vec::new() };
                            (x, report)
                        })
                    })
                    .collect();
                ranks
                    .into_iter()
                    .map(|h| h.join().expect("toy rank panicked"))
                    .collect()
            });
            let _ = std::fs::remove_dir_all(&dir);
            for (rank_x, report) in ranks {
                x.extend(rank_x);
                reports.push(report);
            }
        }
    }
    ToyOutcome {
        path,
        x,
        replay,
        reports,
    }
}

/// The links of `links` that touch `rank`, their payload messages only.
fn touching(links: &[LinkMsgStats], rank: usize) -> Vec<(usize, usize, u64, u64, u64)> {
    links
        .iter()
        .filter(|l| (l.src == rank || l.dst == rank) && l.msgs.payload_msgs() > 0)
        .map(|l| {
            let m = l.msgs;
            (l.src, l.dst, m.data_msgs, m.decision_msgs, m.bytes)
        })
        .collect()
}

/// Run the toy on `paths` (the first must be `Batch`, the second `Stream`)
/// and check what [`crate::paths::check_parity`] checks of a factorization:
/// the same result bits everywhere; the window routing, link by link, what
/// the batch graph's replay prices; and every rank of a wire run sending
/// and receiving, as frames, the stream's messages on its links.
pub fn check_parity(paths: &[Path], producer: Producer) -> Vec<ToyOutcome> {
    assert_eq!(paths[..2], [Path::Batch, Path::Stream]);
    let outs: Vec<ToyOutcome> = paths.iter().map(|&p| run(p, producer)).collect();
    let (batch, stream) = (&outs[0], &outs[1].reports[0]);
    let what = format!("toy ({producer:?}) on Stream");
    assert_routing_matches_replay(&stream.link_msgs, &batch.replay, &what);
    for o in &outs {
        let what = format!("toy ({producer:?}) on {:?}", o.path);
        assert_eq!(o.x, batch.x, "{what}: result");
        if matches!(o.path, Path::Loopback | Path::Uds) {
            assert_eq!(o.reports.len(), NODES, "{what}");
            for (r, report) in o.reports.iter().enumerate() {
                let what = format!("{what}, rank {r}");
                assert_wire_is_protocol(report, (r, NODES), &what);
                assert_eq!(
                    touching(&report.link_msgs, r),
                    touching(&stream.link_msgs, r),
                    "{what}: messages on its links"
                );
            }
        }
    }
    outs
}
