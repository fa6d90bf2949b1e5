//! Plans are data: what the planners emit is a sequence of `Copy`
//! [`TaskOp`]s, so a plan can be counted, hashed and compared.
//!
//! * **Allocation budget.** A counting global allocator (per-thread
//!   counters, so parallel tests do not see each other) measures what
//!   planning costs: at most one heap allocation per planned task, for the
//!   batch graph and for a streamed run's planner thread alike (7.5 per
//!   task before ops). The batch count repeats exactly and the streamed
//!   one to within a few percent (which thread first touches a table
//!   depends on timing), so they can gate in CI where timings cannot; the
//!   test also prints `allocs/task`, `bytes/task` and `plan ns/task` per
//!   planner — for the batch graph the builder's wall time, for a streamed
//!   run the CPU time of the planner thread (the thread CPU clock of the
//!   caller of `execute_with`, which plans while the workers execute) —
//!   and the same for rank 0 of a two-rank loopback run, per task that
//!   rank planned, gated at [`RANK_ALLOCS_PER_TASK`].
//! * **Plan parity.** Golden hashes — generated at the last commit whose
//!   planners still built a name string, a boxed closure and an access
//!   vector per task — pin, per planner × fixture, the task names and
//!   placements, the priced access lists in order, and the hazard edges
//!   the accesses induce. They predate the reduction trees' TS level, so
//!   they are checked under the trees of that commit ([`luqr_tests::TWO_LEVEL`],
//!   `ts = 1`); one more row pins the hybrid under [`TreeConfig::default`].
//! * **Streamed ≡ batch.** The op sequence a streamed run plans is the
//!   batch sequence with each step's losing branch filtered out.
//! * **Rendering.** DOT and Chrome-trace output of a fixed run, which now
//!   render names from ops on demand, are byte-identical to that commit's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use luqr::{
    builder, factor, factor_stream_net_rank, Algorithm, Criterion, Decision, FactorOptions,
    LuVariant, PivotScope, PlannerStepSource, StreamOptions, TaskOp, TreeConfig,
};
use luqr_runtime::net::loopback::loopback_set;
use luqr_runtime::stream;
use luqr_runtime::trace::{to_chrome_trace_with, TraceOptions};
use luqr_runtime::{simulate, Access, DataKey, Platform};
use luqr_tests::oracle::Logged;
use luqr_tests::{dominant_system, with_watchdog, TWO_LEVEL};
use luqr_tile::{Grid, TiledMatrix};

// --- the counting allocator -------------------------------------------------

thread_local! {
    /// `(allocations, bytes)` requested by this thread.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

impl Counting {
    fn count(bytes: usize) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let _ = ALLOCATED.try_with(|c| {
            let (n, b) = c.get();
            c.set((n + 1, b + bytes as u64));
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with a
// const initializer and no destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: the caller's obligations are `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// CPU seconds the calling thread has used so far
/// (`CLOCK_THREAD_CPUTIME_ID`).
fn thread_cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the whole call, which
    // writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// `(allocations, bytes, seconds)` this thread spent in `f`.
fn measured<R>(f: impl FnOnce() -> R) -> (R, u64, u64, f64) {
    let (n0, b0) = ALLOCATED.with(Cell::get);
    let t0 = Instant::now();
    let r = f();
    let dt = t0.elapsed().as_secs_f64();
    let (n1, b1) = ALLOCATED.with(Cell::get);
    (r, n1 - n0, b1 - b0, dt)
}

// --- fixtures ---------------------------------------------------------------

fn planners() -> Vec<(&'static str, Algorithm, LuVariant, PivotScope)> {
    let max = Algorithm::LuQr(Criterion::Max { alpha: 100.0 });
    let random = Algorithm::LuQr(Criterion::Random {
        lu_fraction: 0.5,
        seed: 5,
    });
    let (a1, domain) = (LuVariant::A1, PivotScope::DiagonalDomain);
    vec![
        ("hybrid-a1-domain", max.clone(), a1, domain),
        ("hybrid-a1-tile", max.clone(), a1, PivotScope::DiagonalTile),
        ("hybrid-a2", max, LuVariant::A2, domain),
        ("hybrid-random", random, a1, domain),
        ("lu-nopiv", Algorithm::LuNoPiv, a1, domain),
        ("lupp", Algorithm::Lupp, a1, domain),
        ("lu-incpiv", Algorithm::LuIncPiv, a1, domain),
        ("hqr", Algorithm::Hqr, a1, domain),
    ]
}

fn planner(label: &str) -> (Algorithm, LuVariant, PivotScope) {
    let (_, algorithm, lu_variant, pivot_scope) = planners()
        .into_iter()
        .find(|p| p.0 == label)
        .unwrap_or_else(|| panic!("no planner '{label}'"));
    (algorithm, lu_variant, pivot_scope)
}

/// The fixture of one golden row: an `n x n` dominant system with one
/// right-hand side, `nb = 16`, on a `p x q` grid.
fn fixture(
    label: &str,
    n: usize,
    grid: (usize, usize),
    trees: TreeConfig,
) -> (TiledMatrix, usize, FactorOptions) {
    let ((a, b), opts) = (dominant_system(n, 11, 1), options(label, grid, trees));
    let aug = TiledMatrix::from_dense_augmented(&a, &b, opts.nb);
    let nt_a = aug.nt() - 1;
    (aug, nt_a, opts)
}

/// The options of a golden row's fixture.
fn options(label: &str, (p, q): (usize, usize), trees: TreeConfig) -> FactorOptions {
    let (algorithm, lu_variant, pivot_scope) = planner(label);
    FactorOptions {
        nb: 16,
        ib: 4,
        grid: Grid::new(p, q),
        algorithm,
        threads: 1,
        pivot_scope,
        lu_variant,
        trees,
    }
}

// --- allocation budget ------------------------------------------------------

/// What a rank of the two-rank run may allocate per task it plans,
/// packing its share included: 1.87 to 1.94 for the hybrid and HQR, 1.27
/// to 1.56 for the LU planners when it was set (1.64 to 2.41 before a wire
/// rank's sweep skipped other ranks' ops and its insertions stopped
/// allocating per task).
const RANK_ALLOCS_PER_TASK: f64 = 2.0;

/// The five planners on the issue's fixture (n = 192, nb = 16, grid 1×2).
const BUDGET_PLANNERS: [&str; 5] = ["hybrid-a1-domain", "lu-nopiv", "lupp", "lu-incpiv", "hqr"];

#[test]
fn planning_allocates_at_most_once_per_task() {
    println!(
        "op record: {} bytes ({} with placement and predecessor count in a batch graph)",
        std::mem::size_of::<TaskOp>(),
        std::mem::size_of::<TaskOp>() + 8
    );
    println!(
        "{:<18} {:>6} {:>8} {:>12} {:>12} {:>14}",
        "planner", "path", "tasks", "allocs/task", "bytes/task", "plan ns/task"
    );
    for label in BUDGET_PLANNERS {
        let (aug, nt_a, opts) = fixture(label, 192, (1, 2), TreeConfig::default());

        let (graph, allocs, bytes, secs) = measured(|| builder::build_graph(&aug, nt_a, &opts).0);
        let tasks = graph.len() as f64;
        let batch = allocs as f64 / tasks;
        println!(
            "{label:<18} {:>6} {:>8} {batch:>12.3} {:>12.1} {:>14.0}",
            "batch",
            graph.len(),
            bytes as f64 / tasks,
            secs * 1e9 / tasks
        );
        assert!(
            batch <= 1.0,
            "{label}: {batch:.3} allocations per batch-planned task"
        );

        // Streamed: the calling thread plans, the worker threads execute —
        // the per-thread counters see the planner's share only. (Planning
        // and waiting interleave here, so the time reported is the planner
        // thread's CPU time, not its wall time.)
        let (report, allocs, bytes, cpu) = with_watchdog(&format!("{label} streamed"), move || {
            let mut source = PlannerStepSource::new(&aug, nt_a, &opts);
            let sopts = StreamOptions::fixed(4, 1);
            let cpu = thread_cpu_seconds();
            let (report, allocs, bytes, _) = measured(|| stream::execute_with(&mut source, &sopts));
            let cpu = thread_cpu_seconds() - cpu;
            assert!(source.shared().error.lock().is_none());
            (report, allocs, bytes, cpu)
        });
        let tasks = report.tasks_planned as f64;
        let streamed = allocs as f64 / tasks;
        println!(
            "{label:<18} {:>6} {:>8} {streamed:>12.3} {:>12.1} {:>14.0}",
            "stream",
            report.tasks_planned,
            bytes as f64 / tasks,
            cpu * 1e9 / tasks
        );
        assert!(
            streamed <= 1.0,
            "{label}: {streamed:.3} allocations per stream-planned task"
        );

        // One rank of a two-rank run over loopback: rank 0's driver plans
        // on the calling thread, rank 1 runs beside it. Its counters and
        // clock include packing its share of the matrix.
        let (a, b) = dominant_system(192, 11, 1);
        let opts = options(label, (1, 2), TreeConfig::default());
        let what = format!("{label} rank 0 of 2");
        let (planned, allocs, bytes, cpu) = with_watchdog(&what, move || {
            let sopts = StreamOptions::fixed(4, 1);
            let [r0, r1]: [_; 2] = loopback_set(2).try_into().ok().expect("two endpoints");
            std::thread::scope(|s| {
                let (a, b, opts, sopts) = (&a, &b, &opts, &sopts);
                let peer = s.spawn(move || factor_stream_net_rank(a, b, opts, sopts, r1));
                let cpu = thread_cpu_seconds();
                let (f, allocs, bytes, _) =
                    measured(|| factor_stream_net_rank(a, b, opts, sopts, r0));
                let cpu = thread_cpu_seconds() - cpu;
                peer.join()
                    .expect("rank 1 panicked")
                    .expect("rank 1 failed");
                let report = f.expect("rank 0 failed").report;
                assert_eq!(report.tasks_planned, report.tasks_executed);
                (report.tasks_planned, allocs, bytes, cpu)
            })
        });
        let tasks = planned as f64;
        let ranked = allocs as f64 / tasks;
        println!(
            "{label:<18} {:>6} {planned:>8} {ranked:>12.3} {:>12.1} {:>14.0}",
            "rank0",
            bytes as f64 / tasks,
            cpu * 1e9 / tasks
        );
        // A rank plans every step for about half the tasks, so its fixed
        // per-step allocations (plans, decisions, frames) weigh double.
        assert!(
            ranked <= RANK_ALLOCS_PER_TASK,
            "{label}: {ranked:.3} allocations per task rank 0 planned"
        );
    }
}

// --- plan parity ------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv(h, &v.to_le_bytes());
}

/// `(label, n, p, q, tasks, names+placements, priced accesses, hazard
/// edges)` — printed by a scratch test at the parent of the commit that
/// introduced ops, from `Task::{name, node, accesses, num_preds,
/// successors}`.
type GoldenPlan = (&'static str, usize, usize, usize, usize, u64, u64, u64);

#[rustfmt::skip]
const GOLDEN_PLANS: [GoldenPlan; 24] = [
    ("hybrid-a1-domain", 96, 1, 1, 398, 0xfbd3187af4efb47b, 0x3d1d21fb971ffdc9, 0x41a72d7913bf3084),
    ("hybrid-a1-tile", 96, 1, 1, 368, 0x09c42c61692b4b51, 0xfaa707ae1c3fc49d, 0xd0ec17e7c425359f),
    ("hybrid-a2", 96, 1, 1, 326, 0xb99405ad63b68bb6, 0xfe16fe0bd000129a, 0xeba7a2695c509ccc),
    ("hybrid-random", 96, 1, 1, 398, 0xfbd3187af4efb47b, 0x3d1d21fb971ffdc9, 0x41a72d7913bf3084),
    ("lu-nopiv", 96, 1, 1, 154, 0x24ae6da8037242b4, 0xe074aae4fbb0d08f, 0x1964e81f10fa7e2a),
    ("lupp", 96, 1, 1, 159, 0x2762405f0cc3f70b, 0x618e00deef4124d9, 0xb69c457d28c930cb),
    ("lu-incpiv", 96, 1, 1, 112, 0xd906ded8c89ce6cb, 0x8f02cc9c01b885e5, 0x081da3fc8889c6f2),
    ("hqr", 96, 1, 1, 197, 0x11d0816cc095c12e, 0x5549e45e581221b1, 0xed9e30fa54c2398f),
    ("hybrid-a1-domain", 104, 2, 2, 579, 0x4fbd7c1885d10839, 0x2086d9959c286025, 0xdfa3f66e17dcfc71),
    ("hybrid-a1-tile", 104, 2, 2, 550, 0x3c730dd3e9e2adeb, 0xc5d35818c588d54b, 0x97baa3885d7d12ac),
    ("hybrid-a2", 104, 2, 2, 494, 0xdc872eb69632ffcc, 0x9f9c99fc024e6c2b, 0x2ac7add8f657da3f),
    ("hybrid-random", 104, 2, 2, 573, 0xfb7597ecd7d34e2f, 0x6ea5abb334401083, 0xc1648a7146c38423),
    ("lu-nopiv", 104, 2, 2, 224, 0x3139106c3c3a02de, 0x52db8406054835a3, 0x7d30fb7c92c531de),
    ("lupp", 104, 2, 2, 255, 0xf2a15145fa53b4b1, 0xa338b87be135f72c, 0x83038d256f5a8ba7),
    ("lu-incpiv", 104, 2, 2, 168, 0x3feaf8552c53f1f7, 0x32cafcb63894ecaf, 0x11e9bbb7be7171e3),
    ("hqr", 104, 2, 2, 301, 0x92017019164ee372, 0xe4fc85792552edb5, 0x48e59b9af9a96abd),
    ("hybrid-a1-domain", 192, 1, 2, 2417, 0x963a1eb7a9c92a72, 0x9932d6061193ae07, 0x42a5d9ac6f97c1e3),
    ("hybrid-a1-tile", 192, 1, 2, 2285, 0x58be78e1ed85d994, 0x0d23db33efed7c12, 0x02b78626ebfd824d),
    ("hybrid-a2", 192, 1, 2, 2129, 0x37f30c52ad05af8c, 0x8b4d9a544011fa54, 0x908d8664c65bbd11),
    ("hybrid-random", 192, 1, 2, 2417, 0x963a1eb7a9c92a72, 0x9932d6061193ae07, 0x42a5d9ac6f97c1e3),
    ("lu-nopiv", 192, 1, 2, 884, 0xa28c1628afbbf84b, 0x0daefff796cc2333, 0x6c0283cbd7740e9b),
    ("lupp", 192, 1, 2, 895, 0x41d5a5722bae79f4, 0x94a82f80a88a4e9b, 0xd26606aab322d89b),
    ("lu-incpiv", 192, 1, 2, 728, 0x5cb9118cf1c8ce8d, 0x168b303d4928cd7d, 0x1034dcb35e686953),
    ("hqr", 192, 1, 2, 1366, 0x60ae2958b74c9c15, 0x5f369e37a2ad55e7, 0xccaa83d093877ca3),
];

/// `(tasks, names+placements, priced accesses, hazard edges)` of the batch
/// plan of a fixture.
fn plan_hashes(label: &str, n: usize, grid: (usize, usize), trees: TreeConfig) -> [u64; 4] {
    let (aug, nt_a, opts) = fixture(label, n, grid, trees);
    let (graph, _shared) = builder::build_graph(&aug, nt_a, &opts);
    let (mut names, mut accesses, mut edges) = (FNV_OFFSET, FNV_OFFSET, FNV_OFFSET);
    for t in graph.tasks() {
        fnv(&mut names, t.name().as_bytes());
        fnv_u64(&mut names, t.node() as u64);
        let costed = t.accesses();
        fnv_u64(&mut accesses, costed.len() as u64);
        for ca in &costed {
            let (tag, DataKey(key)) = match ca.access {
                Access::Read(k) => (0u64, k),
                Access::Mut(k) => (1, k),
                Access::Control(k) => (2, k),
            };
            fnv_u64(&mut accesses, tag);
            fnv_u64(&mut accesses, key);
            fnv_u64(&mut accesses, ca.bytes as u64);
            fnv_u64(&mut accesses, ca.home as u64);
        }
        fnv_u64(&mut edges, t.num_preds() as u64);
        fnv_u64(&mut edges, t.successors().count() as u64);
        for s in t.successors() {
            fnv_u64(&mut edges, s as u64);
        }
    }
    [graph.len() as u64, names, accesses, edges]
}

#[test]
fn plans_match_the_closure_era_goldens() {
    for (label, n, p, q, tasks, names, accesses, edges) in GOLDEN_PLANS {
        assert_eq!(
            plan_hashes(label, n, (p, q), TWO_LEVEL),
            [tasks as u64, names, accesses, edges],
            "{label} n={n} grid {p}x{q}: task count, names and placements, priced access \
             lists, hazard edges"
        );
    }
}

/// The hybrid's plan under the default tree (TS domains of 4): six panel
/// rows per node at step 0, so both a full and a short TS domain occur.
#[test]
fn default_tree_plan_pin() {
    assert_eq!(
        plan_hashes("hybrid-a1-domain", 192, (1, 2), TreeConfig::default()),
        [
            1901,
            0xe5e1400d557589f2,
            0xf96798026dfd9f63,
            0x9ac95c4db3234ec6
        ]
    );
}

// --- streamed ≡ batch, filtered to the chosen branch ------------------------

#[test]
fn streamed_plan_is_the_batch_plan_minus_the_losing_branches() {
    for label in ["hybrid-random", "hybrid-a2", "lu-incpiv", "hqr"] {
        let (algorithm, lu_variant, pivot_scope) = planner(label);
        let (a, b) = dominant_system(104, 11, 1);
        let opts = FactorOptions {
            nb: 16,
            ib: 4,
            grid: Grid::new(2, 2),
            algorithm,
            threads: 2,
            pivot_scope,
            lu_variant,
            ..FactorOptions::default()
        };
        let batch = {
            let (a, b, opts) = (a.clone(), b.clone(), opts.clone());
            with_watchdog(&format!("{label} batch"), move || factor(&a, &b, &opts))
        };
        let decision_of = |k: usize| batch.records.iter().find(|r| r.k == k).map(|r| r.decision);
        let surviving: Vec<(usize, TaskOp)> = batch
            .graph
            .tasks()
            .map(|t| (t.node(), t.op()))
            .filter(|(_, op)| match op.gate().want() {
                None => true,
                Some(want) => decision_of(op.step()) == Some(want),
            })
            .collect();

        let aug = TiledMatrix::from_dense_augmented(&a, &b, opts.nb);
        let log = with_watchdog(&format!("{label} streamed"), move || {
            let mut logged = Logged::new(PlannerStepSource::new(&aug, aug.nt() - 1, &opts));
            let report = stream::execute_with(&mut logged, &StreamOptions::fixed(3, 2));
            assert_eq!(report.tasks_planned, logged.log.len());
            logged.log
        });
        assert_eq!(log, surviving, "{label}");
        if label == "hybrid-random" {
            let decisions: Vec<Decision> = batch.records.iter().map(|r| r.decision).collect();
            assert!(
                decisions.contains(&Decision::Lu) && decisions.contains(&Decision::Qr),
                "the fixture must exercise both branches"
            );
            assert!(log.len() < batch.graph.len());
        }
    }
}

/// The streaming driver's sink buffers a planning phase and hands out the
/// task ids itself, before the window has taken the phase in. The window
/// issues ids in insertion order, so the ids handed out must be the
/// insertion indices, and the id each hybrid step's prelude awaits must be
/// its PANEL's — on both branches and under both trial variants (a wrong id
/// would have the planner read a decision the panel has not recorded).
#[test]
fn awaited_decision_ids_are_the_panel_tasks_of_the_window() {
    for label in ["hybrid-random", "hybrid-a2"] {
        let (aug, nt_a, opts) = fixture(label, 192, (1, 2), TreeConfig::default());
        let (planned, logged, records) = with_watchdog(&format!("{label} streamed"), move || {
            let mut logged = Logged::new(PlannerStepSource::new(&aug, nt_a, &opts));
            let report = stream::execute_with(&mut logged, &StreamOptions::fixed(2, 2));
            let records = logged.source.shared().records.lock().clone();
            (
                report.tasks_planned,
                (logged.ids, logged.awaited, logged.log),
                records,
            )
        });
        let (ids, awaited, log) = logged;
        let inserted: Vec<usize> = (0..planned).collect();
        assert_eq!(ids, inserted, "{label}: ids in insertion order");
        let steps: Vec<usize> = awaited.iter().map(|&(k, _)| k).collect();
        assert_eq!(
            steps,
            (0..nt_a).collect::<Vec<_>>(),
            "{label}: every step awaits"
        );
        for &(k, task) in &awaited {
            let op = log[task].1;
            assert!(
                matches!(op, TaskOp::Panel { .. } | TaskOp::PanelA2 { .. }) && op.step() == k,
                "{label}: step {k} awaits task {task}, {op:?}"
            );
        }
        let took = |d| records.iter().any(|r| r.decision == d);
        assert!(
            label != "hybrid-random" || (took(Decision::Lu) && took(Decision::Qr)),
            "the fixture must take both branches"
        );
    }
}

// --- rendering --------------------------------------------------------------

#[test]
fn dot_and_chrome_trace_render_the_same_bytes_as_stored_names_did() {
    let (a, b) = dominant_system(96, 11, 1);
    let opts = FactorOptions {
        nb: 16,
        ib: 4,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::LuQr(Criterion::Random {
            lu_fraction: 0.5,
            seed: 5,
        }),
        threads: 2,
        trees: TWO_LEVEL,
        ..FactorOptions::default()
    };
    let f = with_watchdog("rendered run", move || factor(&a, &b, &opts));

    let dot = f.dot_for_step(1);
    let mut h = FNV_OFFSET;
    fnv(&mut h, dot.as_bytes());
    assert_eq!((dot.len(), h), (18150, 0x01c65ffc24c192dd), "DOT of step 1");

    let platform = Platform::dancer_nodes(4);
    let trace = to_chrome_trace_with(
        &f.graph,
        &simulate(&f.graph, &platform),
        &TraceOptions {
            platform: Some(&platform),
            ..TraceOptions::default()
        },
    );
    let mut h = FNV_OFFSET;
    fnv(&mut h, trace.as_bytes());
    assert_eq!(
        (trace.len(), h),
        (28191, 0x5930037bb81e4627),
        "Chrome trace"
    );
}
