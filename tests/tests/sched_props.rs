//! Property tests for the scheduler subsystem.
//!
//! Three invariants hold for random systems, algorithms, criteria, and
//! grids:
//!
//! 1. **FIFO pins history.** `simulate()` — the replay under
//!    `SchedPolicy::Fifo`, popping the smallest ready id of the graph —
//!    produces a `SimReport` **bitwise equal** to the pre-refactor
//!    insertion-order engine: a raw `VirtualSchedule` fed the graph's
//!    tasks in id order. This is what keeps the pinned makespans valid.
//! 2. **Scheduling never changes the factorization.** Every policy's
//!    replay moves exactly the same data (messages and bytes per link,
//!    serial seconds, per-node-per-class observations) — only the timeline
//!    may differ, and even then never below the critical path — and that
//!    data is what the distributed streaming window routed, link for link,
//!    while computing the batch path's numerics bitwise (solutions,
//!    per-step decisions, failure behavior).
//! 3. **A replay is a schedule of the graph it is given.** Under every
//!    policy, for every graph edge `p → s` between executed tasks, `p`
//!    finishes no later than `s` starts.
//!
//! The algorithm space is the full menu: all five hybrid criteria plus
//! Random, and the four baselines — 10 algorithm/criterion combos — on
//! 1-node and 4-node grids.

use luqr::{factor, factor_stream, Algorithm, Criterion, FactorOptions, SchedPolicy};
use luqr_runtime::{simulate, simulate_with, Platform, SimReport, VirtualSchedule};
use luqr_tests::{assert_routing_matches_replay, dominant_system};
use luqr_tile::Grid;
use proptest::prelude::*;

fn random_system(n: usize, seed: u64) -> (luqr_kernels::Mat, luqr_kernels::Mat) {
    dominant_system(n, seed, 1)
}

/// Float accumulations (serial seconds, flop totals) are summed in
/// processing order, so across policies they agree to round-off, not
/// bitwise — unlike the integer message/byte counters, which are exact.
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30)
}

/// The 10 algorithm/criterion combos (6 hybrid criteria + 4 baselines).
fn algorithm_from(sel: usize, raw: u64) -> Algorithm {
    let alpha = (raw % 1000) as f64;
    match sel {
        0 => Algorithm::LuQr(Criterion::Max { alpha }),
        1 => Algorithm::LuQr(Criterion::Sum { alpha }),
        2 => Algorithm::LuQr(Criterion::Mumps { alpha }),
        3 => Algorithm::LuQr(Criterion::Random {
            lu_fraction: 0.5,
            seed: raw,
        }),
        4 => Algorithm::LuQr(Criterion::AlwaysQr),
        5 => Algorithm::LuQr(Criterion::AlwaysLu),
        6 => Algorithm::LuNoPiv,
        7 => Algorithm::LuIncPiv,
        8 => Algorithm::Lupp,
        _ => Algorithm::Hqr,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fifo_is_bitwise_the_pre_refactor_engine(
        seed in any::<u64>(),
        n in 24usize..56,
        algo_sel in 0usize..10,
        algo_raw in any::<u64>(),
        grid_sel in 0usize..2,
    ) {
        let grid = [Grid::single(), Grid::new(2, 2)][grid_sel];
        let platform = Platform::dancer_nodes(grid.nodes());
        let (a, b) = random_system(n, seed);
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            threads: 2,
            grid,
            algorithm: algorithm_from(algo_sel, algo_raw),
            ..FactorOptions::default()
        };
        let f = factor(&a, &b, &opts);

        // The pre-refactor engine: a raw insertion-order VirtualSchedule
        // feed, its spans collected in task-id order.
        let mut raw = VirtualSchedule::new(&platform);
        let spans: Vec<(f64, f64)> = f
            .graph
            .tasks()
            .map(|t| raw.process(t.node(), &t.accesses(), &t.result().expect("executed graph")))
            .collect();
        let reference = SimReport {
            starts: spans.iter().map(|s| s.0).collect(),
            finishes: spans.iter().map(|s| s.1).collect(),
            ..raw.report()
        };

        // The replay's FIFO: popping the smallest ready id of the graph.
        let fifo = simulate(&f.graph, &platform);
        prop_assert_eq!(&reference, &fifo, "fifo replay diverged");
    }

    #[test]
    fn every_policy_preserves_numerics_and_data_flow(
        seed in any::<u64>(),
        n in 24usize..48,
        algo_sel in 0usize..10,
        algo_raw in any::<u64>(),
        grid_sel in 0usize..2,
    ) {
        let grid = [Grid::single(), Grid::new(2, 2)][grid_sel];
        let platform = Platform::dancer_nodes(grid.nodes());
        let (a, b) = random_system(n, seed);
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            threads: 2,
            grid,
            algorithm: algorithm_from(algo_sel, algo_raw),
            ..FactorOptions::default()
        };
        let batch = factor(&a, &b, &opts);
        let fifo = simulate(&batch.graph, &platform);

        // Distributed streaming: numerics bitwise, failure behavior and
        // decisions identical, and the replay's data flow routed link for
        // link.
        let dist = factor_stream(&a, &b, &opts, 2);
        prop_assert_eq!(&batch.error, &dist.error);
        prop_assert_eq!(batch.solution().max_abs_diff(&dist.solution()), 0.0);
        prop_assert_eq!(batch.records.len(), dist.records.len());
        for (rb, rd) in batch.records.iter().zip(&dist.records) {
            prop_assert_eq!(rb.decision, rd.decision);
        }
        assert_routing_matches_replay(&dist.report.link_msgs, &fifo.link_messages, "stream");

        for policy in SchedPolicy::all() {
            // Batch replay: timeline may move, data flow may not.
            let sim = simulate_with(&batch.graph, &platform, policy);
            prop_assert_eq!(&sim.link_messages, &fifo.link_messages, "{}", policy.name());
            prop_assert_eq!(sim.messages, fifo.messages, "{}", policy.name());
            prop_assert_eq!(sim.bytes, fifo.bytes);
            prop_assert!(close(sim.serial_seconds, fifo.serial_seconds));
            prop_assert!(close(sim.total_flops, fifo.total_flops));
            for (sa, sb) in sim.node_class_seconds.iter().zip(&fifo.node_class_seconds) {
                for (x, y) in sa.iter().zip(sb) {
                    prop_assert!(close(*x, *y), "per-class seconds moved");
                }
            }
            prop_assert!(sim.makespan >= sim.critical_path - 1e-12);
        }
    }

    #[test]
    fn every_replay_is_a_valid_schedule_of_its_graph(
        seed in any::<u64>(),
        n in 24usize..48,
        algo_sel in 0usize..10,
        algo_raw in any::<u64>(),
        grid_sel in 0usize..2,
    ) {
        let grid = [Grid::single(), Grid::new(2, 2)][grid_sel];
        let platform = Platform::dancer_nodes(grid.nodes());
        let (a, b) = random_system(n, seed);
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            threads: 2,
            grid,
            algorithm: algorithm_from(algo_sel, algo_raw),
            ..FactorOptions::default()
        };
        let g = factor(&a, &b, &opts).graph;
        let executed = |id: usize| g.task(id).result().expect("executed graph").executed;
        for policy in SchedPolicy::all() {
            let sim = simulate_with(&g, &platform, policy);
            for t in g.tasks().filter(|t| executed(t.id)) {
                for &s in t.successors().iter().filter(|&&s| executed(s)) {
                    prop_assert!(
                        sim.finishes[t.id] <= sim.starts[s],
                        "{}: edge {} -> {} finishes at {} after the successor starts at {}",
                        policy.name(), t.id, s, sim.finishes[t.id], sim.starts[s]
                    );
                }
            }
        }
    }

    /// The extracted hazard core ([`luqr_runtime::hazard`]) reproduces the
    /// RAW/WAR/WAW rules the three pre-refactor implementations
    /// (GraphBuilder, the replay engine, streaming window) each hand-rolled —
    /// bitwise, across every algorithm/criterion combo. Three independent
    /// derivations of the dependency structure must agree edge for edge:
    ///
    /// 1. a *naive oracle* written out here from first principles (per
    ///    key: last writer, readers since that write);
    /// 2. the hazard core driven standalone over the same access lists;
    /// 3. the graph `factor()` actually built (`num_preds`/`successors`),
    ///    whose edges are the ops' closed-form ones
    ///    (`TaskOp::for_each_successor`).
    #[test]
    fn hazard_core_matches_naive_dependency_oracle(
        seed in any::<u64>(),
        n in 24usize..56,
        algo_sel in 0usize..10,
        algo_raw in any::<u64>(),
        grid_sel in 0usize..2,
    ) {
        use luqr_runtime::graph::Access;
        use luqr_runtime::hazard::{finalize_preds, HazardCell};
        use std::collections::HashMap;

        let grid = [Grid::single(), Grid::new(2, 2)][grid_sel];
        let (a, b) = random_system(n, seed);
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            threads: 2,
            grid,
            algorithm: algorithm_from(algo_sel, algo_raw),
            ..FactorOptions::default()
        };
        let f = factor(&a, &b, &opts);

        // Naive oracle state: per datum, the last writer and every reader
        // since that write. A Read/Control depends on the writer (RAW /
        // ordering); a Mut depends on the writer (WAW) and all readers
        // since (WAR). Reads accumulate; a write resets the reader set.
        let mut last_writer: HashMap<u64, usize> = HashMap::new();
        let mut readers: HashMap<u64, Vec<usize>> = HashMap::new();
        // The extracted core, driven standalone over the same accesses.
        let mut cells: HashMap<u64, HazardCell<()>> = HashMap::new();

        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); f.graph.len()];
        for t in f.graph.tasks() {
            let (id, accesses) = (t.id, t.accesses());
            let mut naive: Vec<usize> = Vec::new();
            let mut core: Vec<usize> = Vec::new();
            let mut depth = 0u64;
            // Pass 1: fold predecessors over pre-insertion state, exactly
            // as the window does (all accesses before any update).
            for ca in &accesses {
                let key = ca.access.key().0;
                match ca.access {
                    Access::Read(_) | Access::Control(_) => {
                        naive.extend(last_writer.get(&key));
                    }
                    Access::Mut(_) => {
                        naive.extend(last_writer.get(&key));
                        naive.extend(readers.get(&key).into_iter().flatten());
                    }
                }
                if let Some(cell) = cells.get(&key) {
                    cell.fold_preds(matches!(ca.access, Access::Mut(_)), &mut core, &mut depth);
                }
            }
            // Pass 2: update both states in access order.
            for ca in &accesses {
                let key = ca.access.key().0;
                match ca.access {
                    Access::Read(_) => {
                        readers.entry(key).or_default().push(id);
                        cells.entry(key).or_default().note_read(id, 0);
                    }
                    Access::Control(_) => {}
                    Access::Mut(_) => {
                        last_writer.insert(key, id);
                        readers.remove(&key);
                        cells.entry(key).or_default().note_write(id, 0, ());
                    }
                }
            }
            naive.sort_unstable();
            naive.dedup();
            naive.retain(|&p| p != id);
            finalize_preds(&mut core, id, |_| true);
            prop_assert_eq!(&naive, &core, "task {}: standalone core vs naive rules", id);
            prop_assert_eq!(naive.len(), t.num_preds(), "task {}: num_preds", id);
            for &p in &naive {
                succ[p].push(id);
            }
        }
        for t in f.graph.tasks() {
            let p = t.id;
            succ[p].sort_unstable();
            succ[p].dedup();
            prop_assert_eq!(&succ[p][..], t.successors(), "task {}: successors", p);
        }
    }
}
