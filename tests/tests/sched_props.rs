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
//!    data is what the streaming window routed, link for link, while
//!    computing the batch path's numerics bitwise
//!    ([`luqr_tests::paths::check_parity`]).
//! 3. **A replay is a schedule of the graph it is given.** Under every
//!    policy, for every graph edge `p → s` between executed tasks, `p`
//!    finishes no later than `s` starts.
//!
//! The algorithm space is the full menu: all five hybrid criteria plus
//! Random, and the four baselines — 10 algorithm/criterion combos
//! ([`luqr_tests::paths::algorithm_from`]) — on 1-node and 4-node grids.

use luqr::SchedPolicy;
use luqr_runtime::{simulate_with, Platform, SimReport, VirtualSchedule};
use luqr_tests::paths::{algorithm_from, check_parity, run, Case, Path};
use luqr_tile::Grid;
use proptest::prelude::*;

/// Float accumulations (serial seconds, flop totals) are summed in
/// processing order, so across policies they agree to round-off, not
/// bitwise — unlike the integer message/byte counters, which are exact.
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30)
}

/// `dominant_system(n, seed, 1)` for `n` in `24..max_n` under one of the
/// ten algorithm combos, on one node or a 2×2 grid.
fn cases(max_n: usize) -> impl Strategy<Value = Case> {
    let draws = (any::<u64>(), 24..max_n, 0usize..10, any::<u64>(), 0usize..2);
    draws.prop_map(|(seed, n, algo_sel, algo_raw, grid_sel)| {
        let grid = [Grid::single(), Grid::new(2, 2)][grid_sel];
        Case::new(algorithm_from(algo_sel, algo_raw), grid).dominant(n, seed, 1)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fifo_is_bitwise_the_pre_refactor_engine(case in cases(56)) {
        let f = run(&case, Path::Batch);

        // The pre-refactor engine: a raw insertion-order VirtualSchedule
        // feed, its spans collected in task-id order.
        let mut raw = VirtualSchedule::new(&Platform::dancer_nodes(case.opts.grid.nodes()));
        let spans: Vec<(f64, f64)> = f
            .graph()
            .tasks()
            .map(|t| raw.process(t.node(), &t.accesses(), &t.cost().expect("executed graph")))
            .collect();
        let reference = SimReport {
            starts: spans.iter().map(|s| s.0).collect(),
            finishes: spans.iter().map(|s| s.1).collect(),
            ..raw.report()
        };

        // The replay's FIFO (the harness's replay): popping the smallest
        // ready id of the graph.
        prop_assert_eq!(&reference, f.replay(), "fifo replay diverged");
    }

    #[test]
    fn every_policy_preserves_numerics_and_data_flow(case in cases(48)) {
        // Streaming at window 2: numerics bitwise, failure behavior and
        // decisions identical, and the FIFO replay's data flow routed link
        // for link.
        let outs = check_parity(&case, &[Path::Batch, Path::Stream]);
        let (graph, fifo) = (outs[0].graph(), outs[0].replay());
        let platform = Platform::dancer_nodes(case.opts.grid.nodes());

        for policy in SchedPolicy::all() {
            // Batch replay: timeline may move, data flow may not.
            let sim = simulate_with(graph, &platform, policy);
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
    fn every_replay_is_a_valid_schedule_of_its_graph(case in cases(48)) {
        let f = run(&case, Path::Batch);
        let g = f.graph();
        let platform = Platform::dancer_nodes(case.opts.grid.nodes());
        let executed = |id: usize| g.task(id).cost().expect("executed graph").executed;
        for policy in SchedPolicy::all() {
            let sim = simulate_with(g, &platform, policy);
            for t in g.tasks().filter(|t| executed(t.id)) {
                for s in t.successors().filter(|&s| executed(s)) {
                    prop_assert!(
                        sim.finishes[t.id] <= sim.starts[s],
                        "{}: edge {} -> {} finishes at {} after the successor starts at {}",
                        policy.name(), t.id, s, sim.finishes[t.id], sim.starts[s]
                    );
                }
            }
        }
    }
}
