//! Golden-cut regression pins.
//!
//! Pins the exact `best_cut` of the three benchmark-snapshot circuits for
//! PROP (calibrated profile, as benched), FM-bucket, the multilevel
//! V-cycle (standard engine, default knobs), and the V-cycle with
//! flow-based corridor refinement enabled, under the snapshot
//! balance (45–55%), at reduced run counts so the whole file stays cheap
//! enough for the tier-1 gate. Every engine in this suite is fully
//! deterministic, so these are equalities, not tolerances: an accidental
//! behavior change in a "pure perf" PR trips this test in seconds, long
//! before the expensive differential suite runs.
//!
//! If a PR *intends* to change results (new default profile, an
//! algorithmic change), regenerate with:
//!
//! ```sh
//! cargo test --release --test golden_cuts -- --nocapture
//! ```
//!
//! and update the table alongside the differential-oracle mirrors.

use prop_suite::core::{
    cut_cost, partition_kway, BalanceConstraint, KwayConfig, Partitioner, Prop, PropConfig,
};
use prop_suite::fm::FmBucket;
use prop_suite::multilevel::{FlowConfig, Multilevel, MultilevelConfig};
use prop_suite::netlist::suite;

/// (circuit, method, runs, expected best-of-runs cut with base seed 0).
const GOLDEN: [(&str, &str, usize, f64); 12] = [
    ("balu", "PROP", 5, 18.0),
    ("balu", "FM-bucket", 5, 52.0),
    ("balu", "ML", 5, 18.0),
    ("balu", "ML+flow", 5, 18.0),
    ("struct", "PROP", 3, 28.0),
    ("struct", "FM-bucket", 3, 102.0),
    ("struct", "ML", 3, 27.0),
    ("struct", "ML+flow", 3, 25.0),
    ("p2", "PROP", 2, 55.0),
    ("p2", "FM-bucket", 2, 285.0),
    ("p2", "ML", 2, 52.0),
    ("p2", "ML+flow", 2, 47.0),
];

#[test]
fn snapshot_circuit_cuts_are_pinned() {
    let prop = Prop::new(PropConfig::calibrated());
    let fm = FmBucket::default();
    let ml = Multilevel::standard(MultilevelConfig::default());
    let ml_flow = Multilevel::standard(MultilevelConfig {
        flow: FlowConfig {
            enabled: true,
            ..FlowConfig::default()
        },
        ..MultilevelConfig::default()
    });
    let mut failures = Vec::new();
    for (circuit, method, runs, expected) in GOLDEN {
        let graph = suite::by_name(circuit)
            .expect("snapshot circuit")
            .instantiate()
            .expect("valid Table-1 spec");
        let balance =
            BalanceConstraint::new(0.45, 0.55, graph.num_nodes()).expect("valid ratios");
        let partitioner: &dyn Partitioner = match method {
            "PROP" => &prop,
            "FM-bucket" => &fm,
            "ML+flow" => &ml_flow,
            _ => &ml,
        };
        let result = partitioner.run_multi(&graph, balance, runs, 0).expect("non-empty");
        assert_eq!(
            result.cut_cost,
            cut_cost(&graph, &result.partition),
            "{circuit}/{method}: reported cut inconsistent with its partition"
        );
        println!("(\"{circuit}\", \"{method}\", {runs}, {:.1}),", result.cut_cost);
        if result.cut_cost != expected {
            failures.push(format!(
                "{circuit}/{method} ({runs} runs): got {}, pinned {expected}",
                result.cut_cost
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden cuts diverged (regenerate only if the change is intended):\n{}",
        failures.join("\n")
    );
}

/// (circuit, k, runs, expected hyperedge cut, expected connectivity
/// lambda-1) for the recursive k-way driver over the standard V-cycle,
/// uniform budgets, snapshot balance, base seed 0.
const KWAY_GOLDEN: [(&str, usize, usize, f64, f64); 3] = [
    ("balu", 4, 2, 43.0, 48.0),
    ("struct", 4, 2, 64.0, 68.0),
    ("p2", 4, 2, 140.0, 161.0),
];

#[test]
fn kway_snapshot_cuts_are_pinned() {
    let ml = Multilevel::standard(MultilevelConfig::default());
    let mut failures = Vec::new();
    for (circuit, k, runs, cut, connectivity) in KWAY_GOLDEN {
        let graph = suite::by_name(circuit)
            .expect("snapshot circuit")
            .instantiate()
            .expect("valid Table-1 spec");
        let config = KwayConfig {
            runs,
            ..KwayConfig::new(k)
        };
        let report = partition_kway(&graph, &ml, &config).expect("k-way succeeds");
        let got_cut = report.partition.cut_cost(&graph);
        let got_conn = report.partition.connectivity_cost(&graph);
        println!("(\"{circuit}\", {k}, {runs}, {got_cut:.1}, {got_conn:.1}),");
        if got_cut != cut || got_conn != connectivity {
            failures.push(format!(
                "{circuit}/ML k={k} ({runs} runs): got cut {got_cut} lambda {got_conn}, \
                 pinned {cut}/{connectivity}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden k-way cuts diverged (regenerate only if the change is intended):\n{}",
        failures.join("\n")
    );
}
