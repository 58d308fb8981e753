//! §3.5's complexity claim: PROP runs in Θ(m log n) time per pass, with
//! m pins and n nodes. This sweep partitions geometrically growing
//! synthetic circuits of constant average degree (q ≈ 3.5 pins per net,
//! as in the suite) and prints each engine's time per pass divided by
//! m·log2 n. The claim holds when that column stays roughly flat while
//! the circuit grows sixteenfold; FM-bucket's Θ(m) pass is the contrast.
//!
//! `--quick` stops at 2000 nodes and times 3 runs per point (default 5;
//! `--runs N` sets it). `--threads N` fans the runs out, as in `table4`.

use prop_core::CancelToken;
use prop_engines::{EngineName, Job, JobReport};
use prop_experiments::report::Table;
use prop_experiments::Options;
use prop_netlist::generate::{generate, GeneratorConfig};
use std::time::Instant;

fn main() {
    let opts = Options::from_args();
    let sizes: &[usize] = if opts.quick {
        &[500, 1000, 2000]
    } else {
        &[500, 1000, 2000, 4000, 8000]
    };
    let runs = opts.runs.unwrap_or(if opts.quick { 3 } else { 5 });
    let engines = [("PROP", EngineName::Prop), ("FM", EngineName::Fm)];

    println!("PROP vs FM-bucket time per pass against circuit size (§3.5: Θ(m log n) per pass)");
    println!("{runs} runs per point, 50-50% balance, circuit seed 77");
    println!();
    let mut header = vec!["nodes n".to_string(), "pins m".to_string()];
    for (label, _) in engines {
        header.push(format!("{label} ms/run"));
        header.push(format!("{label} passes/run"));
        header.push(format!("{label} ns/(m lg n) per pass"));
    }
    let mut table = Table::new(header);
    for &nodes in sizes {
        let nets = nodes * 11 / 10;
        let pins = nets * 7 / 2;
        let graph = generate(&GeneratorConfig::new(nodes, nets, pins).with_seed(77))
            .expect("valid scaling config");
        let m_lg_n = graph.num_pins() as f64 * (nodes as f64).log2();
        let mut row = vec![nodes.to_string(), graph.num_pins().to_string()];
        for (_, name) in engines {
            let job = Job {
                r1: 0.5,
                r2: 0.5,
                runs,
                ..Job::new(name)
            };
            let start = Instant::now();
            let report = job
                .run(&graph, opts.policy(), &CancelToken::new())
                .expect("a valid job on a non-empty circuit");
            let seconds = start.elapsed().as_secs_f64();
            let JobReport::TwoWay(report) = report else {
                unreachable!("a k = 2 job is a bipartition")
            };
            let passes = report.result.total_passes.max(1) as f64;
            row.push(format!("{:.2}", seconds * 1e3 / runs as f64));
            row.push(format!("{:.1}", passes / runs as f64));
            row.push(format!("{:.2}", seconds * 1e9 / passes / m_lg_n));
        }
        table.push_row(row);
        eprintln!("  done: {nodes} nodes");
    }
    print!("{}", table.render());
}
