//! Move-based engines on a netlist with fractional net costs: FM-bucket
//! (2-way and k-way) and the window engine, whose refiner is FM-bucket,
//! must exit 0 and report the cut the oracle recounts from `--assign`.

use prop_core::{Bipartition, Side};
use prop_netlist::format::parse_hgr;
use prop_verify::{kway, oracle};
use std::process::Command;

const PROP: &str = env!("CARGO_BIN_EXE_prop");

/// Six nodes, five nets, net costs 2.5, 1, 3, 1 and 2: no bucket index
/// exists for a gain of 2.5.
const FRAC_HGR: &str = "5 6 1\n2.5 1 2\n1 2 3\n3 3 4\n1 4 5 6\n2 1 6\n";

/// The value of `key=` on the result line.
fn field<'a>(stdout: &'a str, key: &str) -> &'a str {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("method="))
        .expect("a result line");
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {line}"))
}

#[test]
fn fractional_net_costs_partition_and_recount() {
    let dir = std::env::temp_dir().join(format!("prop-frac-nets-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = dir.join("frac.hgr");
    std::fs::write(&netlist, FRAC_HGR).unwrap();
    let graph = parse_hgr(FRAC_HGR).unwrap();
    assert!(!graph.has_integral_weights());

    for (name, extra, k) in [
        ("fm", &["--method", "fm"][..], 2),
        ("fm-k4", &["--method", "fm", "--k", "4"][..], 4),
        ("window", &["--method", "window"][..], 2),
    ] {
        let assign = dir.join(format!("{name}.assign"));
        let out = Command::new(PROP)
            .arg("partition")
            .arg(&netlist)
            .args(extra)
            .args(["--runs", "3", "--assign"])
            .arg(&assign)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
        let cut: f64 = field(&stdout, "cut").parse().unwrap();
        // One `<node> <part>` line per node, in node order.
        let parts: Vec<String> = std::fs::read_to_string(&assign)
            .unwrap()
            .lines()
            .map(|l| l.split_whitespace().last().unwrap().to_owned())
            .collect();
        assert_eq!(parts.len(), graph.num_nodes(), "{name}");
        let recount = if k == 2 {
            let sides = parts
                .iter()
                .map(|p| if p == "A" { Side::A } else { Side::B })
                .collect();
            oracle::naive_cut(&graph, &Bipartition::from_sides(sides))
        } else {
            let blocks: Vec<u32> = parts.iter().map(|p| p.parse().unwrap()).collect();
            kway::kway_cut(&graph, &blocks, k)
        };
        assert_eq!(cut, recount, "{name}: reported {cut}, oracle {recount}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
