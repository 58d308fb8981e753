//! `prop partition` with its stdout already closed (`prop ... | true`)
//! must end quietly with a fixed status and still write its `--assign`
//! file, byte for byte as a run with a live stdout does.

use std::path::Path;
use std::process::{Command, Stdio};

const PROP: &str = env!("CARGO_BIN_EXE_prop");

fn partition(netlist: &Path, extra: &[&str], assign: &Path) -> Command {
    let mut cmd = Command::new(PROP);
    cmd.arg("partition")
        .arg(netlist)
        .args(extra)
        .arg("--assign")
        .arg(assign);
    cmd
}

#[test]
fn closed_stdout_exits_quietly_and_keeps_the_assignment() {
    let dir = std::env::temp_dir().join(format!("prop-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = dir.join("balu.hgr");
    let generated = Command::new(PROP)
        .args(["generate", "--circuit", "balu", "--out"])
        .arg(&netlist)
        .output()
        .unwrap();
    assert!(generated.status.success(), "{generated:?}");

    for (name, extra) in [
        ("fm", &["--method", "fm", "--runs", "4"][..]),
        ("prop", &["--method", "prop", "--runs", "2"][..]),
        ("kway", &["--method", "fm", "--k", "4", "--runs", "2"][..]),
    ] {
        let live = dir.join(format!("{name}.live"));
        let normal = partition(&netlist, extra, &live).output().unwrap();
        assert!(normal.status.success(), "{name}: {normal:?}");
        assert!(
            String::from_utf8_lossy(&normal.stdout).contains("cut="),
            "{name}"
        );

        let closed = dir.join(format!("{name}.closed"));
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = partition(&netlist, extra, &closed)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(stderr.is_empty(), "{name}: {stderr}");
        assert_eq!(
            out.status.code(),
            Some(prop_cli::EXIT_BROKEN_PIPE),
            "{name}"
        );
        assert_eq!(
            std::fs::read(&closed).unwrap(),
            std::fs::read(&live).unwrap(),
            "{name}: --assign differs from the live-stdout run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
