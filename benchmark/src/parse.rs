//! Parsers for what the program prints: the CLI result line, the
//! `--assign` file, and the daemon's job and batch views.

use crate::json::Json;

/// The fields of a `prop partition` result line that the benchmark checks.
#[derive(Clone, PartialEq, Debug)]
pub struct CliResult {
    /// Best hyperedge cut.
    pub cut: f64,
    /// Connectivity (λ−1); printed by k-way runs only.
    pub connectivity: Option<f64>,
    /// Engine passes over all runs.
    pub passes: u64,
    /// Number of parts (2 unless the line says otherwise).
    pub k: u32,
}

/// Finds and parses the `method=… cut=… passes=…` line in CLI output,
/// for both the 2-way and the k-way form.
///
/// # Errors
///
/// Names the missing or malformed field.
pub fn cli_result(stdout: &str) -> Result<CliResult, String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("method="))
        .ok_or_else(|| format!("no result line in {stdout:?}"))?;
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
    };
    let num = |key: &str| -> Result<f64, String> {
        field(key)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("bad or missing {key}= in {line:?}"))
    };
    let k = match field("k") {
        Some(v) => v.parse().map_err(|_| format!("bad k= in {line:?}"))?,
        None => 2,
    };
    Ok(CliResult {
        cut: num("cut")?,
        connectivity: field("connectivity")
            .map(|_| num("connectivity"))
            .transpose()?,
        passes: num("passes")? as u64,
        k,
    })
}

/// Parses an `--assign` file (`<node> <side-or-part>` per line, in node
/// order) into one part number per node: `A`/`B` become 0/1.
///
/// # Errors
///
/// Names the first malformed line.
pub fn assignment(text: &str) -> Result<Vec<u32>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let part = line.rsplit(' ').next().unwrap_or("");
            match part {
                "A" => Ok(0),
                "B" => Ok(1),
                p => p
                    .parse()
                    .map_err(|_| format!("assign line {}: {line:?}", i + 1)),
            }
        })
        .collect()
}

/// The result fields of a completed daemon job or batch.
#[derive(Clone, PartialEq, Debug)]
pub struct JobView {
    /// Best cut.
    pub cut: f64,
    /// Cut of every run, in run order.
    pub run_cuts: Vec<f64>,
    /// FNV-1a hash of the winning assignment, as printed.
    pub assignment_hash: String,
    /// Server-side execution time in whole milliseconds (absent on batches).
    pub wall_ms: Option<f64>,
}

/// Checks that a daemon response is an `ok` job view with status
/// `completed`, and extracts its result fields.
///
/// # Errors
///
/// Describes the refusal, failure or missing field.
pub fn job_view(v: &Json) -> Result<JobView, String> {
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("refused: {}", v.render()));
    }
    if v.str("status") != Some("completed") {
        return Err(format!("not completed: {}", v.render()));
    }
    let missing = |key: &str| format!("no {key} in {}", v.render());
    Ok(JobView {
        cut: v.num("cut").ok_or_else(|| missing("cut"))?,
        run_cuts: v
            .get("run_cuts")
            .and_then(Json::as_arr)
            .ok_or_else(|| missing("run_cuts"))?
            .iter()
            .map(|c| c.as_f64().ok_or_else(|| missing("numeric run_cuts")))
            .collect::<Result<_, _>>()?,
        assignment_hash: v
            .str("assignment_hash")
            .ok_or_else(|| missing("assignment_hash"))?
            .to_string(),
        wall_ms: v.num("wall_ms"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn parses_two_way_result_lines() {
        let out = "method=ml cut=1528 sides=51692A/51356B passes=40\nassignment written to a.txt\n";
        assert_eq!(
            cli_result(out).unwrap(),
            CliResult {
                cut: 1528.0,
                connectivity: None,
                passes: 40,
                k: 2
            }
        );
    }

    #[test]
    fn parses_kway_result_lines() {
        let out = "method=ml k=8 cut=6327 connectivity=8402 parts=12881/12881/12880/12882/12881/12882/12880/12881 weights=12881,12881,12880,12882,12881,12882,12880,12881 passes=281\n";
        assert_eq!(
            cli_result(out).unwrap(),
            CliResult {
                cut: 6327.0,
                connectivity: Some(8402.0),
                passes: 281,
                k: 8
            }
        );
    }

    #[test]
    fn rejects_broken_result_lines() {
        assert!(cli_result("error: unknown method").is_err());
        assert!(cli_result("method=ml cut=x passes=1").is_err());
        assert!(cli_result("method=ml cut=1 passes=1 k=two").is_err());
        // `k=` must not match inside another key.
        assert_eq!(cli_result("method=ml cut=3 passes=1").unwrap().k, 2);
    }

    #[test]
    fn parses_assignments() {
        assert_eq!(assignment("0 A\n1 B\nname 7\n").unwrap(), vec![0, 1, 7]);
        assert!(assignment("0 A\n1 C\n").is_err());
    }

    #[test]
    fn parses_real_daemon_views() {
        let done = parse(r#"{"ok":true,"job":1,"phase":"done","cancel_requested":false,"status":"completed","cut":381,"sides":[1619,1395],"passes":6,"run_cuts":[381],"assignment_hash":"3273c1455053bd7c","started_runs":1,"wall_ms":10}"#).unwrap();
        let view = job_view(&done).unwrap();
        assert_eq!(view.cut, 381.0);
        assert_eq!(view.run_cuts, vec![381.0]);
        assert_eq!(view.assignment_hash, "3273c1455053bd7c");
        assert_eq!(view.wall_ms, Some(10.0));
        let batch = parse(r#"{"ok":true,"event":"done","job":2,"batch":true,"phase":"done","status":"completed","engine":"prop","cut":59,"sides":[1494,1520],"passes":255,"run_cuts":[83,59],"assignment_hash":"8ef44d20e64eb2b5","sub_jobs":32,"rescheduled":0}"#).unwrap();
        assert_eq!(job_view(&batch).unwrap().wall_ms, None);
        let refused = parse(r#"{"ok":false,"error":"queue_full","message":"full"}"#).unwrap();
        assert!(job_view(&refused).unwrap_err().starts_with("refused"));
        let failed = parse(r#"{"ok":true,"status":"failed","message":"boom"}"#).unwrap();
        assert!(job_view(&failed).unwrap_err().starts_with("not completed"));
    }
}
