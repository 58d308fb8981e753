//! `bench --compare A B`: two sets of run records, one row per workload
//! and end-to-end metric, judged against the bounds in `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::stats;
use std::collections::BTreeMap;

/// One end-to-end metric's declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
    /// Allowed worsening of the median, as a share of the first set's.
    pub bound: f64,
}

/// Reads the `end_to_end` declarations of `BENCHMARK.json`.
///
/// # Errors
///
/// Malformed JSON or declarations.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m.str("name").ok_or("metric without a name")?.to_string(),
                unit: m.str("unit").unwrap_or("").to_string(),
                lower_is_better: m.str("better") != Some("higher"),
                bound: m.num("bound").ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// One run, as read back from a record file.
#[derive(Clone, PartialEq, Debug)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Git revision of the code measured (`unknown` outside a checkout).
    pub rev: String,
    /// Whether the benchmark held its own schedule.
    pub valid: bool,
    /// End-to-end metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a record file: one JSON run record per line.
///
/// # Errors
///
/// Names the first malformed line.
pub fn records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let v = json::parse(line).map_err(|e| format!("record {}: {e}", i + 1))?;
            let metrics = match v.get("metrics") {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .filter_map(|(k, m)| Some((k.clone(), m.num("value")?)))
                    .collect(),
                _ => return Err(format!("record {} has no metrics", i + 1)),
            };
            Ok(Record {
                workload: v
                    .str("workload")
                    .ok_or(format!("record {} has no workload", i + 1))?
                    .to_string(),
                rev: v.str("rev").unwrap_or("unknown").to_string(),
                valid: v.get("valid").and_then(Json::as_bool).unwrap_or(true),
                metrics,
            })
        })
        .collect()
}

/// How a row compares.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread exceeds the bound, so no claim either way.
    Unresolved,
    /// Two sets of the same code differ by more than the bound.
    Disagree,
}

/// One workload × metric comparison.
#[derive(Clone, PartialEq, Debug)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// The metric's declaration.
    pub metric: Bound,
    /// Median of the first set.
    pub median_a: f64,
    /// Median of the second set.
    pub median_b: f64,
    /// Relative change of the median; positive is worse.
    pub worse_by: f64,
    /// The larger of the two sets' spreads (inter-quartile distance over
    /// median); `None` when a set has fewer than two runs.
    pub spread: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

fn values<'a>(
    set: &'a [Record],
    workload: &'a str,
    metric: &'a str,
) -> impl Iterator<Item = f64> + 'a {
    set.iter()
        .filter(move |r| r.valid && r.workload == workload)
        .filter_map(move |r| r.metrics.get(metric).copied())
}

/// Compares set `b` against set `a`. When both sets measured one and the
/// same revision, any difference beyond a bound is a disagreement.
pub fn compare(bounds: &[Bound], a: &[Record], b: &[Record]) -> Vec<Row> {
    let revs = |set: &[Record]| {
        set.iter()
            .map(|r| r.rev.clone())
            .collect::<std::collections::BTreeSet<_>>()
    };
    let (ra, rb) = (revs(a), revs(b));
    let same_code = ra.len() == 1 && ra == rb && !ra.contains("unknown");
    let workloads: std::collections::BTreeSet<&str> =
        a.iter().map(|r| r.workload.as_str()).collect();
    let mut rows = Vec::new();
    for workload in workloads {
        for m in bounds {
            let va: Vec<f64> = values(a, workload, &m.name).collect();
            let vb: Vec<f64> = values(b, workload, &m.name).collect();
            let (Some(median_a), Some(median_b)) =
                (stats::python_median(&va), stats::python_median(&vb))
            else {
                continue;
            };
            let sign = if m.lower_is_better { 1.0 } else { -1.0 };
            let worse_by = if median_a == 0.0 {
                0.0
            } else {
                sign * (median_b - median_a) / median_a.abs()
            };
            let spread = stats::spread(&va)
                .zip(stats::spread(&vb))
                .map(|(x, y)| x.max(y));
            let b_always_better = va.iter().all(|&x| vb.iter().all(|&y| sign * (y - x) < 0.0));
            let verdict = match spread {
                _ if b_always_better && worse_by < -m.bound => Verdict::Improved,
                Some(s) if s <= m.bound => {
                    if worse_by.abs() > m.bound && same_code {
                        Verdict::Disagree
                    } else if worse_by > m.bound {
                        Verdict::Regressed
                    } else if worse_by < -m.bound {
                        Verdict::Improved
                    } else {
                        Verdict::Ok
                    }
                }
                _ => Verdict::Unresolved,
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.clone(),
                median_a,
                median_b,
                worse_by,
                spread,
                verdict,
            });
        }
    }
    rows
}

/// Whether the comparison should fail the command.
pub fn failing(rows: &[Row]) -> bool {
    rows.iter()
        .any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Disagree))
}

/// Renders one row for the terminal.
pub fn render(row: &Row) -> String {
    let verdict = match row.verdict {
        Verdict::Ok => "ok",
        Verdict::Improved => "improved",
        Verdict::Regressed => "REGRESSED",
        Verdict::Unresolved => "unresolved",
        Verdict::Disagree => "DISAGREE",
    };
    let spread = row
        .spread
        .map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
    format!(
        "{:<14} {:<15} {:>12.4} -> {:>12.4} {:<6} worse by {:>+7.2}%  bound {:>5.1}%  spread {:>6}  {verdict}",
        row.workload,
        row.metric.name,
        row.median_a,
        row.median_b,
        row.metric.unit,
        row.worse_by * 100.0,
        row.metric.bound * 100.0,
        spread,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(workload: &str, rev: &str, latency: f64, cut: f64) -> Record {
        Record {
            workload: workload.into(),
            rev: rev.into(),
            valid: true,
            metrics: [
                ("latency_ms_p50".to_string(), latency),
                ("cut".to_string(), cut),
            ]
            .into(),
        }
    }

    fn bounds_fixture() -> Vec<Bound> {
        bounds(
            r#"{"end_to_end": [
                {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "cut", "unit": "count", "better": "lower", "bound": 0.02}
            ]}"#,
        )
        .unwrap()
    }

    #[test]
    fn same_code_within_bounds_is_ok() {
        let a: Vec<Record> = [100.0, 101.0, 99.0, 100.5]
            .iter()
            .map(|&l| rec("w", "r1", l, 50.0))
            .collect();
        let b: Vec<Record> = [100.2, 100.8, 99.5, 100.1]
            .iter()
            .map(|&l| rec("w", "r1", l, 50.0))
            .collect();
        let rows = compare(&bounds_fixture(), &a, &b);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok), "{rows:?}");
        assert!(!failing(&rows));
    }

    #[test]
    fn regressions_disagreements_and_noise_are_told_apart() {
        let a: Vec<Record> = [100.0, 101.0, 99.0, 100.0]
            .iter()
            .map(|&l| rec("w", "r1", l, 50.0))
            .collect();
        // A different revision, 20% slower and 10% worse cut: regressed.
        let slow: Vec<Record> = [120.0, 121.0, 119.0, 120.0]
            .iter()
            .map(|&l| rec("w", "r2", l, 55.0))
            .collect();
        let rows = compare(&bounds_fixture(), &a, &slow);
        assert!(
            rows.iter().all(|r| r.verdict == Verdict::Regressed),
            "{rows:?}"
        );
        assert!(failing(&rows));
        // The same revision differing beyond a bound: a disagreement.
        let same: Vec<Record> = [120.0, 121.0, 119.0, 120.0]
            .iter()
            .map(|&l| rec("w", "r1", l, 50.0))
            .collect();
        let rows = compare(&bounds_fixture(), &a, &same);
        assert_eq!(rows[0].verdict, Verdict::Disagree);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        // Spread wider than the bound: unresolved, and not failing.
        let noisy: Vec<Record> = [60.0, 140.0, 90.0, 130.0]
            .iter()
            .map(|&l| rec("w", "r2", l, 50.0))
            .collect();
        let rows = compare(&bounds_fixture(), &a, &noisy);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert!(!failing(&rows));
        // Noisy but every run better than every run of the first set.
        let fast: Vec<Record> = [50.0, 80.0, 60.0, 75.0]
            .iter()
            .map(|&l| rec("w", "r2", l, 50.0))
            .collect();
        assert_eq!(
            compare(&bounds_fixture(), &a, &fast)[0].verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn higher_is_better_flips_the_sign_and_invalid_runs_are_skipped() {
        let b = vec![Bound {
            name: "slo".into(),
            unit: "fraction".into(),
            lower_is_better: false,
            bound: 0.02,
        }];
        let mk = |v: f64, valid: bool| Record {
            workload: "w".into(),
            rev: "r".into(),
            valid,
            metrics: [("slo".to_string(), v)].into(),
        };
        let a = vec![mk(0.99, true), mk(0.99, true), mk(0.10, false)];
        let worse = vec![mk(0.90, true), mk(0.90, true)];
        let rows = compare(&b, &a, &worse);
        assert_eq!(rows[0].median_a, 0.99);
        assert!(rows[0].worse_by > 0.0);
        assert_eq!(rows[0].verdict, Verdict::Disagree);
    }

    #[test]
    fn reads_record_lines() {
        let text = r#"{"workload":"prop-p2","seed":1,"rev":"abc","valid":true,"metrics":{"cut":{"value":59,"unit":"count","samples":4}}}
"#;
        let r = records(text).unwrap();
        assert_eq!(r[0].workload, "prop-p2");
        assert_eq!(r[0].metrics["cut"], 59.0);
        assert!(records("{").is_err());
    }
}
