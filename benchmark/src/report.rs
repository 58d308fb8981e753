//! What one workload run reports, and how it is printed.

use crate::calibrate::Calibration;
use crate::json::{self, Json};

/// One measured number.
#[derive(Clone, PartialEq, Debug)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json` for the gated metrics.
    pub name: String,
    /// Unit, e.g. `ms`, `s`, `MB`, `count`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: usize,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        samples,
    }
}

/// A time as measured, with the factor that scales it to the reference
/// machine speed (from the calibration samples taken around it).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Sample {
    /// The time as measured.
    pub raw: f64,
    /// Its scale factor.
    pub scale: f64,
}

/// Scales each time by the calibration groups around it: each comes
/// with the index of the group taken just before it.
pub fn scaled(times: Vec<(f64, usize)>, calibration: &Calibration) -> Vec<Sample> {
    times
        .into_iter()
        .map(|(raw, mark)| Sample {
            raw,
            scale: calibration.around(mark),
        })
        .collect()
}

/// Median of the scaled (`scaled`) or the raw values of `samples`.
fn median_of(samples: &[Sample], scaled: bool) -> f64 {
    let values: Vec<f64> = samples
        .iter()
        .map(|s| if scaled { s.raw * s.scale } else { s.raw })
        .collect();
    crate::stats::median(&values).unwrap_or(f64::NAN)
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order. The workload decides what one job is: a CLI process, a daemon
/// request, or a cluster sweep.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Median set-up time in seconds, as measured.
    pub setup_s: f64,
    /// Latency of every job in the measured window, in milliseconds; a
    /// failed job counts as infinitely late.
    pub latency_ms: Vec<Sample>,
    /// CPU time per job in milliseconds: one sample per job, or one for
    /// the whole window.
    pub cpu_ms: Vec<Sample>,
    /// Mean best cut over the run's distinct jobs.
    pub cut: f64,
    /// How many distinct jobs `cut` averages.
    pub cut_jobs: usize,
    /// Peak resident memory of the program's processes in MiB.
    pub peak_rss_mb: f64,
    /// Every kernel sample of the run; the set-up time is scaled by their
    /// median.
    pub calibration: Calibration,
}

impl EndToEnd {
    /// The gated metrics, named as declared in `BENCHMARK.json`. Times
    /// are scaled to the reference machine speed.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.latency_ms.len();
        vec![
            metric(
                "setup_s",
                "s",
                self.setup_s * self.calibration.scale(),
                crate::workload::SETUP_REPS,
            ),
            metric("latency_ms_p50", "ms", median_of(&self.latency_ms, true), n),
            metric("cpu_ms_per_job", "ms", median_of(&self.cpu_ms, true), n),
            metric("cut", "count", self.cut, self.cut_jobs),
            metric("peak_rss_mb", "MB", self.peak_rss_mb, n),
        ]
    }

    /// The unscaled times and the run's median kernel time.
    pub fn raw(&self) -> Vec<Metric> {
        let n = self.latency_ms.len();
        vec![
            metric(
                "raw.setup_s",
                "s",
                self.setup_s,
                crate::workload::SETUP_REPS,
            ),
            metric(
                "raw.latency_ms_p50",
                "ms",
                median_of(&self.latency_ms, false),
                n,
            ),
            metric(
                "raw.cpu_ms_per_job",
                "ms",
                median_of(&self.cpu_ms, false),
                n,
            ),
            metric(
                "calibration_ms",
                "ms",
                self.calibration.median_ms(),
                self.calibration.len(),
            ),
        ]
    }
}

/// The result of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// The declared metrics (end-to-end, or per-layer for a traced run).
    pub metrics: Vec<Metric>,
    /// Workload-specific numbers printed beside them but not gated.
    pub details: Vec<Metric>,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// One line per wrong answer or failure.
    pub errors: Vec<String>,
    /// Set when the benchmark itself could not hold its schedule, so the
    /// numbers do not describe the program.
    pub invalid: Option<String>,
}

impl Outcome {
    /// Records a failed or wrong operation.
    pub fn fail(&mut self, error: impl Into<String>) {
        self.failed += 1;
        self.error(error);
    }

    /// Records a wrong answer found outside the measured operations (an
    /// oracle or reference mismatch).
    pub fn error(&mut self, error: impl Into<String>) {
        let error = error.into();
        if self.errors.len() < 20 {
            self.errors.push(error);
        } else if self.errors.len() == 20 {
            self.errors.push("… further errors suppressed".into());
        }
    }

    /// Whether every answer was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The human-readable block: one line per metric, detail and error.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (kind, list) in [("metric", &self.metrics), ("detail", &self.details)] {
            for m in list {
                out.push(format!(
                    "{kind} {} = {} {} (n={})",
                    m.name, m.value, m.unit, m.samples
                ));
            }
        }
        out.push(format!(
            "ops attempted={} failed={}",
            self.attempted, self.failed
        ));
        if let Some(why) = &self.invalid {
            out.push(format!("INVALID run: {why}"));
        }
        out.extend(self.errors.iter().map(|e| format!("error {e}")));
        out
    }

    /// The final machine-readable line.
    pub fn summary(&self) -> Json {
        json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let v = json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", json::s(m.unit)),
                            ]);
                            (m.name.clone(), v)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// One line of a record file: the run with its provenance.
    pub fn record(&self, provenance: Vec<(&str, Json)>) -> Json {
        let list = |ms: &[Metric]| {
            Json::Obj(
                ms.iter()
                    .map(|m| {
                        let v = json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", json::s(m.unit)),
                            ("samples", Json::Num(m.samples as f64)),
                        ]);
                        (m.name.clone(), v)
                    })
                    .collect(),
            )
        };
        let mut fields = provenance;
        fields.extend([
            ("valid", Json::Bool(self.invalid.is_none())),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", list(&self.metrics)),
            ("details", list(&self.details)),
        ]);
        json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_time_is_scaled_by_its_own_factor() {
        let s = |raw, scale| Sample { raw, scale };
        let e2e = EndToEnd {
            setup_s: 2.0,
            latency_ms: vec![s(10.0, 1.0), s(30.0, 0.5), s(40.0, 0.25)],
            cpu_ms: vec![s(8.0, 0.5)],
            ..EndToEnd::default()
        };
        let value = |list: Vec<Metric>, name: &str| {
            list.into_iter()
                .find(|m| m.name == name)
                .map(|m| (m.value, m.samples))
        };
        // Scaled 10, 15 and 10; raw 10, 30 and 40.
        assert_eq!(value(e2e.metrics(), "latency_ms_p50"), Some((10.0, 3)));
        assert_eq!(value(e2e.raw(), "raw.latency_ms_p50"), Some((30.0, 3)));
        assert_eq!(value(e2e.metrics(), "cpu_ms_per_job"), Some((4.0, 3)));
        // No kernel sample: the set-up cannot be scaled.
        assert!(value(e2e.metrics(), "setup_s").unwrap().0.is_nan());
    }

    #[test]
    fn summary_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            metrics: vec![metric("latency_ms_p50", "ms", 1.25, 10)],
            attempted: 10,
            ..Outcome::default()
        };
        let line = o.summary().render();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_ms_p50":{"value":1.25,"unit":"ms"}}}"#
        );
        o.fail("cut mismatch");
        assert!(!o.correct());
        assert!(o.lines().iter().any(|l| l == "error cut mismatch"));
    }
}
