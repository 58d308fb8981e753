//! Deterministic sweep planning for the coordinator's `batch` verb.
//!
//! One `batch` request names a stored circuit and a sweep over
//! seeds × methods × ε. The planner expands it into an ordered list of
//! **sub-jobs** — each an ordinary `submit` against the same
//! `circuit_id` — and merges the sub-job results back into per-group
//! winners with a total order, so the final answer is bit-identical to
//! running the whole sweep sequentially in one process, no matter how
//! many workers executed it, in what order, or how often sub-jobs were
//! rescheduled after a worker loss.
//!
//! # Why the merge is deterministic
//!
//! A sweep **group** is one (engine, ε) point; its `runs` multi-start
//! runs are split into chunks of `chunk` consecutive runs. Run `r` of a
//! sequential `run_multi` uses seed `base.wrapping_add(r)`, and its
//! winner is the *first* run with the minimum cut. A chunk starting at
//! run offset `o` is submitted as `runs=len seed=base+o`, so the worker
//! executes exactly runs `o..o+len` of the sequential schedule and —
//! by the same `run_multi` rule — reports the chunk's first-minimum as
//! its winner. Merging a group by `(cut, chunk index)` therefore picks
//! the first chunk containing the global first-minimum run, whose
//! reported winner *is* that run. Concatenating `run_cuts` in chunk
//! order reproduces the sequential trajectory, and the winning chunk's
//! `assignment_hash` equals the sequential winner's hash.
//!
//! Across groups (different engines or ε are different optimisation
//! problems, so no sequential-equivalence constraint applies) the batch
//! winner is picked by the total order **(cut, imbalance, sub-job
//! index)** — imbalance breaking cut ties toward the more even
//! partition, the planner-assigned index making the last tie-break
//! structural rather than arrival-ordered.

use crate::wire::{served_engine, SubmitRequest, WireError};
use prop_engines::{EngineName, Job};

/// Cap on the number of sub-jobs one `batch` request may expand into —
/// bounds the coordinator's per-batch memory against hostile specs.
pub const MAX_SWEEP_SUB_JOBS: usize = 4096;

/// The fields of a `batch` line: a sweep specification.
#[derive(Clone, PartialEq, Debug)]
pub struct BatchRequest {
    /// Stored circuit the whole sweep runs against.
    pub circuit_id: String,
    /// Engines dimension (served engines, e.g. `prop`, `fm`, `ml`).
    pub engines: Vec<EngineName>,
    /// Balance (ε) dimension: `(r1, r2)` ratio pairs.
    pub eps: Vec<(f64, f64)>,
    /// Seeds dimension: multi-start runs per (engine, ε) group.
    pub runs: usize,
    /// Base seed; run `r` of every group uses `seed.wrapping_add(r)`.
    pub seed: u64,
    /// Consecutive runs per sub-job (the sharding grain).
    pub chunk: usize,
    /// Per-sub-job execution deadline in milliseconds; 0 disables it.
    pub timeout_ms: u64,
}

impl Default for BatchRequest {
    fn default() -> Self {
        BatchRequest {
            circuit_id: String::new(),
            engines: vec![EngineName::Prop],
            eps: vec![(0.45, 0.55)],
            runs: 1,
            seed: 0,
            chunk: 1,
            timeout_ms: 0,
        }
    }
}

/// One schedulable unit: a chunk of consecutive runs of one group,
/// rendered as an ordinary `submit` line against the stored circuit.
#[derive(Clone, PartialEq, Debug)]
pub struct SubJob {
    /// Position in the planner's global order (the final tie-breaker).
    pub index: usize,
    /// Index into [`BatchRequest::groups`].
    pub group: usize,
    /// First sequential run index of this chunk within its group.
    pub run_offset: usize,
    /// The submit this sub-job executes on a worker.
    pub request: SubmitRequest,
}

/// The result fields of one executed sub-job, as reported by a worker.
#[derive(Clone, PartialEq, Debug)]
pub struct SubJobOutcome {
    /// Best cut over the chunk's runs.
    pub cut: f64,
    /// Side sizes of the chunk winner.
    pub sides: (usize, usize),
    /// Total passes across the chunk's runs.
    pub passes: usize,
    /// Final cut of each run in the chunk, in run order.
    pub run_cuts: Vec<f64>,
    /// FNV-1a hash of the chunk winner's assignment.
    pub assignment_hash: u64,
}

/// A merged (engine, ε) group: bit-identical to a sequential
/// `run_multi` of the same `runs` and base seed.
#[derive(Clone, PartialEq, Debug)]
pub struct GroupResult {
    /// Engine.
    pub engine: EngineName,
    /// Lower balance ratio.
    pub r1: f64,
    /// Upper balance ratio.
    pub r2: f64,
    /// Best cut over the group's runs.
    pub cut: f64,
    /// Side sizes of the group winner.
    pub sides: (usize, usize),
    /// Total passes across the group's runs.
    pub passes: usize,
    /// Per-run cuts, concatenated in sequential run order.
    pub run_cuts: Vec<f64>,
    /// Assignment hash of the group winner.
    pub assignment_hash: u64,
    /// Global index of the sub-job that produced the winner.
    pub winner_sub_job: usize,
}

impl GroupResult {
    /// `|a - b|` of the winner's side sizes (the cut tie-breaker).
    pub fn imbalance(&self) -> usize {
        self.sides.0.abs_diff(self.sides.1)
    }
}

/// The merged batch: every group plus the overall winner.
#[derive(Clone, PartialEq, Debug)]
pub struct BatchResult {
    /// One merged result per sweep group, in group order.
    pub groups: Vec<GroupResult>,
    /// Index into `groups` of the overall winner under
    /// (cut, imbalance, sub-job index).
    pub best: usize,
}

impl BatchResult {
    /// The overall winning group.
    pub fn winner(&self) -> &GroupResult {
        &self.groups[self.best]
    }
}

impl BatchRequest {
    /// Renders the request as one wire line (without the trailing `\n`).
    pub fn render(&self) -> String {
        let engines: Vec<&str> = self.engines.iter().map(|name| name.as_str()).collect();
        let engines = engines.join(",");
        let eps = self
            .eps
            .iter()
            .map(|(r1, r2)| format!("{r1}:{r2}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "batch circuit_id={} engines={engines} eps={eps} runs={} seed={} chunk={} timeout_ms={}",
            self.circuit_id, self.runs, self.seed, self.chunk, self.timeout_ms,
        )
    }

    /// Parses the `key=value` fields of a `batch` line.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on unknown fields or engines, unparsable
    /// ratio pairs, zero chunk, a missing circuit id, a group job that
    /// fails [`Job::validate`] (zero runs, unsatisfiable ratios), or a
    /// sweep that would expand past [`MAX_SWEEP_SUB_JOBS`].
    pub fn parse(fields: &[(&str, &str)]) -> Result<Self, WireError> {
        fn val<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, WireError> {
            v.parse()
                .map_err(|_| WireError::Malformed(format!("bad value {v:?} for {key}")))
        }
        let mut req = BatchRequest::default();
        let mut circuit = None;
        for &(k, v) in fields {
            match k {
                "circuit_id" => circuit = Some(v.to_string()),
                "engines" => {
                    req.engines = v
                        .split(',')
                        .map(|name| {
                            served_engine(name).map_err(|message| {
                                WireError::Malformed(format!("{message} in engines list"))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "eps" => {
                    let mut eps = Vec::new();
                    for pair in v.split(',') {
                        let Some((a, b)) = pair.split_once(':') else {
                            return Err(WireError::Malformed(format!(
                                "bad ε pair {pair:?} (use r1:r2)"
                            )));
                        };
                        eps.push((val("eps", a)?, val("eps", b)?));
                    }
                    req.eps = eps;
                }
                "runs" => req.runs = val(k, v)?,
                "seed" => req.seed = val(k, v)?,
                "chunk" => req.chunk = val(k, v)?,
                "timeout_ms" => req.timeout_ms = val(k, v)?,
                other => return Err(WireError::Malformed(format!("unknown field {other:?}"))),
            }
        }
        req.circuit_id =
            circuit.ok_or_else(|| WireError::Malformed("batch needs circuit_id=<id>".into()))?;
        if req.chunk == 0 {
            return Err(WireError::Malformed("chunk must be at least 1".into()));
        }
        for job in req.groups() {
            job.validate()
                .map_err(|e| WireError::Malformed(e.to_string()))?;
        }
        let chunks_per_group = req.runs.div_ceil(req.chunk);
        let total = req
            .engines
            .len()
            .saturating_mul(req.eps.len())
            .saturating_mul(chunks_per_group);
        if total > MAX_SWEEP_SUB_JOBS {
            return Err(WireError::Malformed(format!(
                "sweep expands to {total} sub-jobs, above the {MAX_SWEEP_SUB_JOBS} cap"
            )));
        }
        Ok(req)
    }

    /// The sweep's (engine, ε) groups, engine-major then ε, in the fixed
    /// order every expansion and merge uses: each is the job a sequential
    /// run of the whole group would be.
    pub fn groups(&self) -> Vec<Job> {
        let mut groups = Vec::with_capacity(self.engines.len() * self.eps.len());
        for &name in &self.engines {
            for &(r1, r2) in &self.eps {
                groups.push(Job {
                    r1,
                    r2,
                    runs: self.runs,
                    seed: self.seed,
                    ..Job::new(name)
                });
            }
        }
        groups
    }

    /// Expands the sweep into its ordered sub-job list: groups in
    /// [`BatchRequest::groups`] order, chunks of consecutive runs within
    /// each group. Deterministic — the global `index` is the merge
    /// tie-breaker.
    pub fn expand(&self) -> Vec<SubJob> {
        let mut jobs = Vec::new();
        for (g, group) in self.groups().into_iter().enumerate() {
            let mut offset = 0;
            while offset < self.runs {
                let len = self.chunk.min(self.runs - offset);
                jobs.push(SubJob {
                    index: jobs.len(),
                    group: g,
                    run_offset: offset,
                    request: SubmitRequest {
                        job: Job {
                            runs: len,
                            seed: self.seed.wrapping_add(offset as u64),
                            ..group.clone()
                        },
                        timeout_ms: self.timeout_ms,
                        circuit_id: self.circuit_id.clone(),
                        wait: true,
                        ..SubmitRequest::default()
                    },
                });
                offset += len;
            }
        }
        jobs
    }

    /// Total runs across the whole sweep.
    pub fn total_runs(&self) -> usize {
        self.engines.len() * self.eps.len() * self.runs
    }
}

/// Merges completed sub-job outcomes back into per-group winners and an
/// overall batch winner. `outcomes[i]` must be the result of `jobs[i]`;
/// `jobs` must be one batch's full [`BatchRequest::expand`] output.
///
/// Within a group the winner is the first sub-job (planner order) with
/// the minimum cut — the rule that makes the merge bit-identical to a
/// sequential `run_multi` (see the module docs). Across groups the
/// winner is the minimum under (cut, imbalance, sub-job index).
pub fn merge(spec: &BatchRequest, jobs: &[SubJob], outcomes: &[SubJobOutcome]) -> BatchResult {
    assert_eq!(jobs.len(), outcomes.len(), "one outcome per sub-job");
    let mut groups: Vec<GroupResult> = spec
        .groups()
        .into_iter()
        .map(|g| GroupResult {
            engine: g.spec.name,
            r1: g.r1,
            r2: g.r2,
            cut: f64::INFINITY,
            sides: (0, 0),
            passes: 0,
            run_cuts: Vec::new(),
            assignment_hash: 0,
            winner_sub_job: usize::MAX,
        })
        .collect();
    for (job, outcome) in jobs.iter().zip(outcomes) {
        let group = &mut groups[job.group];
        group.run_cuts.extend_from_slice(&outcome.run_cuts);
        group.passes += outcome.passes;
        // Strictly-lower wins; ties keep the earlier sub-job. Jobs
        // arrive here in planner order, so this is (cut, chunk index).
        if outcome.cut < group.cut {
            group.cut = outcome.cut;
            group.sides = outcome.sides;
            group.assignment_hash = outcome.assignment_hash;
            group.winner_sub_job = job.index;
        }
    }
    let best = groups
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.cut
                .total_cmp(&b.cut)
                .then(a.imbalance().cmp(&b.imbalance()))
                .then(a.winner_sub_job.cmp(&b.winner_sub_job))
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    BatchResult { groups, best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_core::{assignment_hash, CancelToken, MultiRunReport, ParallelPolicy};
    use prop_engines::JobReport;
    use prop_netlist::generate::{generate, GeneratorConfig};

    fn spec() -> BatchRequest {
        BatchRequest {
            circuit_id: "c".into(),
            engines: vec![EngineName::Fm, EngineName::Prop],
            eps: vec![(0.45, 0.55), (0.4, 0.6)],
            runs: 8,
            seed: 41,
            chunk: 3,
            timeout_ms: 0,
        }
    }

    #[test]
    fn expansion_is_ordered_and_complete() {
        let spec = spec();
        let jobs = spec.expand();
        // 2 engines × 2 ε × ceil(8/3) chunks.
        assert_eq!(jobs.len(), 2 * 2 * 3);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.index, i);
            assert_eq!(job.request.circuit_id, "c");
            assert!(job.request.wait);
            assert_eq!(job.request.job.seed, 41 + job.run_offset as u64);
        }
        // Group run counts partition the sweep's runs exactly.
        for g in 0..4 {
            let total: usize = jobs
                .iter()
                .filter(|j| j.group == g)
                .map(|j| j.request.job.runs)
                .sum();
            assert_eq!(total, 8);
        }
        assert_eq!(spec.total_runs(), 32);
        // Engine-major group order.
        let groups = spec.groups();
        assert_eq!(groups[0].spec.name, EngineName::Fm);
        assert_eq!(groups[1].spec.name, EngineName::Fm);
        assert_eq!((groups[1].r1, groups[1].r2), (0.4, 0.6));
        assert_eq!(groups[2].spec.name, EngineName::Prop);
    }

    /// The planner's core promise: executing the expansion chunk by
    /// chunk and merging reproduces one sequential `run_multi` per
    /// group bit for bit, at every chunk size.
    #[test]
    fn merge_is_bit_identical_to_sequential_run_multi() {
        let graph = generate(&GeneratorConfig::new(60, 70, 240).with_seed(9)).unwrap();
        let token = CancelToken::new();
        let run = |job: &Job| -> MultiRunReport {
            match job.run(&graph, ParallelPolicy::Sequential, &token).unwrap() {
                JobReport::TwoWay(report) => report,
                JobReport::Kway(_) => panic!("a sweep group is a bipartition"),
            }
        };
        for chunk in [1, 2, 3, 5, 8] {
            let spec = BatchRequest {
                chunk,
                ..spec()
            };
            let jobs = spec.expand();
            let outcomes: Vec<SubJobOutcome> = jobs
                .iter()
                .map(|job| {
                    let report = run(&job.request.job);
                    SubJobOutcome {
                        cut: report.result.cut_cost,
                        sides: (
                            report.result.partition.count(prop_core::Side::A),
                            report.result.partition.count(prop_core::Side::B),
                        ),
                        passes: report.result.total_passes,
                        run_cuts: report.result.run_cuts.clone(),
                        assignment_hash: assignment_hash(report.result.partition.sides()),
                    }
                })
                .collect();
            let merged = merge(&spec, &jobs, &outcomes);
            for (g, group) in spec.groups().iter().enumerate() {
                let direct = run(group);
                let got = &merged.groups[g];
                assert_eq!(got.cut, direct.result.cut_cost, "chunk={chunk} group={g}");
                assert_eq!(got.run_cuts, direct.result.run_cuts, "chunk={chunk} group={g}");
                assert_eq!(
                    got.assignment_hash,
                    assignment_hash(direct.result.partition.sides()),
                    "chunk={chunk} group={g}"
                );
                assert_eq!(got.passes, direct.result.total_passes);
            }
            // The overall winner obeys (cut, imbalance, sub-job index).
            let w = merged.winner();
            for g in &merged.groups {
                assert!(
                    w.cut < g.cut
                        || (w.cut == g.cut && w.imbalance() < g.imbalance())
                        || (w.cut == g.cut
                            && w.imbalance() == g.imbalance()
                            && w.winner_sub_job <= g.winner_sub_job)
                );
            }
        }
    }

    #[test]
    fn parse_and_render_roundtrip() {
        let spec = spec();
        let line = spec.render();
        let fields: Vec<(&str, &str)> = line
            .split(' ')
            .skip(1)
            .map(|t| t.split_once('=').unwrap())
            .collect();
        assert_eq!(BatchRequest::parse(&fields).unwrap(), spec);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let cases: &[&[(&str, &str)]] = &[
            &[],                                        // no circuit
            &[("circuit_id", "c"), ("runs", "0")],      // zero runs
            &[("circuit_id", "c"), ("chunk", "0")],     // zero chunk
            &[("circuit_id", "c"), ("engines", "sa2")], // unknown engine
            &[("circuit_id", "c"), ("eps", "0.45")],    // not a pair
            &[("circuit_id", "c"), ("eps", "0.6:0.4")], // inverted
            &[("circuit_id", "c"), ("eps", "0:0.5")],   // r1 out of range
            &[("circuit_id", "c"), ("eps", "0.3:0.4")], // no bisection fits
            &[("circuit_id", "c"), ("bogus", "1")],     // unknown field
            &[("circuit_id", "c"), ("runs", "9999"), ("chunk", "1")], // over cap
        ];
        for fields in cases {
            assert!(BatchRequest::parse(fields).is_err(), "{fields:?}");
        }
    }
}
