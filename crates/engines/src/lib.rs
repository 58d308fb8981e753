//! `prop-engines` — the one table from engine name to engine, and the
//! one job path that runs it.
//!
//! Every surface that picks a partitioner by name builds it here: the
//! `prop` CLI (`--method`), the daemon and its cluster batch planner
//! (`engine=`, `engines=`), and the experiment binaries. A name therefore
//! means the same engine, with the same configuration, everywhere. The
//! crate sits just above the engine crates because no existing crate
//! sees all four families: PROP (`prop-core`), the FM/LA/KL/SA baselines
//! (`prop-fm`), the multilevel V-cycle and the one-shot spectral methods.
//!
//! A [`Job`] is one partitioning request: an engine plus `k`, budgets,
//! the balance window, runs and seed. The CLI's `partition` and `submit`,
//! a wire `submit` line and a batch sub-job all parse into one, and
//! [`Job::run`] is the only place that validates it, checks the engine's
//! input capabilities, and routes it to the multi-start harness or the
//! k-way driver.
//!
//! ```
//! use prop_core::{CancelToken, ParallelPolicy};
//! use prop_engines::{Engine, EngineName, EngineSpec, Job, JobReport};
//! use prop_netlist::generate::{generate, GeneratorConfig};
//!
//! let name: EngineName = "la2".parse().unwrap();
//! assert_eq!(name.to_string(), "la2");
//! assert!(matches!(EngineSpec::new(name).build(0, 20), Engine::Iterative(_)));
//! assert!(!EngineName::Eig1.is_iterative());
//!
//! let graph = generate(&GeneratorConfig::new(80, 90, 300).with_seed(5)).unwrap();
//! let job = Job { runs: 4, ..Job::new(name) };
//! let report = job.run(&graph, ParallelPolicy::Sequential, &CancelToken::new()).unwrap();
//! assert!(matches!(report, JobReport::TwoWay(r) if r.result.run_cuts.len() == 4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use prop_core::{
    check_job_rules, partition_kway_cancellable, BalanceConstraint, CancelToken, GlobalPartitioner,
    KwayConfig, KwayReport, MultiRunReport, ParallelPolicy, PartitionError, Partitioner, Prop,
    PropConfig, RunStatus,
};
use prop_fm::{FmBucket, FmTree, Kl, La, SimulatedAnnealing};
use prop_multilevel::{Multilevel, MultilevelConfig};
use prop_netlist::Hypergraph;
use prop_spectral::{Eig1, MeloStyle, ParaboliStyle, WindowStyle};
use std::fmt;
use std::str::FromStr;

/// A registered engine. [`Display`](fmt::Display) and [`FromStr`]
/// round-trip over the CLI/wire names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EngineName {
    /// PROP with the calibrated probability floor (the default engine).
    Prop,
    /// PROP with the paper's published constants.
    PropPaper,
    /// Bucket-list FM.
    Fm,
    /// Tree-ordered FM.
    FmTree,
    /// Krishnamurthy lookahead, depth 2.
    La2,
    /// Krishnamurthy lookahead, depth 3.
    La3,
    /// Kernighan–Lin.
    Kl,
    /// Simulated annealing.
    Sa,
    /// Spectral EIG1 (one-shot).
    Eig1,
    /// MELO-style spectral ordering (one-shot).
    Melo,
    /// PARABOLI-style placement ordering (one-shot).
    Paraboli,
    /// WINDOW-style ordering plus FM polish (one-shot).
    Window,
    /// The multilevel V-cycle, one V-cycle per multi-start run.
    Ml,
}

impl EngineName {
    /// Every registered engine, in listing order; an engine's position is
    /// its [`index`](EngineName::index).
    pub const ALL: [EngineName; 13] = [
        EngineName::Prop,
        EngineName::PropPaper,
        EngineName::Fm,
        EngineName::FmTree,
        EngineName::La2,
        EngineName::La3,
        EngineName::Kl,
        EngineName::Sa,
        EngineName::Eig1,
        EngineName::Melo,
        EngineName::Paraboli,
        EngineName::Window,
        EngineName::Ml,
    ];

    /// The CLI/wire name.
    pub const fn as_str(self) -> &'static str {
        match self {
            EngineName::Prop => "prop",
            EngineName::PropPaper => "prop-paper",
            EngineName::Fm => "fm",
            EngineName::FmTree => "fm-tree",
            EngineName::La2 => "la2",
            EngineName::La3 => "la3",
            EngineName::Kl => "kl",
            EngineName::Sa => "sa",
            EngineName::Eig1 => "eig1",
            EngineName::Melo => "melo",
            EngineName::Paraboli => "paraboli",
            EngineName::Window => "window",
            EngineName::Ml => "ml",
        }
    }

    /// Dense index into per-engine arrays: the position in
    /// [`ALL`](EngineName::ALL).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// `true` for iterative improvers, which run through the multi-start
    /// harness and can drive k-way recursion; `false` for the one-shot
    /// global methods.
    pub const fn is_iterative(self) -> bool {
        !matches!(
            self,
            EngineName::Eig1 | EngineName::Melo | EngineName::Paraboli | EngineName::Window
        )
    }

    /// What this engine needs of a netlist beyond validity: the one
    /// statement of every engine's input capabilities. LA-k's gain
    /// vectors count nets, so it needs unit net costs; KL's pair swaps
    /// keep side counts, not side weights, so it needs unit node sizes.
    /// Every other engine takes any valid netlist.
    pub const fn needs(self) -> InputNeeds {
        InputNeeds {
            unit_net_costs: matches!(self, EngineName::La2 | EngineName::La3),
            unit_node_sizes: matches!(self, EngineName::Kl),
        }
    }

    /// Whether this engine can take `graph`, by its [`needs`](EngineName::needs).
    ///
    /// # Errors
    ///
    /// [`JobError::Unsupported`] naming what the engine needs.
    pub fn accepts(self, graph: &Hypergraph) -> Result<(), JobError> {
        let needs = self.needs();
        let missing = if needs.unit_net_costs && !graph.has_unit_weights() {
            "unit net costs"
        } else if needs.unit_node_sizes && !graph.has_unit_node_weights() {
            "unit node sizes"
        } else {
            return Ok(());
        };
        Err(JobError::Unsupported(format!("engine {self} needs {missing}")))
    }

    /// The names of the engines `keep` accepts, comma-separated in
    /// listing order, for error messages.
    pub fn names(keep: impl Fn(EngineName) -> bool) -> String {
        let names: Vec<&str> = EngineName::ALL
            .into_iter()
            .filter(|&name| keep(name))
            .map(EngineName::as_str)
            .collect();
        names.join(", ")
    }
}

impl fmt::Display for EngineName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The input properties an engine relies on; see [`EngineName::needs`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InputNeeds {
    /// Every net costs 1.
    pub unit_net_costs: bool,
    /// Every node has size 1.
    pub unit_node_sizes: bool,
}

/// A name that no registered engine carries.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnknownEngine(pub String);

impl fmt::Display for UnknownEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown engine {:?} (use {})",
            self.0,
            EngineName::names(|_| true)
        )
    }
}

impl std::error::Error for UnknownEngine {}

impl FromStr for EngineName {
    type Err = UnknownEngine;

    fn from_str(s: &str) -> Result<Self, UnknownEngine> {
        EngineName::ALL
            .into_iter()
            .find(|name| name.as_str() == s)
            .ok_or_else(|| UnknownEngine(s.to_string()))
    }
}

/// A built engine.
pub enum Engine {
    /// An iterative improver for the multi-start harness.
    Iterative(Box<dyn Partitioner>),
    /// A one-shot global method.
    Global(Box<dyn GlobalPartitioner>),
}

impl Engine {
    /// The iterative engine, or `None` for a one-shot global method.
    pub fn iterative(self) -> Option<Box<dyn Partitioner>> {
        match self {
            Engine::Iterative(engine) => Some(engine),
            Engine::Global(_) => None,
        }
    }
}

/// A registered engine plus the multilevel knobs, which only `ml` reads.
#[derive(Clone, PartialEq, Debug)]
pub struct EngineSpec {
    /// The engine.
    pub name: EngineName,
    /// V-cycle knobs for [`EngineName::Ml`]; the engine seed is replaced
    /// by the `seed` given to [`build`](EngineSpec::build).
    pub ml: MultilevelConfig,
}

impl EngineSpec {
    /// `name` with the default multilevel knobs.
    pub fn new(name: EngineName) -> Self {
        EngineSpec {
            name,
            ml: MultilevelConfig::default(),
        }
    }

    /// Builds the engine. `seed` is the `ml` V-cycle's engine seed and
    /// WINDOW's ordering seed, and `runs` is WINDOW's number of
    /// ordering/FM runs. Every other engine ignores both: iterative
    /// engines take their runs and seeds from the multi-start harness.
    pub fn build(&self, seed: u64, runs: usize) -> Engine {
        let iterative: Box<dyn Partitioner> = match self.name {
            EngineName::Prop => Box::new(Prop::new(PropConfig::calibrated())),
            EngineName::PropPaper => Box::new(Prop::new(PropConfig::default())),
            EngineName::Fm => Box::new(FmBucket::default()),
            EngineName::FmTree => Box::new(FmTree::default()),
            EngineName::La2 => Box::new(La::new(2)),
            EngineName::La3 => Box::new(La::new(3)),
            EngineName::Kl => Box::new(Kl::default()),
            EngineName::Sa => Box::new(SimulatedAnnealing::default()),
            EngineName::Ml => Box::new(Multilevel::standard(MultilevelConfig { seed, ..self.ml })),
            EngineName::Eig1 => return Engine::Global(Box::new(Eig1::default())),
            EngineName::Melo => return Engine::Global(Box::new(MeloStyle::default())),
            EngineName::Paraboli => return Engine::Global(Box::new(ParaboliStyle::default())),
            EngineName::Window => return Engine::Global(Box::new(WindowStyle { runs, seed })),
        };
        Engine::Iterative(iterative)
    }
}

/// One partitioning job: an engine and the best-of-R protocol around it
/// (PAPER.md §4), for two parts or, by recursive bisection, for `k`.
#[derive(Clone, PartialEq, Debug)]
pub struct Job {
    /// The engine and its multilevel knobs.
    pub spec: EngineSpec,
    /// Number of parts; see [`Job::is_kway`].
    pub k: usize,
    /// Per-part area budgets, one per part. `Some` routes the job through
    /// the k-way driver even at `k = 2`.
    pub budgets: Option<Vec<f64>>,
    /// Lower balance ratio.
    pub r1: f64,
    /// Upper balance ratio.
    pub r2: f64,
    /// Best-of-R multi-start runs (per bisection on the k-way path).
    pub runs: usize,
    /// Base seed: run `r` starts from seed `seed + r`.
    pub seed: u64,
}

impl Job {
    /// One run of `name` into two parts under the 45–55% window, from
    /// seed 0.
    pub fn new(name: EngineName) -> Self {
        Job {
            spec: EngineSpec::new(name),
            k: 2,
            budgets: None,
            r1: 0.45,
            r2: 0.55,
            runs: 1,
            seed: 0,
        }
    }

    /// `true` when the job runs the recursive k-way driver: `k != 2` or
    /// any budget vector. A uniform `k = 2` job runs the bipartition
    /// harness directly.
    pub fn is_kway(&self) -> bool {
        self.k != 2 || self.budgets.is_some()
    }

    /// Checks the rules a job must meet before any netlist is read: at
    /// least one run, `k >= 2`, one finite positive budget per part,
    /// satisfiable ratios, and an iterative engine on the k-way path.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] naming the broken rule.
    pub fn validate(&self) -> Result<(), JobError> {
        let invalid = |message: String| Err(JobError::Invalid(message));
        let rules = check_job_rules(
            self.runs,
            Some((self.r1, self.r2)),
            self.k,
            self.budgets.as_deref(),
        );
        match rules {
            Ok(()) => {}
            Err(PartitionError::InvalidConfig { message }) => return invalid(message),
            Err(e) => return invalid(e.to_string()),
        }
        if self.k < 2 {
            return invalid("k must be at least 2".into());
        }
        if self.is_kway() && !self.spec.name.is_iterative() {
            return invalid(format!(
                "engine {} cannot drive k-way recursion (use an iterative engine)",
                self.spec.name
            ));
        }
        Ok(())
    }

    /// Runs the job on `graph`: validates it, checks that the engine
    /// [`accepts`](EngineName::accepts) the netlist, then runs the
    /// multi-start harness (or, for a [k-way](Job::is_kway) job, the
    /// recursive driver) with its runs and subtrees fanned out as
    /// `policy` says. The report is bit-identical at every policy, and
    /// under a token that never trips it equals an uncancellable run.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] from [`validate`](Job::validate),
    /// [`JobError::Unsupported`] for a netlist the engine cannot take,
    /// and [`JobError::Partition`] from the harness or the driver (for
    /// example more parts than nodes, or budgets that admit no packing).
    pub fn run(
        &self,
        graph: &Hypergraph,
        policy: ParallelPolicy,
        token: &CancelToken,
    ) -> Result<JobReport, JobError> {
        self.validate()?;
        self.spec.name.accepts(graph)?;
        let report = match self.spec.build(self.seed, self.runs) {
            Engine::Iterative(engine) if self.is_kway() => {
                let config = KwayConfig {
                    k: self.k,
                    budgets: self.budgets.clone(),
                    runs: self.runs,
                    seed: self.seed,
                    r1: self.r1,
                    r2: self.r2,
                    policy,
                };
                JobReport::Kway(partition_kway_cancellable(graph, engine.as_ref(), &config, token)?)
            }
            Engine::Iterative(engine) => {
                let balance = BalanceConstraint::weighted(self.r1, self.r2, graph)?;
                JobReport::TwoWay(engine.run_multi_cancellable(
                    graph, balance, self.runs, self.seed, policy, token,
                )?)
            }
            // `validate` keeps one-shot methods off the k-way path.
            Engine::Global(engine) => {
                let balance = BalanceConstraint::weighted(self.r1, self.r2, graph)?;
                JobReport::TwoWay(MultiRunReport {
                    result: engine.partition(graph, balance)?,
                    status: RunStatus::Completed,
                    started_runs: 1,
                })
            }
        };
        Ok(report)
    }
}

impl Default for Job {
    /// [`Job::new`] with the default engine, `prop`.
    fn default() -> Self {
        Job::new(EngineName::Prop)
    }
}

/// What [`Job::run`] produced.
#[derive(Clone, PartialEq, Debug)]
pub enum JobReport {
    /// A bipartition: the best of the job's runs.
    TwoWay(MultiRunReport),
    /// A k-way partition from the recursive driver.
    Kway(KwayReport),
}

impl JobReport {
    /// `Completed`, or `Cancelled` when the token tripped first.
    pub fn status(&self) -> RunStatus {
        match self {
            JobReport::TwoWay(report) => report.status,
            JobReport::Kway(report) => report.status,
        }
    }
}

/// Why a job did not run.
#[derive(Clone, PartialEq, Debug)]
pub enum JobError {
    /// The job breaks one of [`Job::validate`]'s rules.
    Invalid(String),
    /// The engine cannot take this netlist; see [`EngineName::accepts`].
    Unsupported(String),
    /// The harness or the k-way driver refused the job on this netlist.
    Partition(PartitionError),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Invalid(message) | JobError::Unsupported(message) => f.write_str(message),
            JobError::Partition(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JobError {}

impl From<PartitionError> for JobError {
    fn from(e: PartitionError) -> Self {
        JobError::Partition(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netlist::generate::{generate, GeneratorConfig};

    #[test]
    fn every_name_builds_the_engine_it_names() {
        let built = EngineName::ALL.map(|name| match EngineSpec::new(name).build(0, 20) {
            Engine::Iterative(engine) => (engine.name().to_string(), true),
            Engine::Global(engine) => (engine.name().to_string(), false),
        });
        let expect = [
            "PROP",
            "PROP",
            "FM-bucket",
            "FM-tree",
            "LA-2",
            "LA-3",
            "KL",
            "SA",
            "EIG1",
            "MELO",
            "PARABOLI",
            "WINDOW",
            "ML",
        ];
        for ((name, (built, iterative)), expect) in EngineName::ALL.iter().zip(built).zip(expect) {
            assert_eq!(built, expect, "{name}");
            assert_eq!(iterative, name.is_iterative(), "{name}");
        }
        assert!("PROP".parse::<EngineName>().is_err());
    }

    #[test]
    fn prop_is_calibrated_and_prop_paper_keeps_the_published_constants() {
        let graph = generate(&GeneratorConfig::new(80, 90, 300).with_seed(2)).unwrap();
        let balance = BalanceConstraint::new(0.45, 0.55, 80).unwrap();
        for (name, config) in [
            (EngineName::Prop, PropConfig::calibrated()),
            (EngineName::PropPaper, PropConfig::default()),
        ] {
            let built = EngineSpec::new(name).build(0, 0).iterative().unwrap();
            let direct = Prop::new(config).run_multi(&graph, balance, 3, 5).unwrap();
            assert_eq!(
                built.run_multi(&graph, balance, 3, 5).unwrap(),
                direct,
                "{name}"
            );
        }
    }

    #[test]
    fn validate_holds_every_job_rule() {
        let ok = Job::default();
        assert_eq!(ok.validate(), Ok(()));
        let refused = [
            Job { runs: 0, ..ok.clone() },
            Job { k: 1, ..ok.clone() },
            Job { budgets: Some(vec![1.0]), ..ok.clone() },
            Job { budgets: Some(vec![1.0, f64::NAN]), ..ok.clone() },
            Job { budgets: Some(vec![1.0, 0.0]), ..ok.clone() },
            Job { r1: 0.6, r2: 0.7, ..ok.clone() },
            Job { r1: 0.0, ..ok.clone() },
            Job { k: 3, ..Job::new(EngineName::Eig1) },
            Job { budgets: Some(vec![5.0, 5.0]), ..Job::new(EngineName::Window) },
        ];
        for job in refused {
            assert!(matches!(job.validate(), Err(JobError::Invalid(_))), "{job:?}");
        }
        // Exact bisection and a one-shot 2-way job are valid.
        assert_eq!(Job { r1: 0.5, r2: 0.5, ..ok.clone() }.validate(), Ok(()));
        assert_eq!(Job::new(EngineName::Eig1).validate(), Ok(()));
    }

    #[test]
    fn k_or_budgets_route_to_the_kway_driver() {
        assert!(!Job::default().is_kway());
        assert!(Job { k: 3, ..Job::default() }.is_kway());
        assert!(Job { budgets: Some(vec![5.0, 5.0]), ..Job::default() }.is_kway());
        let graph = generate(&GeneratorConfig::new(40, 44, 150).with_seed(1)).unwrap();
        let token = CancelToken::new();
        let run = |job: Job| job.run(&graph, ParallelPolicy::Sequential, &token).unwrap();
        assert!(matches!(run(Job::default()), JobReport::TwoWay(_)));
        assert!(matches!(run(Job { k: 3, ..Job::default() }), JobReport::Kway(_)));
        // More parts than nodes is the driver's typed error.
        let too_many = Job { k: 41, ..Job::default() }.run(&graph, ParallelPolicy::Sequential, &token);
        assert!(matches!(too_many, Err(JobError::Partition(_))));
    }

    #[test]
    fn ml_knobs_reach_the_v_cycle() {
        let graph = generate(&GeneratorConfig::new(80, 90, 300).with_seed(4)).unwrap();
        let balance = BalanceConstraint::new(0.45, 0.55, 80).unwrap();
        let knobs = MultilevelConfig {
            coarsest_nodes: 16,
            coarsest_starts: 2,
            ..MultilevelConfig::default()
        };
        let job = Job {
            spec: EngineSpec {
                name: EngineName::Ml,
                ml: knobs,
            },
            runs: 2,
            seed: 9,
            ..Job::default()
        };
        let report = job
            .run(&graph, ParallelPolicy::Sequential, &CancelToken::new())
            .unwrap();
        let JobReport::TwoWay(report) = report else {
            panic!("a k = 2 job is a bipartition")
        };
        assert_eq!(report.status, RunStatus::Completed);
        let direct = Multilevel::standard(MultilevelConfig { seed: 9, ..knobs })
            .run_multi(&graph, balance, 2, 9)
            .unwrap();
        assert_eq!(report.result, direct);
    }
}
