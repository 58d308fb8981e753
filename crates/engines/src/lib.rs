//! `prop-engines` — the one table from engine name to engine.
//!
//! Every surface that picks a partitioner by name builds it here: the
//! `prop` CLI (`--method`), the daemon and its cluster batch planner
//! (`engine=`, `engines=`), and the experiment binaries. A name therefore
//! means the same engine, with the same configuration, everywhere. The
//! crate sits just above the engine crates because no existing crate
//! sees all four families: PROP (`prop-core`), the FM/LA/KL/SA baselines
//! (`prop-fm`), the multilevel V-cycle and the one-shot spectral methods.
//!
//! ```
//! use prop_engines::{Engine, EngineName, EngineSpec};
//!
//! let name: EngineName = "la2".parse().unwrap();
//! assert_eq!(name.to_string(), "la2");
//! assert!(matches!(EngineSpec::new(name).build(0, 20), Engine::Iterative(_)));
//! assert!(!EngineName::Eig1.is_iterative());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use prop_core::{GlobalPartitioner, Partitioner, Prop, PropConfig};
use prop_fm::{FmBucket, FmTree, Kl, La, SimulatedAnnealing};
use prop_multilevel::{Multilevel, MultilevelConfig};
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

#[cfg(test)]
mod tests {
    use super::*;
    use prop_core::BalanceConstraint;
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
}
