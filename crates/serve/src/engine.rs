//! Engine dispatch for the daemon's workers.
//!
//! Engines come from the `prop-engines` registry, the same table the
//! `prop` CLI builds from, so the daemon serves every iterative engine
//! under its CLI name. Every engine — the multilevel V-cycle included —
//! runs through the cancellable multi-start harness with the
//! [`ParallelPolicy::Sequential`] policy, which the harness guarantees
//! is bit-identical to `run_multi` / `run_multi_parallel` when the token
//! never trips. A result fetched through the daemon therefore matches a
//! direct library call byte for byte (the round-trip tests pin this).

use prop_core::{
    partition_kway_cancellable, BalanceConstraint, CancelToken, KwayConfig, KwayReport,
    MultiRunReport, ParallelPolicy, PartitionError, Partitioner, Side,
};
use prop_engines::{EngineName, EngineSpec};
use prop_multilevel::MultilevelConfig;
use prop_netlist::{format, Hypergraph};

/// Resolves a wire engine name to a served engine: every iterative
/// engine of the registry. The one-shot global methods have no
/// multi-start runs to cancel and cannot drive k-way recursion, so they
/// are refused like unknown names.
///
/// # Errors
///
/// Returns the `unknown_engine` message, which lists the served engines.
pub fn served_engine(name: &str) -> Result<EngineName, String> {
    match name.parse::<EngineName>() {
        Ok(engine) if engine.is_iterative() => Ok(engine),
        _ => Err(format!(
            "unknown engine {name:?} (use {})",
            EngineName::names(EngineName::is_iterative)
        )),
    }
}

/// Builds the iterative engine `name` with the `ml` knobs and `seed` as
/// the V-cycle's engine seed.
fn build(
    name: EngineName,
    seed: u64,
    ml: MultilevelConfig,
) -> Result<Box<dyn Partitioner>, PartitionError> {
    EngineSpec { name, ml }
        .build(seed, 0)
        .iterative()
        .ok_or_else(|| PartitionError::InvalidConfig {
            message: format!("the daemon serves iterative engines only, not {name}"),
        })
}

/// Parses a submitted netlist payload (`hgr` or `netd`).
///
/// # Errors
///
/// Returns the parser's message for malformed payloads and an
/// explanatory message for unknown format names.
pub fn parse_payload(fmt: &str, payload: &str) -> Result<Hypergraph, String> {
    match fmt {
        "hgr" => format::parse_hgr(payload).map_err(|e| e.to_string()),
        "netd" => format::parse_netd(payload).map_err(|e| e.to_string()),
        other => Err(format!("unknown netlist format {other:?}")),
    }
}

/// Runs `engine` on `graph` under `token` with the default multilevel
/// knobs; see [`execute_with`].
///
/// # Errors
///
/// Propagates [`PartitionError`] from the engine.
pub fn execute(
    engine: EngineName,
    graph: &Hypergraph,
    balance: BalanceConstraint,
    runs: usize,
    seed: u64,
    token: &CancelToken,
) -> Result<MultiRunReport, PartitionError> {
    execute_with(engine, graph, balance, runs, seed, token, MultilevelConfig::default())
}

/// Runs `engine` on `graph` under `token`, reporting whether the
/// execution completed or stopped early.
///
/// Every engine uses the cancellable sequential multi-start harness. For
/// the `ml` engine each run is one V-cycle, built from `ml` with its
/// engine seed set to `seed` (matching `prop-cli`); the V-cycle polls the
/// token at every level boundary, so a cancelled run still surfaces a
/// feasible partial partition.
///
/// # Errors
///
/// Propagates [`PartitionError`] from the engine, and returns
/// [`PartitionError::InvalidConfig`] for a one-shot global method.
pub fn execute_with(
    engine: EngineName,
    graph: &Hypergraph,
    balance: BalanceConstraint,
    runs: usize,
    seed: u64,
    token: &CancelToken,
    ml: MultilevelConfig,
) -> Result<MultiRunReport, PartitionError> {
    build(engine, seed, ml)?.run_multi_cancellable(
        graph,
        balance,
        runs,
        seed,
        ParallelPolicy::Sequential,
        token,
    )
}

/// Runs `engine` through the recursive k-way driver under `token`.
///
/// The 2-way engine underneath each bisection is exactly the one
/// [`execute_with`] runs, and the driver's sequential run policy
/// matches it, so a `k = 2` uniform job through this path is
/// bit-identical to the bipartition path at the same seed. The driver
/// stays sequential (no concurrent subtrees) because the daemon's worker
/// pool already owns its concurrency; the result would be identical at
/// any policy.
///
/// # Errors
///
/// Propagates [`PartitionError`] from the driver — including the typed
/// `InfeasibleBudgets` for budget vectors that admit no packing — and
/// returns [`PartitionError::InvalidConfig`] for a one-shot global
/// method.
#[allow(clippy::too_many_arguments)] // a flat job descriptor
pub fn execute_kway(
    engine: EngineName,
    graph: &Hypergraph,
    k: usize,
    budgets: Option<Vec<f64>>,
    r1: f64,
    r2: f64,
    runs: usize,
    seed: u64,
    token: &CancelToken,
    ml: MultilevelConfig,
) -> Result<KwayReport, PartitionError> {
    let config = KwayConfig {
        k,
        budgets,
        runs,
        seed,
        r1,
        r2,
        policy: ParallelPolicy::Sequential,
    };
    partition_kway_cancellable(graph, build(engine, seed, ml)?.as_ref(), &config, token)
}

/// FNV-1a 64 over the node→side assignment (one byte per node, `0` for
/// side A, `1` for side B). Clients compare this against a locally
/// computed hash to confirm bit-identical placement without shipping the
/// whole vector.
pub fn assignment_hash(sides: &[Side]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &s in sides {
        hash ^= u64::from(s == Side::B);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// FNV-1a 64 over a k-way `node → part` assignment. The per-node word is
/// the part number, so for parts `{0, 1}` this equals
/// [`assignment_hash`] over the matching side vector — a `k = 2` k-way
/// job hashes identically to the bipartition path it reduces to.
pub fn kway_assignment_hash(assignment: &[u32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &part in assignment {
        hash ^= u64::from(part);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_core::RunStatus;
    use prop_multilevel::Multilevel;
    use prop_netlist::generate::{generate, GeneratorConfig};

    #[test]
    fn payload_parsing_matches_formats() {
        let g = generate(&GeneratorConfig::new(12, 14, 48).with_seed(5)).unwrap();
        let hgr = format::write_hgr(&g);
        let netd = format::write_netd(&g);
        assert_eq!(parse_payload("hgr", &hgr).unwrap().num_nodes(), 12);
        assert_eq!(parse_payload("netd", &netd).unwrap().num_nodes(), 12);
        assert!(parse_payload("hgr", "not a netlist").is_err());
        assert!(parse_payload("xml", &hgr).is_err());
    }

    #[test]
    fn ml_knobs_change_the_engine_configuration() {
        let g = generate(&GeneratorConfig::new(80, 90, 300).with_seed(4)).unwrap();
        let balance = BalanceConstraint::new(0.45, 0.55, 80).unwrap();
        let token = CancelToken::new();
        let knobs = MultilevelConfig {
            coarsest_nodes: 16,
            coarsest_starts: 2,
            ..MultilevelConfig::default()
        };
        let report = execute_with(EngineName::Ml, &g, balance, 2, 9, &token, knobs).unwrap();
        assert_eq!(report.status, RunStatus::Completed);
        assert!(report.result.partition.is_balanced(balance));
        let direct = Multilevel::standard(MultilevelConfig { seed: 9, ..knobs });
        let expect = direct.run_multi(&g, balance, 2, 9).unwrap();
        assert_eq!(report.result, expect);
    }

    #[test]
    fn assignment_hash_discriminates_and_is_stable() {
        let a = [Side::A, Side::B, Side::A];
        let b = [Side::A, Side::A, Side::B];
        assert_eq!(assignment_hash(&a), assignment_hash(&a));
        assert_ne!(assignment_hash(&a), assignment_hash(&b));
        assert_ne!(assignment_hash(&a[..2]), assignment_hash(&a));
    }
}
