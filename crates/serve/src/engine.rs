//! Netlist payloads and result hashes for the daemon's workers.
//!
//! Jobs themselves run through `prop_engines::Job::run`, the same path
//! the `prop` CLI takes, with the [`ParallelPolicy::Sequential`] policy
//! (the worker pool owns the daemon's concurrency). The harness
//! guarantees that policy is bit-identical to every other, so a result
//! fetched through the daemon matches a direct library call byte for
//! byte (the round-trip tests pin this); the hashes below let clients
//! check that without shipping the assignment.
//!
//! [`ParallelPolicy::Sequential`]: prop_core::ParallelPolicy::Sequential

use prop_core::Side;
use prop_netlist::{format, Hypergraph};

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
    fn assignment_hash_discriminates_and_is_stable() {
        let a = [Side::A, Side::B, Side::A];
        let b = [Side::A, Side::A, Side::B];
        assert_eq!(assignment_hash(&a), assignment_hash(&a));
        assert_ne!(assignment_hash(&a), assignment_hash(&b));
        assert_ne!(assignment_hash(&a[..2]), assignment_hash(&a));
    }
}
