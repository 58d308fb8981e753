//! Reference max-flow oracle and the flow-certificate checker.
//!
//! The Dinic kernel in `prop-flow` is fast and incremental in spirit
//! (level graphs, blocking flows, residual reuse across rounds); this
//! module is the counterweight in the crate's usual style:
//!
//! * [`reference_max_flow`] — a naive Edmonds–Karp solver (repeated BFS
//!   for *any* shortest augmenting path, one unit of bookkeeping per
//!   edge) that shares no code with the kernel.
//! * [`check_flow_certificate`] — an independent auditor for the
//!   (flow, cut) pair a solver returns, working only from the flat edge
//!   list: capacity bounds, flow conservation, and cut capacity equal to
//!   the claimed value. By weak duality, a pair passing all three is
//!   simultaneously a maximum flow and a minimum cut.

use prop_flow::FlowEdge;

/// Relative/absolute tolerance for the certificate checks. Net weights
/// are integral in every circuit format the suite reads, so real runs
/// are exact; the tolerance only guards synthetic fractional capacities.
pub const FLOW_TOLERANCE: f64 = 1e-6;

/// Computes the max-flow value from `source` to `sink` by Edmonds–Karp:
/// breadth-first search for the shortest augmenting path in the residual
/// graph, repeated until none exists.
///
/// `edges` are directed `(from, to, capacity)` arcs over nodes
/// `0..num_nodes`; parallel arcs and `f64::INFINITY` capacities are
/// allowed (an infinite arc simply never saturates). Runs in
/// `O(V * E^2)` — fine for the test-sized networks it exists to check.
///
/// # Panics
///
/// Panics if an endpoint is out of range or a capacity is negative.
pub fn reference_max_flow(
    num_nodes: usize,
    edges: &[(usize, usize, f64)],
    source: usize,
    sink: usize,
) -> f64 {
    assert!(source < num_nodes && sink < num_nodes, "terminal out of range");
    // Residual arcs as skew pairs: arc 2i = forward, 2i+1 = reverse.
    let mut to = Vec::with_capacity(edges.len() * 2);
    let mut cap = Vec::with_capacity(edges.len() * 2);
    let mut adj = vec![Vec::new(); num_nodes];
    for &(u, v, c) in edges {
        assert!(u < num_nodes && v < num_nodes, "edge endpoint out of range");
        assert!(c >= 0.0, "negative capacity");
        adj[u].push(to.len());
        to.push(v);
        cap.push(c);
        adj[v].push(to.len());
        to.push(u);
        cap.push(0.0);
    }
    if source == sink {
        return 0.0;
    }
    let mut value = 0.0;
    loop {
        // BFS for a shortest augmenting path, remembering the arc used
        // to reach each node.
        let mut pred: Vec<Option<usize>> = vec![None; num_nodes];
        let mut queue = std::collections::VecDeque::from([source]);
        let mut reached_sink = false;
        'bfs: while let Some(u) = queue.pop_front() {
            for &e in &adj[u] {
                let v = to[e];
                if cap[e] > 0.0 && pred[v].is_none() && v != source {
                    pred[v] = Some(e);
                    if v == sink {
                        reached_sink = true;
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        if !reached_sink {
            return value;
        }
        // Bottleneck along the predecessor chain, then push it.
        let mut bottleneck = f64::INFINITY;
        let mut v = sink;
        while v != source {
            let e = pred[v].expect("predecessor chain broken");
            bottleneck = bottleneck.min(cap[e]);
            v = to[e ^ 1];
        }
        let mut v = sink;
        while v != source {
            let e = pred[v].expect("predecessor chain broken");
            cap[e] -= bottleneck;
            cap[e ^ 1] += bottleneck;
            v = to[e ^ 1];
        }
        value += bottleneck;
    }
}

/// Checks a solver's (flow, min-cut) certificate from its flat edge
/// list, independently of the solver's own internal validation.
///
/// `source_side[v]` marks the nodes on the source side of the claimed
/// cut. The three conditions verified — each within [`FLOW_TOLERANCE`]
/// scaled by the claimed value — are:
///
/// 1. **Capacity**: `0 <= flow <= capacity` on every edge.
/// 2. **Conservation**: every node except the terminals has equal
///    inflow and outflow; the source's net outflow and the sink's net
///    inflow both equal `value`.
/// 3. **Cut**: the total capacity of edges leaving the source side
///    equals `value`, and no such edge is infinite.
///
/// Any flow satisfying (1)+(2) has value at most any cut's capacity, so
/// (3) proves both optimal at once.
pub fn check_flow_certificate(
    edges: &[FlowEdge],
    source: usize,
    sink: usize,
    value: f64,
    source_side: &[bool],
) -> Result<(), String> {
    let tol = FLOW_TOLERANCE * value.abs().max(1.0);
    if !source_side.get(source).copied().unwrap_or(false) {
        return Err("source is not on the source side".into());
    }
    if source_side.get(sink).copied().unwrap_or(false) {
        return Err("sink is on the source side".into());
    }
    let mut excess = vec![0.0f64; source_side.len()];
    let mut cut_capacity = 0.0f64;
    for (i, e) in edges.iter().enumerate() {
        if e.from >= source_side.len() || e.to >= source_side.len() {
            return Err(format!("edge {i} endpoint out of range"));
        }
        if e.flow < -tol {
            return Err(format!("edge {i} carries negative flow {}", e.flow));
        }
        if e.flow > e.capacity + tol {
            return Err(format!(
                "edge {i} over capacity: flow {} > capacity {}",
                e.flow, e.capacity
            ));
        }
        excess[e.from] -= e.flow;
        excess[e.to] += e.flow;
        if source_side[e.from] && !source_side[e.to] {
            if e.capacity.is_infinite() {
                return Err(format!("infinite edge {i} crosses the claimed cut"));
            }
            cut_capacity += e.capacity;
        }
    }
    for (v, &x) in excess.iter().enumerate() {
        let expected = if v == source {
            -value
        } else if v == sink {
            value
        } else {
            0.0
        };
        if (x - expected).abs() > tol {
            return Err(format!(
                "conservation violated at node {v}: excess {x}, expected {expected}"
            ));
        }
    }
    if (cut_capacity - value).abs() > tol {
        return Err(format!(
            "cut capacity {cut_capacity} does not equal flow value {value}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_flow::FlowNetwork;

    fn diamond() -> Vec<(usize, usize, f64)> {
        vec![(0, 1, 3.0), (1, 3, 3.0), (0, 2, 5.0), (2, 3, 5.0)]
    }

    #[test]
    fn reference_solves_the_diamond() {
        assert_eq!(reference_max_flow(4, &diamond(), 0, 3), 8.0);
    }

    #[test]
    fn reference_handles_disconnection_and_degenerate_terminals() {
        assert_eq!(reference_max_flow(3, &[(0, 1, 4.0)], 0, 2), 0.0);
        assert_eq!(reference_max_flow(3, &diamond()[..1], 0, 0), 0.0);
    }

    #[test]
    fn reference_reroutes_through_residual_arcs() {
        // The classic zig-zag: greedy down the middle must be undone.
        let edges = vec![
            (0, 1, 1.0),
            (0, 2, 1.0),
            (1, 2, 1.0),
            (1, 3, 1.0),
            (2, 3, 1.0),
        ];
        assert_eq!(reference_max_flow(4, &edges, 0, 3), 2.0);
    }

    #[test]
    fn certificate_accepts_the_dinic_answer() {
        let mut net = FlowNetwork::new(4);
        for (u, v, c) in diamond() {
            net.add_edge(u, v, c);
        }
        let flow = net.max_flow(0, 3).unwrap();
        let side = net.min_cut_source_side(0);
        check_flow_certificate(&net.edges(), 0, 3, flow.value, &side).unwrap();
    }

    #[test]
    fn certificate_rejects_wrong_value_and_wrong_cut() {
        let mut net = FlowNetwork::new(4);
        for (u, v, c) in diamond() {
            net.add_edge(u, v, c);
        }
        let flow = net.max_flow(0, 3).unwrap();
        let side = net.min_cut_source_side(0);
        let edges = net.edges();
        assert!(check_flow_certificate(&edges, 0, 3, flow.value + 1.0, &side).is_err());
        let mut bad_side = side.clone();
        bad_side[3] = true; // sink crosses over
        assert!(check_flow_certificate(&edges, 0, 3, flow.value, &bad_side).is_err());
        assert!(check_flow_certificate(&edges, 3, 0, flow.value, &side).is_err());
    }

    #[test]
    fn certificate_rejects_infinite_cut_edges() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 2.0);
        net.add_edge(1, 2, f64::INFINITY);
        let flow = net.max_flow(0, 2).unwrap();
        assert_eq!(flow.value, 2.0);
        // The honest cut {0} severs the finite arc...
        check_flow_certificate(&net.edges(), 0, 2, 2.0, &[true, false, false]).unwrap();
        // ...but claiming {0, 1} puts the infinite arc in the cut.
        let err = check_flow_certificate(&net.edges(), 0, 2, 2.0, &[true, true, false]);
        assert!(err.unwrap_err().contains("infinite"));
    }
}
