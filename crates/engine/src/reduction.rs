//! The reduction plan: which reduce-scatter runs, over how many segments.
//!
//! [`Algo`] is the one name for the reduction algorithm (DESIGN.md §5j).
//! This module turns it into the two facts every caller must agree on —
//! the segment count the aggregator is split into and the collective that
//! reduces those segments — whichever transport carries the frames. The
//! in-process engine (`ops::split_aggregate`) and the multi-process
//! driver and executors (`multiproc`) both plan through here, and both lay
//! segments out with [`sparker_collectives::segment::slice_bounds`].

use sparker_collectives::halving::recursive_halving_reduce_scatter_by;
use sparker_collectives::hierarchical::{hierarchical_reduce_scatter_chunked_by, node_topology_of};
use sparker_collectives::ring::{ring_reduce_scatter_chunked_by, OwnedSegment};
use sparker_collectives::RingComm;
use sparker_net::codec::Payload;
use sparker_net::error::{NetError, NetResult};
use sparker_net::topology::RingTopology;
use sparker_tuner::Algo;

/// Segments an aggregator is split into for `algo` over `ring`:
///
/// * ring family: `P·N·C`;
/// * halving: `P·N` padded up to a multiple of the largest power of two
///   `≤ N`, so every halving round splits evenly;
/// * hierarchical: `P·L·C`, `L` the number of node groups (only the node
///   leaders own segments);
/// * tree: `P·N`, the segment vector the tree path shuffles whole.
pub fn segment_count(algo: Algo, ring: &RingTopology) -> usize {
    let p = ring.parallelism();
    let n = ring.size();
    match algo {
        Algo::FlatRing | Algo::Tree => p * n,
        Algo::ChunkedRing(c) => p * n * c as usize,
        Algo::Halving => {
            let mut p2 = 1usize;
            while p2 * 2 <= n {
                p2 *= 2;
            }
            (p * n).div_ceil(p2) * p2
        }
        Algo::Hierarchical(c) => p * node_topology_of(ring).num_nodes() * c as usize,
    }
}

/// Runs `algo`'s reduce-scatter over `segments` (exactly
/// [`segment_count`] of them on every rank), merging with `merge`. Returns
/// this rank's fully-reduced segments with their global indices.
/// [`Algo::Tree`] is not a reduce-scatter: callers route it to their tree
/// path before dispatching, and here it is a typed error.
pub fn reduce_scatter_by<V, F>(
    comm: &RingComm,
    segments: Vec<V>,
    merge: &F,
    algo: Algo,
) -> NetResult<Vec<OwnedSegment<V>>>
where
    V: Payload,
    F: Fn(&mut V, V) + Sync,
{
    match algo {
        Algo::FlatRing => ring_reduce_scatter_chunked_by(comm, segments, merge, 1),
        Algo::ChunkedRing(c) => ring_reduce_scatter_chunked_by(comm, segments, merge, c as usize),
        Algo::Halving => recursive_halving_reduce_scatter_by(comm, segments, merge),
        Algo::Hierarchical(c) => {
            hierarchical_reduce_scatter_chunked_by(comm, segments, merge, c as usize)
        }
        Algo::Tree => Err(NetError::InvalidAddress(
            "tree aggregation is not a reduce-scatter".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparker_collectives::segment::U64SumSegment;
    use sparker_collectives::testing::{run_ring_cluster, RingClusterSpec};
    use sparker_net::topology::{round_robin_layout, RingOrder};

    #[test]
    fn segment_count_matches_every_algorithm_layout() {
        // 3 nodes x 2 executors, P = 2: N = 6, L = 3, largest 2^k <= 6 is 4.
        let ring = RingTopology::new(round_robin_layout(3, 2, 1), RingOrder::TopologyAware, 2);
        assert_eq!(segment_count(Algo::FlatRing, &ring), 2 * 6);
        assert_eq!(segment_count(Algo::ChunkedRing(3), &ring), 2 * 6 * 3);
        assert_eq!(segment_count(Algo::Halving, &ring), 12);
        assert_eq!(segment_count(Algo::Hierarchical(4), &ring), 2 * 3 * 4);
        assert_eq!(segment_count(Algo::Tree, &ring), 2 * 6);
        // Halving pads P·N up: N = 5, P = 3 -> 15 padded to 16.
        let five = RingTopology::new(round_robin_layout(5, 1, 1), RingOrder::ById, 3);
        assert_eq!(segment_count(Algo::Halving, &five), 16);
        // One executor per node: hierarchical collapses to the flat layout.
        assert_eq!(segment_count(Algo::Hierarchical(2), &five), 3 * 5 * 2);
        // The count is what the cluster's collectives actually accept.
        let spec = RingClusterSpec::unshaped(3, 2, 2);
        let counts = run_ring_cluster(&spec, |comm| {
            segment_count(Algo::Hierarchical(4), comm.ring())
        });
        assert!(counts.iter().all(|&c| c == 2 * 3 * 4));
    }

    #[test]
    fn tree_is_a_typed_error_not_a_collective() {
        let spec = RingClusterSpec::unshaped(1, 2, 1);
        let errs = run_ring_cluster(&spec, |comm| {
            reduce_scatter_by(&comm, vec![U64SumSegment(vec![1])], &|_, _| {}, Algo::Tree)
                .is_err_and(|e| matches!(e, NetError::InvalidAddress(_)))
        });
        assert!(errs.into_iter().all(|e| e));
    }
}
