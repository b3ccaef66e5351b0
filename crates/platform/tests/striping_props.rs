//! Property tests for cluster address striping and bridge accounting.
//!
//! The global address space is striped board-by-board in `slice_bytes`
//! chunks; these tests pin the routing at every slice boundary and
//! check — over randomized cluster geometries — that the algebraic
//! definition `owner = global / slice` holds everywhere. The second
//! half ties [`FlowStats`] to the fabric: every directed flow's wire
//! bytes must equal its payload bytes plus `frames ×` [`BRIDGE_HEADER`],
//! and request/response frame counts must balance.

use enzian_platform::{BoardId, ClusterWorkload, EnzianCluster, BRIDGE_HEADER};
use enzian_sim::SimRng;

const MIB: u64 = 1 << 20;

#[test]
fn slice_boundaries_route_to_the_owning_board() {
    let slice = 4 * MIB;
    let c = EnzianCluster::new(5, slice);
    for b in 0..5u64 {
        let base = b * slice;
        // First byte of the slice.
        assert_eq!(c.owner_of(base).0, BoardId(b as u8));
        assert_eq!(c.owner_of(base).1 .0, 0);
        // Last byte of the slice.
        assert_eq!(c.owner_of(base + slice - 1).0, BoardId(b as u8));
        assert_eq!(c.owner_of(base + slice - 1).1 .0, slice - 1);
    }
    // First byte past a boundary belongs to the next board.
    assert_eq!(c.owner_of(slice).0, BoardId(1));
    // Last byte of the whole global space.
    let last = c.global_bytes() - 1;
    assert_eq!(c.owner_of(last).0, BoardId(4));
    assert_eq!(c.owner_of(last).1 .0, slice - 1);
}

#[test]
#[should_panic(expected = "beyond global space")]
fn first_address_past_the_global_space_is_rejected() {
    let c = EnzianCluster::new(3, MIB);
    let _ = c.owner_of(c.global_bytes());
}

/// Randomized sweep: for arbitrary geometries and addresses, routing
/// obeys the striping algebra exactly.
#[test]
fn randomized_addresses_obey_the_striping_algebra() {
    let mut rng = SimRng::seed_from(0x57121);
    for _ in 0..64 {
        let n = 2 + rng.next_below(7) as usize;
        let slice = (1 + rng.next_below(64)) * MIB;
        let c = EnzianCluster::new(n, slice);
        for _ in 0..256 {
            let global = rng.next_below(c.global_bytes());
            let (board, local) = c.owner_of(global);
            assert_eq!(u64::from(board.0), global / slice);
            assert_eq!(local.0, global % slice);
            assert!(local.0 < slice);
            // Reassembling the pieces recovers the address.
            assert_eq!(u64::from(board.0) * slice + local.0, global);
        }
    }
}

/// Bridge accounting: observed fabric byte counts decompose exactly
/// into payload plus `BRIDGE_HEADER` per frame, for every directed
/// flow, and in aggregate.
#[test]
fn flow_stats_match_bridge_header_accounting() {
    let w = ClusterWorkload::small().with_ops_per_stream(96);
    let r = EnzianCluster::new(4, MIB).run_parallel(&w, 2);
    assert!(r.fabric.frames > 0, "workload must bridge traffic");
    let mut frames = 0;
    let mut payload = 0;
    let mut wire = 0;
    for (src, row) in r.flows.iter().enumerate() {
        for (dst, f) in row.iter().enumerate() {
            if src == dst {
                assert_eq!(*f, Default::default(), "no flow to self");
                continue;
            }
            assert_eq!(
                f.wire_bytes,
                f.payload_bytes + f.frames * BRIDGE_HEADER,
                "flow {src}->{dst} header accounting"
            );
            frames += f.frames;
            payload += f.payload_bytes;
            wire += f.wire_bytes;
        }
    }
    assert_eq!(frames, r.fabric.frames);
    assert_eq!(payload, r.fabric.payload_bytes);
    assert_eq!(wire, r.fabric.wire_bytes);
    assert_eq!(wire, payload + frames * BRIDGE_HEADER);
}

/// Every request crosses the fabric exactly twice (request + response),
/// so with no faults the frame count is twice the bridged op count and
/// reverse flows carry the responses.
#[test]
fn request_and_response_frames_balance() {
    let w = ClusterWorkload::small();
    let r = EnzianCluster::new(3, MIB).run_parallel(&w, 2);
    assert_eq!(r.nacks, 0, "fault-free run");
    assert_eq!(r.fabric.frames, 2 * (r.remote_reads + r.remote_writes));
    // Each bridged op carries exactly one 128-byte line (on the request
    // for writes, on the response for reads).
    assert_eq!(
        r.fabric.payload_bytes,
        128 * (r.remote_reads + r.remote_writes)
    );
    for (src, row) in r.flows.iter().enumerate() {
        for (dst, f) in row.iter().enumerate() {
            if f.frames > 0 {
                // A response flows back for every request: the reverse
                // flow exists whenever the forward one does.
                assert!(
                    r.flows[dst][src].frames > 0,
                    "flow {src}->{dst} has no response traffic"
                );
            }
        }
    }
}
