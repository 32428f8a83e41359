//! `read_frame` allocates for the payload bytes that arrive, not for the
//! length a header claims. Counted by the tracking global allocator this
//! test binary registers (one test, as the counters are process-wide).

use mapreduce_lite::protocol::{read_frame, ProtocolError, MAX_FRAME_LEN, PROTO_MAGIC};
use ngs_observe::alloc::{self, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn header_claiming_max_len_over_ten_bytes_is_torn_without_reserving_it() {
    let mut wire = PROTO_MAGIC.to_vec();
    wire.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
    wire.extend_from_slice(&0u64.to_le_bytes());
    wire.extend_from_slice(&[7u8; 10]);

    assert!(alloc::enable(), "this binary registered the tracking allocator");
    let before = alloc::snapshot().expect("tracking is enabled").allocated_bytes;
    let got = read_frame(&mut &wire[..]);
    let allocated = alloc::snapshot().expect("tracking is enabled").allocated_bytes - before;
    alloc::disable();

    assert_eq!(got, Err(ProtocolError::Torn));
    assert!(allocated < 1 << 20, "{allocated} bytes allocated for a 10-byte payload");
}
