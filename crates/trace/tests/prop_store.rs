//! Hostile headers for the `.dtts` reader.

use dt_trace::codec::write_varint;
use dt_trace::store;

/// A `.dtts` v2 header followed by `fields`, each a varint.
fn crafted(fields: &[u64]) -> Vec<u8> {
    let mut buf = b"DTTS\x02".to_vec();
    for &f in fields {
        write_varint(&mut buf, f);
    }
    buf
}

/// Untrusted counts and lengths that overflow a capacity or an offset
/// sum: each must be a diagnosed format error, never a panic or an
/// allocation sized by the claim.
fn hostile_headers() -> Vec<(&'static str, Vec<u8>)> {
    let huge = 1u64 << 61;
    let near_max = u64::MAX - 2;
    let with_hb = |hb: &[u64]| {
        let mut buf = crafted(&[0, 0]);
        buf.push(1); // HB section present
        for &f in hb {
            write_varint(&mut buf, f);
        }
        buf
    };
    vec![
        ("name count", crafted(&[huge])),
        ("name length", crafted(&[1, near_max])),
        ("trace count", crafted(&[0, huge])),
        ("blob length", {
            let mut buf = crafted(&[0, 1, 0, 0]);
            buf.push(0); // not truncated
            write_varint(&mut buf, near_max);
            buf
        }),
        ("HB name length", with_hb(&[1, 1, near_max])),
        // World of 1 rank, one name "a", one local-op record of rank 0
        // whose full clock claims `huge` components.
        (
            "HB clock length",
            with_hb(&[1, 1, 1, u64::from(b'a'), 1, 0, 0, 0, 0, 0, huge]),
        ),
        // A world of 2^32 - 1 ranks in a section of six bytes.
        (
            "HB world size",
            with_hb(&[u64::from(u32::MAX), 0, 0, 0, 0, 0, 0]),
        ),
    ]
}

#[test]
fn hostile_counts_are_format_errors_not_panics() {
    for (what, buf) in hostile_headers() {
        let ix = std::panic::catch_unwind(|| store::IndexedSet::from_bytes(buf.clone()).err());
        assert!(
            matches!(ix, Ok(Some(store::StoreError::Format(_)))),
            "IndexedSet::from_bytes, {what}: {ix:?}"
        );
    }
}
