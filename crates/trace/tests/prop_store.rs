//! Property tests for the on-disk trace formats.

use dt_trace::codec::write_varint;
use dt_trace::{store, FunctionRegistry, Trace, TraceEvent, TraceId, TraceSet};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The per-thread directory layout round-trips arbitrary sets.
    #[test]
    fn save_dir_round_trips(
        traces in proptest::collection::vec(
            (0u32..6, 0u32..4, proptest::collection::vec(0u32..12, 0..80), any::<bool>()),
            0..8,
        ),
        case in 0u64..u64::MAX,
    ) {
        let registry = Arc::new(FunctionRegistry::new());
        for s in 0..12u32 {
            registry.intern(&format!("fn_{s}"));
        }
        let mut set = TraceSet::new(registry.clone());
        for (p, t, stream, truncated) in &traces {
            let mut tr = Trace::new(TraceId::new(*p, *t));
            for &s in stream {
                let f = registry.intern(&format!("fn_{s}"));
                tr.push(TraceEvent::Call(f));
                tr.push(TraceEvent::Return(f));
            }
            tr.truncated = *truncated;
            set.insert(tr);
        }
        let dir = std::env::temp_dir().join(format!("dt_prop_store_{case:x}"));
        std::fs::remove_dir_all(&dir).ok();
        store::save_dir(&set, &dir).unwrap();
        let back = store::load_dir(&dir).unwrap();
        prop_assert_eq!(back.len(), set.len());
        for t in set.iter() {
            let bt = back.get(t.id).unwrap();
            prop_assert_eq!(&bt.events, &t.events);
            prop_assert_eq!(bt.truncated, t.truncated);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The single-file format and the directory format agree.
    #[test]
    fn file_and_dir_formats_agree(
        streams in proptest::collection::vec(
            proptest::collection::vec(0u32..10, 0..60), 1..5),
        case in 0u64..u64::MAX,
    ) {
        let registry = Arc::new(FunctionRegistry::new());
        let mut set = TraceSet::new(registry.clone());
        for (p, stream) in streams.iter().enumerate() {
            let mut tr = Trace::new(TraceId::master(p as u32));
            for &s in stream {
                let f = registry.intern(&format!("fn_{s}"));
                tr.push(TraceEvent::Call(f));
            }
            set.insert(tr);
        }
        let via_bytes = store::from_bytes(&store::to_bytes(&set)).unwrap();
        let dir = std::env::temp_dir().join(format!("dt_prop_agree_{case:x}"));
        std::fs::remove_dir_all(&dir).ok();
        store::save_dir(&set, &dir).unwrap();
        let via_dir = store::load_dir(&dir).unwrap();
        prop_assert_eq!(via_bytes.len(), via_dir.len());
        for t in via_bytes.iter() {
            prop_assert_eq!(&via_dir.get(t.id).unwrap().events, &t.events);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

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
        let full = std::panic::catch_unwind(|| store::from_bytes_full(&buf));
        assert!(
            matches!(full, Ok(Err(store::StoreError::Format(_)))),
            "from_bytes, {what}: {full:?}"
        );
        let ix = std::panic::catch_unwind(|| store::IndexedSet::from_bytes(buf.clone()).err());
        assert!(
            matches!(ix, Ok(Some(store::StoreError::Format(_)))),
            "IndexedSet::from_bytes, {what}: {ix:?}"
        );
    }
}

#[test]
fn hostile_registry_file_is_a_format_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("dt_hostile_registry_{}", std::process::id()));
    for (what, fields) in [
        ("name count", [1u64 << 61, 0]),
        ("name length", [1, u64::MAX - 2]),
    ] {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut reg = Vec::new();
        for f in fields {
            write_varint(&mut reg, f);
        }
        std::fs::write(dir.join("functions.dtfn"), reg).unwrap();
        let got = std::panic::catch_unwind(|| store::load_dir(&dir).err());
        assert!(
            matches!(got, Ok(Some(store::StoreError::Format(_)))),
            "load_dir, {what}: {got:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
