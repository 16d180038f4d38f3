//! ParLOT-style on-the-fly trace compression.
//!
//! ParLOT's key enabler is that whole-program call traces are almost
//! entirely loops, so an incremental compressor achieves ratios in the
//! thousands while writing only a few KB/s per core. We reproduce that
//! property with an LZ77-family coder specialised for `u32` symbol
//! streams:
//!
//! * greedy longest-match search via a 3-gram hash chain over the whole
//!   already-seen stream (unbounded window — traces are small in
//!   compressed form precisely because matches may reach far back);
//! * matches may **overlap** their source (`len > dist`), which encodes
//!   `N` iterations of a loop of period `dist` as a *single token* — the
//!   step that yields ratios ≫ 1000 on loopy traces;
//! * LEB128 varint encoding of literals and match headers (see
//!   [`crate::codec`]).
//!
//! The format is self-describing (`magic ∥ version ∥ count ∥ tokens`)
//! and the decoder validates every structural invariant, returning
//! [`CodecError`] instead of panicking on corrupt input.

use crate::codec::{write_varint, CodecError, Reader};
use std::collections::HashMap;

const MAGIC: &[u8; 4] = b"DTLZ";
const VERSION: u8 = 1;
/// Minimum match length worth a token (shorter is cheaper as literals).
const MIN_MATCH: usize = 3;
/// Longest-match candidates examined per position.
const MAX_CHAIN: usize = 64;

#[inline]
fn gram(s: &[u32], i: usize) -> u64 {
    // Mix three consecutive symbols into one hash key.
    let a = s[i] as u64;
    let b = s[i + 1] as u64;
    let c = s[i + 2] as u64;
    a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) ^ (c << 1)
}

/// Compress a symbol stream.
pub fn compress(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + symbols.len() / 8);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    write_varint(&mut out, symbols.len() as u64);
    // An uncapped match runs to the end of the stream at most.
    encode(
        symbols,
        &mut 0,
        &mut HashMap::new(),
        &mut out,
        usize::MAX,
        0,
    );
    out
}

/// The greedy token loop both coders share. Codes `s[*pos..]` into
/// `out`, advancing `*pos`; a match encodes at most `max_match`
/// symbols. Stops before coding a position with fewer than `hold`
/// symbols after it (a streaming match there might still extend), and
/// `table` carries the 3-gram hash chains from one call to the next.
fn encode(
    s: &[u32],
    pos: &mut usize,
    table: &mut HashMap<u64, Vec<usize>>,
    out: &mut Vec<u8>,
    max_match: usize,
    hold: usize,
) {
    let n = s.len();
    while *pos < n && n - *pos >= hold {
        let i = *pos;
        let cap = (n - i).min(max_match);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            if let Some(chain) = table.get(&gram(s, i)) {
                for &j in chain.iter().rev().take(MAX_CHAIN) {
                    // Verify the gram (hash collisions possible) and
                    // extend. Overlap is allowed: `j + len` may run past
                    // `i` — since `j < i`, the compared index always
                    // stays behind `i + len`, i.e. within data the
                    // decoder will already have reconstructed.
                    let mut len = 0usize;
                    while len < cap && s[j + len] == s[i + len] {
                        len += 1;
                    }
                    if len > best_len {
                        best_len = len;
                        best_dist = i - j;
                    }
                }
            }
        }
        let step = if best_len >= MIN_MATCH {
            // Token: (len << 1) | 1, then dist.
            write_varint(out, ((best_len as u64) << 1) | 1);
            write_varint(out, best_dist as u64);
            best_len
        } else {
            // Token: (symbol << 1) | 0.
            write_varint(out, u64::from(s[i]) << 1);
            1
        };
        for k in i..i + step {
            if k + MIN_MATCH <= n {
                table.entry(gram(s, k)).or_default().push(k);
            }
        }
        *pos += step;
    }
}

/// Longest match a streaming token may encode (bounds emission lag).
pub const STREAM_MAX_MATCH: usize = 4096;
/// Buffered symbols that trigger a processing pass.
pub const STREAM_TRIGGER: usize = 8192;

/// Incremental (on-the-fly) compressor — how ParLOT actually writes
/// traces: symbols are pushed as the program runs, tokens are emitted
/// with bounded lag, and [`StreamCompressor::finish`] produces a blob
/// readable by the ordinary [`decompress`].
///
/// Matches are capped at [`STREAM_MAX_MATCH`] symbols (so a token can
/// be emitted as soon as its maximal extension is decidable); long
/// loops simply span several tokens, costing a few bytes per 4096
/// symbols — ratios stay in the thousands on loopy traces.
#[derive(Debug, Default)]
pub struct StreamCompressor {
    window: Vec<u32>,
    table: HashMap<u64, Vec<usize>>,
    /// Next window position without an emitted token.
    pos: usize,
    tokens: Vec<u8>,
}

impl StreamCompressor {
    /// A fresh streaming compressor.
    pub fn new() -> StreamCompressor {
        StreamCompressor::default()
    }

    /// Append one symbol.
    pub fn push(&mut self, sym: u32) {
        self.window.push(sym);
        if self.window.len() - self.pos >= STREAM_TRIGGER {
            self.process(false);
        }
    }

    /// Append many symbols.
    pub fn extend<I: IntoIterator<Item = u32>>(&mut self, syms: I) {
        for s in syms {
            self.push(s);
        }
    }

    /// Symbols accepted so far.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Bytes of emitted tokens so far (monitoring the write-out rate —
    /// the paper's "a few kilobytes per second per core").
    pub fn emitted_bytes(&self) -> usize {
        self.tokens.len()
    }

    /// Finalize: flush the tail and return a [`decompress`]-compatible
    /// blob.
    pub fn finish(mut self) -> Vec<u8> {
        self.process(true);
        let mut out = Vec::with_capacity(16 + self.tokens.len());
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        write_varint(&mut out, self.window.len() as u64);
        out.extend_from_slice(&self.tokens);
        out
    }

    /// Emit tokens for buffered symbols. Unless `force`, stop while a
    /// match might still extend with future input.
    fn process(&mut self, force: bool) {
        let hold = if force { 0 } else { STREAM_MAX_MATCH };
        encode(
            &self.window,
            &mut self.pos,
            &mut self.table,
            &mut self.tokens,
            STREAM_MAX_MATCH,
            hold,
        );
    }
}

/// Decompress a blob produced by [`compress`].
pub fn decompress(blob: &[u8]) -> Result<Vec<u32>, CodecError> {
    if blob.len() < 5 {
        return Err(CodecError::Truncated);
    }
    if &blob[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    if blob[4] != VERSION {
        return Err(CodecError::BadVersion(blob[4]));
    }
    let mut r = Reader::at(blob, 5);
    let n = r.varint()? as usize;
    // `n` is untrusted: the capacity is only a hint, capped by the
    // input size (a match token can expand, so this is not a bound).
    let mut out: Vec<u32> = Vec::with_capacity(n.min(r.remaining()));
    while out.len() < n {
        let tok = r.varint()?;
        if tok & 1 == 1 {
            let len = (tok >> 1) as usize;
            let dist = r.varint()? as usize;
            if dist == 0 || dist > out.len() {
                return Err(CodecError::Corrupt("match distance out of range"));
            }
            if len > n - out.len() {
                return Err(CodecError::Corrupt("match overruns declared length"));
            }
            let start = out.len() - dist;
            for k in 0..len {
                let sym = out[start + k];
                out.push(sym);
            }
        } else {
            let sym = tok >> 1;
            if sym > u64::from(u32::MAX) {
                return Err(CodecError::Corrupt("literal exceeds u32"));
            }
            if out.len() + 1 > n {
                return Err(CodecError::Corrupt("literal overruns declared length"));
            }
            out.push(sym as u32);
        }
    }
    Ok(out)
}

/// Compression statistics for one stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Symbols in the uncompressed stream.
    pub symbols: usize,
    /// Raw size assuming 4 bytes/symbol (how ParLOT accounts raw traces).
    pub raw_bytes: usize,
    /// Compressed blob size.
    pub compressed_bytes: usize,
}

impl CompressionStats {
    /// Measure `symbols` against its compressed form.
    pub fn measure(symbols: &[u32], blob: &[u8]) -> CompressionStats {
        CompressionStats {
            symbols: symbols.len(),
            raw_bytes: symbols.len() * 4,
            compressed_bytes: blob.len(),
        }
    }

    /// raw / compressed (∞-safe: 0 for empty input).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            return 0.0;
        }
        self.raw_bytes as f64 / self.compressed_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(sym: &[u32]) {
        let blob = compress(sym);
        let back = decompress(&blob).expect("decompress");
        assert_eq!(back, sym);
    }

    #[test]
    fn empty_stream() {
        round_trip(&[]);
    }

    #[test]
    fn short_streams() {
        round_trip(&[1]);
        round_trip(&[1, 2]);
        round_trip(&[1, 2, 3]);
        round_trip(&[7, 7, 7]);
    }

    #[test]
    fn loopy_stream_round_trip_and_ratio() {
        // [A B C D] ^ 10_000 — a hot loop of 4 calls.
        let body = [10u32, 11, 12, 13];
        let sym: Vec<u32> = body.iter().cycle().take(40_000).copied().collect();
        let blob = compress(&sym);
        let back = decompress(&blob).unwrap();
        assert_eq!(back, sym);
        let stats = CompressionStats::measure(&sym, &blob);
        assert!(
            stats.ratio() > 1000.0,
            "loopy trace should compress enormously, got ratio {:.1} ({} bytes)",
            stats.ratio(),
            blob.len()
        );
    }

    #[test]
    fn nested_loop_stream() {
        // ((A B)^3 C)^500
        let mut sym = Vec::new();
        for _ in 0..500 {
            for _ in 0..3 {
                sym.push(1u32);
                sym.push(2);
            }
            sym.push(3);
        }
        round_trip(&sym);
        let blob = compress(&sym);
        assert!(blob.len() < sym.len()); // trivially much smaller
    }

    #[test]
    fn incompressible_stream_round_trips() {
        // Pseudo-random symbols (LCG) — worst case for the coder.
        let mut x = 12345u64;
        let sym: Vec<u32> = (0..5000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u32
            })
            .collect();
        round_trip(&sym);
    }

    #[test]
    fn large_symbol_values() {
        round_trip(&[u32::MAX, 0, u32::MAX - 1, 5, u32::MAX, 0, u32::MAX - 1, 5]);
    }

    #[test]
    fn decoder_rejects_garbage() {
        assert_eq!(decompress(b"nope"), Err(CodecError::Truncated));
        assert_eq!(decompress(b"XXXX\x01\x00"), Err(CodecError::BadMagic));
        assert_eq!(decompress(b"DTLZ\x09\x00"), Err(CodecError::BadVersion(9)));
        // Declared 5 symbols but no tokens follow.
        assert_eq!(decompress(b"DTLZ\x01\x05"), Err(CodecError::Truncated));
    }

    #[test]
    fn decoder_rejects_bad_match_distance() {
        let mut blob = Vec::new();
        blob.extend_from_slice(b"DTLZ");
        blob.push(1);
        write_varint(&mut blob, 3); // claim 3 symbols
        write_varint(&mut blob, (3 << 1) | 1); // match len 3 …
        write_varint(&mut blob, 1); // … dist 1, but output is empty
        assert!(matches!(decompress(&blob), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn streaming_round_trips_and_matches_batch_quality() {
        // A long loopy stream, pushed one symbol at a time.
        let body = [10u32, 11, 12, 13, 14, 15];
        let sym: Vec<u32> = body.iter().cycle().take(60_000).copied().collect();
        let mut sc = StreamCompressor::new();
        for &s in &sym {
            sc.push(s);
        }
        assert_eq!(sc.len(), sym.len());
        let blob = sc.finish();
        assert_eq!(decompress(&blob).unwrap(), sym);
        // Within 4× of the batch compressor on loopy data (the match
        // cap costs a token per 4096 symbols).
        let batch = compress(&sym).len();
        assert!(
            blob.len() <= batch * 4 + 64,
            "stream {} vs batch {batch}",
            blob.len()
        );
        // Still an enormous ratio.
        let stats = CompressionStats::measure(&sym, &blob);
        assert!(stats.ratio() > 500.0, "ratio {:.0}", stats.ratio());
    }

    #[test]
    fn streaming_emits_incrementally() {
        let mut sc = StreamCompressor::new();
        // Push well past the trigger: tokens must have been emitted
        // before finish.
        for i in 0..3 * super::STREAM_TRIGGER as u32 {
            sc.push(i % 7);
        }
        assert!(
            sc.emitted_bytes() > 0,
            "on-the-fly compression must not buffer everything"
        );
        let blob = sc.finish();
        let back = decompress(&blob).unwrap();
        assert_eq!(back.len(), 3 * super::STREAM_TRIGGER);
    }

    /// Both coders' exact bytes on fixed inputs, pinned by digest: a
    /// change to either token loop that alters a single stored byte
    /// fails here, so `.dtts` writers stay byte-identical.
    #[test]
    fn coder_output_is_pinned() {
        let mut x = 7u64;
        let mut noise = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % m) as u32
        };
        let inputs: Vec<Vec<u32>> = vec![
            vec![],
            vec![5, 5],
            [1u32, 2, 3].iter().cycle().take(10_000).copied().collect(),
            (0..3 * super::STREAM_TRIGGER as u32)
                .map(|i| i % 7)
                .collect(),
            (0..20_000).map(|_| noise(16)).collect(),
            (0..5_000).map(|_| noise(1 << 30)).collect(),
            (0..40u32)
                .flat_map(|r| (0..300u32).flat_map(move |i| [100, 101 + i % 3, 200 + r]))
                .collect(),
        ];
        let mut h = crate::hash::StableHasher::new();
        for sym in &inputs {
            h.write_bytes(&compress(sym));
            let mut sc = StreamCompressor::new();
            sc.extend(sym.iter().copied());
            h.write_bytes(&sc.finish());
        }
        assert_eq!(h.finish(), PINNED, "{:#034x}", h.finish());
    }

    const PINNED: u128 = 0xe4ac_e934_7602_2e39_4924_6ca5_1a0c_4b09;

    #[test]
    fn streaming_edge_cases() {
        assert_eq!(
            decompress(&StreamCompressor::new().finish()).unwrap(),
            vec![]
        );
        let mut sc = StreamCompressor::new();
        sc.extend([1, 2, 3]);
        assert_eq!(decompress(&sc.finish()).unwrap(), vec![1, 2, 3]);
        // Incompressible stream round-trips too.
        let mut x = 9u64;
        let sym: Vec<u32> = (0..10_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u32
            })
            .collect();
        let mut sc = StreamCompressor::new();
        sc.extend(sym.iter().copied());
        assert_eq!(decompress(&sc.finish()).unwrap(), sym);
    }
}
