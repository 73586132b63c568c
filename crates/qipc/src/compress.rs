//! QIPC payload compression.
//!
//! "The QIPC wire protocol describes message format, process handshake,
//! and data compression" (paper §3.1). kdb+ compresses messages larger
//! than ~2KB sent between remote hosts with a byte-pair-hash LZ variant;
//! this module implements that scheme (the same algorithm the public
//! kdb+ client bindings use): a control byte carries eight flags, each
//! selecting either a literal byte or a back-reference addressed through
//! a 256-slot table keyed by a hash of adjacent bytes. (Self-consistent
//! between our endpoints; kdb+ uses the same structure with its own
//! pair hash.)
//!
//! Wire layout of a compressed message: the standard 8-byte header with
//! the compression flag set at offset 2 and the *compressed* total length
//! at offset 4, followed by 4 bytes of *uncompressed* total length, then
//! the compressed stream.

/// Pair hash used by both directions: asymmetric so that transposed
/// byte pairs (e.g. `GO` vs `OG`) land in different slots.
#[inline]
fn pair_hash(a: u8, b: u8) -> usize {
    (((a as usize) << 4) ^ (b as usize)) & 0xFF
}

/// Threshold above which [`crate::encode_message_compressed`] actually
/// compresses (kdb+ uses a similar cutoff; tiny messages only grow).
pub const COMPRESSION_THRESHOLD: usize = 2000;

/// Compress `src` (a raw payload) under kdb+'s rule: the result is kept
/// only when it is under half of `src`. Returns `None` otherwise (the
/// caller then sends the payload uncompressed), giving up as soon as the
/// output reaches that bound, so an incompressible payload costs a
/// partial pass.
pub fn compress(src: &[u8]) -> Option<Vec<u8>> {
    compress_within(src, src.len().div_ceil(2)).ok()
}

/// Compress `src` into fewer than `limit` bytes, or give up with the
/// number of source bytes read when the output reaches `limit`.
fn compress_within(src: &[u8], limit: usize) -> Result<Vec<u8>, usize> {
    if src.len() < 16 {
        return Err(0);
    }
    let mut dst: Vec<u8> = Vec::with_capacity(limit);
    let mut table = [usize::MAX; 256];
    let mut flag_pos = 0usize; // position of the current control byte
    let mut flag: u8 = 0;
    let mut bit: u16 = 1;
    dst.push(0); // placeholder control byte
    let mut s = 0usize; // cursor into src

    // Hash positions already emitted (over the *source*, which equals the
    // decompressor's reconstructed output).
    let mut hashed = 0usize;
    macro_rules! advance_hash {
        ($upto:expr) => {
            while hashed + 1 < $upto {
                let h = pair_hash(src[hashed], src[hashed + 1]);
                table[h] = hashed;
                hashed += 1;
            }
        };
    }

    while s < src.len() {
        if dst.len() >= limit {
            return Err(s);
        }
        if bit == 256 {
            dst[flag_pos] = flag;
            flag = 0;
            bit = 1;
            flag_pos = dst.len();
            dst.push(0);
        }
        // Try a back-reference: need at least 2 bytes left and a table
        // hit whose first two bytes match.
        let mut emitted_ref = false;
        if s + 2 <= src.len() {
            let h = pair_hash(src[s], src[s + 1]);
            let r = table[h];
            if r != usize::MAX && r + 1 < s && src[r] == src[s] && src[r + 1] == src[s + 1] {
                // Extend the match up to 255 extra bytes.
                let mut n = 0usize;
                while n < 255
                    && s + 2 + n < src.len()
                    && r + 2 + n < s + 2 + n // back-ref may overlap forward
                    && src[r + 2 + n] == src[s + 2 + n]
                {
                    n += 1;
                }
                flag |= bit as u8;
                dst.push(h as u8);
                dst.push(n as u8);
                advance_hash!(s);
                s += 2 + n;
                // After a copy, kdb+ restarts hashing from the new cursor.
                hashed = s;
                emitted_ref = true;
            }
        }
        if !emitted_ref {
            dst.push(src[s]);
            advance_hash!(s + 1);
            s += 1;
        }
        bit <<= 1;
    }
    dst[flag_pos] = flag;
    if dst.len() < limit {
        Ok(dst)
    } else {
        Err(s)
    }
}

/// Decompress a stream produced by [`compress`] into `uncompressed_len`
/// bytes. Returns `None` on malformed input.
pub fn decompress(src: &[u8], uncompressed_len: usize) -> Option<Vec<u8>> {
    let mut dst: Vec<u8> = Vec::with_capacity(uncompressed_len);
    let mut table = [usize::MAX; 256];
    let mut d = 0usize; // cursor into src
    let mut flag: u8 = 0;
    let mut bit: u16 = 0;
    let mut hashed = 0usize;

    while dst.len() < uncompressed_len {
        if bit == 0 || bit == 256 {
            flag = *src.get(d)?;
            d += 1;
            bit = 1;
        }
        if flag & (bit as u8) != 0 {
            let h = *src.get(d)? as usize;
            d += 1;
            let n = *src.get(d)? as usize;
            d += 1;
            let start = table[h];
            if start == usize::MAX {
                return None;
            }
            // Copy 2 + n bytes (may overlap the bytes just written).
            for r in start..start + 2 + n {
                let b = *dst.get(r)?;
                dst.push(b);
            }
            // Hash up to the start of the copied run, then skip past it.
            while hashed + 1 < dst.len() - (2 + n) {
                let h2 = pair_hash(dst[hashed], dst[hashed + 1]);
                table[h2] = hashed;
                hashed += 1;
            }
            hashed = dst.len();
        } else {
            let b = *src.get(d)?;
            d += 1;
            dst.push(b);
            while hashed + 1 < dst.len() {
                let h2 = pair_hash(dst[hashed], dst[hashed + 1]);
                table[h2] = hashed;
                hashed += 1;
            }
        }
        bit <<= 1;
    }
    if dst.len() == uncompressed_len {
        Some(dst)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic bytes that do not compress.
    fn noise(n: usize, mut x: u32) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect()
    }

    fn round_trip(data: &[u8]) {
        match compress(data) {
            Some(c) => {
                assert!(c.len() * 2 < data.len(), "compression must halve");
                let back = decompress(&c, data.len()).expect("decompress");
                assert_eq!(back, data);
            }
            None => { /* incompressible: caller sends raw */ }
        }
    }

    #[test]
    fn repetitive_data_compresses_and_round_trips() {
        let data = b"GOOGGOOGGOOGGOOGGOOGGOOGGOOGGOOGGOOGGOOG".repeat(20);
        let c = compress(&data).expect("highly repetitive data must compress");
        assert!(c.len() < data.len() / 2);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn typical_column_data_round_trips() {
        // A symbol column as QIPC would lay it out: repeated tickers.
        let mut data = Vec::new();
        for i in 0..500 {
            let sym: &[u8] = match i % 3 {
                0 => b"GOOG\0",
                1 => b"IBM\0\0",
                _ => b"MSFT\0",
            };
            data.extend_from_slice(sym);
        }
        round_trip(&data);
        assert!(compress(&data).is_some());
    }

    #[test]
    fn random_data_is_left_alone() {
        // Pseudo-random bytes do not compress; the caller falls back to
        // the uncompressed path.
        assert!(compress(&noise(4096, 12345)).is_none());
    }

    /// kdb+'s rule: a payload that compresses, but not to under half its
    /// size, goes out plain.
    #[test]
    fn a_compressed_form_of_half_the_size_or_more_is_refused() {
        // Three bytes of noise to one byte of a repeated run: about 0.85x.
        let mut data = Vec::new();
        for i in 0..64 {
            data.extend_from_slice(&noise(96, i));
            data.extend_from_slice(&[b'x'; 32]);
        }
        let unbounded = compress_within(&data, data.len()).expect("the payload shrinks");
        assert!(unbounded.len() * 2 >= data.len(), "{} of {}", unbounded.len(), data.len());
        assert_eq!(decompress(&unbounded, data.len()).unwrap(), data);
        assert!(compress(&data).is_none());
    }

    /// Exactly half is not under half; one byte less is.
    #[test]
    fn the_bound_is_strictly_under_half() {
        let data = b"GOOGGOOGGOOGGOOGGOOGGOOGGOOGGOOG".repeat(8);
        let c = compress_within(&data, data.len()).unwrap();
        assert!(compress_within(&data, c.len()).is_err());
        assert_eq!(compress_within(&data, c.len() + 1), Ok(c));
    }

    /// Giving up happens as the output reaches the bound, not after a
    /// whole pass: incompressible bytes cost about 9/8 of a byte each, so
    /// half the size is reached before half the input is read.
    #[test]
    fn an_incompressible_payload_stops_early() {
        let data = noise(65_536, 12345);
        let read = compress_within(&data, data.len().div_ceil(2)).unwrap_err();
        assert!(read > 0 && read < data.len() / 2, "read {read} of {} bytes", data.len());
        assert!(compress(&data).is_none());
    }

    #[test]
    fn zeros_and_small_inputs() {
        round_trip(&vec![0u8; 4096]);
        assert!(compress(b"tiny").is_none());
        assert!(compress(&[]).is_none());
    }

    #[test]
    fn long_runs_exceeding_255() {
        let data = vec![7u8; 10_000];
        let c = compress(&data).unwrap();
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert!(decompress(&[0xFF, 0x01], 100).is_none());
        assert!(decompress(&[], 10).is_none());
    }

    #[test]
    fn mixed_structure_round_trips() {
        // Interleave compressible and incompressible regions.
        let mut data = Vec::new();
        let mut x: u32 = 7;
        for chunk in 0..50 {
            if chunk % 2 == 0 {
                data.extend_from_slice(&b"0123456789".repeat(10));
            } else {
                for _ in 0..100 {
                    x = x.wrapping_mul(69069).wrapping_add(1);
                    data.push((x >> 16) as u8);
                }
            }
        }
        round_trip(&data);
    }
}
