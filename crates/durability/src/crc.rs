//! CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8.
//!
//! Every WAL record frame and every segment file carries one of these
//! checksums; recovery treats a mismatch as "this region never finished
//! reaching the disk" (torn tail) or "this region was damaged after the
//! fact" (corruption), depending on where it sits. Implemented here
//! because the workspace builds without registry access (DESIGN §11) —
//! the polynomial is the same one zlib/PNG/Ethernet use, so golden
//! values can be checked against any external tool.
//!
//! A checkpoint checksums every byte of every table it spills, so the
//! loop matters: eight bytes per step through eight derived tables
//! (Intel's "slicing-by-8") instead of one byte per step through one.
//! The one-byte loop finishes the tail and is the tests' oracle.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic 256-entry byte table; `TABLES[k][b]` is
/// the CRC state of byte `b` followed by `k` zero bytes, so eight
/// lookups fold eight input bytes at once. Built at compile time.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 of `data` (one-shot).
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form: feed chunks through `update` starting from
/// `0xFFFF_FFFF`, then XOR the final state with `0xFFFF_FFFF`.
pub fn update(state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = state;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    update_bytewise(c, chunks.remainder())
}

/// One byte per step through `TABLES[0]`.
fn update_bytewise(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    for &b in data {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte loop over the whole input: the reference `update` must
    /// equal.
    fn oracle(data: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// Deterministic filler (xorshift), so long inputs cost no RNG crate.
    fn filler(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn golden_values() {
        // Standard CRC-32 check vectors.
        for f in [crc32, oracle] {
            assert_eq!(f(b""), 0x0000_0000);
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        }
    }

    #[test]
    fn slice_by_8_matches_the_byte_loop_at_chunk_edges() {
        let data = filler(4_800_000);
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 100, data.len()] {
            assert_eq!(crc32(&data[..len]), oracle(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"hello durability layer";
        let mut state = 0xFFFF_FFFFu32;
        for chunk in data.chunks(5) {
            state = update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, crc32(data));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any length, any split of the stream: slice-by-8 through
        /// `update` equals the byte loop over the whole input.
        #[test]
        fn slice_by_8_equals_the_byte_loop(
            data in prop::collection::vec(any::<u8>(), 0..4096),
            cut_a in any::<usize>(),
            cut_b in any::<usize>(),
        ) {
            let (a, b) = {
                let a = cut_a % (data.len() + 1);
                let b = cut_b % (data.len() + 1);
                (a.min(b), a.max(b))
            };
            prop_assert_eq!(crc32(&data), oracle(&data));
            let mut state = 0xFFFF_FFFFu32;
            for part in [&data[..a], &data[a..b], &data[b..]] {
                state = update(state, part);
            }
            prop_assert_eq!(state ^ 0xFFFF_FFFF, oracle(&data));
        }
    }

    #[test]
    fn single_bit_flip_changes_the_checksum() {
        let mut data = b"some payload bytes".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() * 8 {
            data[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&data), base, "bit {i} flip went undetected");
            data[i / 8] ^= 1 << (i % 8);
        }
    }
}
