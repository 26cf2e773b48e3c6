//! CRC-32C (Castagnoli) checksums for the durable-evidence codec.
//!
//! The persistence layer (`trustex-persist`) frames every snapshot
//! section and evidence-log record with a checksum so crash-truncated or
//! bit-flipped state surfaces as a typed decode error instead of a
//! silently-wrong trust table. The Castagnoli polynomial is the one used
//! by iSCSI/ext4 (better error-detection properties than CRC-32/ISO-HDLC
//! for short messages), computed with a slicing-by-8 kernel: eight
//! 256-entry tables, built at compile time, fold eight input bytes per
//! step, and a byte-at-a-time loop over the first table finishes the
//! tail — zero dependencies, deterministic across platforms. The SSE4.2
//! and ARMv8 CRC instructions would be faster still, but reaching them
//! needs `unsafe` intrinsics, which this crate forbids.
//!
//! ```
//! use trustex_netsim::crc::{crc32c, Crc32};
//!
//! assert_eq!(crc32c(b"123456789"), 0xE306_9283);
//! let mut incremental = Crc32::new();
//! incremental.update(b"1234");
//! incremental.update(b"56789");
//! assert_eq!(incremental.finish(), crc32c(b"123456789"));
//! ```

/// Reflected CRC-32C polynomial (0x1EDC6F41 bit-reversed).
const POLY: u32 = 0x82F6_3B78;

/// The slicing-by-8 lookup tables, built at compile time. `TABLES[0]`
/// advances the CRC by one byte; `TABLES[k]` gives the contribution of a
/// byte followed by `k` more bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Incremental CRC-32C state, for checksumming data produced in chunks.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds a chunk of bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        // Eight bytes per step: the running CRC folds into the word's low
        // four bytes, and each byte is looked up in the table for the
        // number of bytes that follow it within the word.
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ u64::from(crc);
            crc = t[7][x as u8 as usize]
                ^ t[6][(x >> 8) as u8 as usize]
                ^ t[5][(x >> 16) as u8 as usize]
                ^ t[4][(x >> 24) as u8 as usize]
                ^ t[3][(x >> 32) as u8 as usize]
                ^ t[2][(x >> 40) as u8 as usize]
                ^ t[1][(x >> 48) as u8 as usize]
                ^ t[0][(x >> 56) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][(crc as u8 ^ b) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far. Does not consume the
    /// state: more updates may follow (they continue the same stream).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32C of a byte slice.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference: eight shift-and-xor steps per byte, no
    /// table, so it shares nothing with the kernel under test.
    fn crc32c_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Every length up to 1024 at every start offset 0..8 into one buffer,
    /// so each head alignment and each tail length reaches the kernel.
    #[test]
    fn slicing_kernel_matches_bitwise_reference() {
        let data: Vec<u8> = (0..1032u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32c(slice),
                    crc32c_bitwise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    /// The catalogued CRC-32C check value ("123456789" → 0xE3069283),
    /// the RFC 3720 (iSCSI) appendix B.4 vectors and a couple of edge
    /// inputs.
    #[test]
    fn known_vectors() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"a"), 0xC1D0_4330);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..=31u8).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0..=31u8).rev().collect();
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
    }

    /// Every split point of a 100-byte input, plus a few of a longer one.
    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let splits = (0..=100).map(|s| (100, s));
        for (len, split) in splits.chain([0usize, 1, 7, 500, 999, 1000].map(|s| (1000, s))) {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..len]);
            assert_eq!(
                crc.finish(),
                crc32c(&data[..len]),
                "len {len} split at {split}"
            );
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..64u8).collect();
        let reference = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32c(&corrupted), reference, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn finish_is_idempotent() {
        let mut crc = Crc32::new();
        crc.update(b"hello");
        let first = crc.finish();
        assert_eq!(crc.finish(), first);
        crc.update(b" world");
        assert_eq!(crc.finish(), crc32c(b"hello world"));
    }
}
