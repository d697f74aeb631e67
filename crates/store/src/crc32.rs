//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding every FBIN section payload, on both the write and the read side.
//!
//! Implemented locally because the workspace builds offline with zero
//! external crates. The loop is slice-by-8: eight tables, all computed at
//! compile time, fold eight payload bytes into the running CRC with eight
//! independent lookups, so the table loads overlap instead of each waiting
//! on the one before (the one-lookup-per-byte loop chains every byte
//! through the previous CRC). The last `len % 8` bytes take the classic
//! one-byte step through `TABLES[0]`. The result is the same checksum bit
//! for bit, so FBIN bytes do not change.

/// `TABLES[0]` is the classic byte table for the reflected IEEE
/// polynomial; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which lets one step absorb eight bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `data` (IEEE, as used by zip/png/ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipper_rng::{Rng, Xoshiro256pp};

    /// The plain one-lookup-per-byte CRC-32, kept as the reference the
    /// production loop is checked against.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Every length 0..=64 from every start offset 0..8 covers each split
    /// into 8-byte blocks and a tail, at every alignment; a longer buffer
    /// covers many blocks in a row.
    #[test]
    fn matches_the_bytewise_reference() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xC3C3);
        let bytes: Vec<u8> = (0..72).map(|_| rng.gen::<u64>() as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "start {start} len {len}");
            }
        }
        let long: Vec<u8> = (0..4099).map(|_| rng.gen::<u64>() as u8).collect();
        assert_eq!(crc32(&long), bytewise(&long));
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"flipper");
        let mut data = *b"flipper";
        for i in 0..data.len() {
            for bit in 0..8u8 {
                data[i] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at byte {i} bit {bit}");
                data[i] ^= 1 << bit;
            }
        }
    }
}
