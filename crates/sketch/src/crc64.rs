//! CRC-64/XZ (aka CRC-64/GO-ECMA): the checksum sealing the inventory
//! file's sections.
//!
//! Parameters: reflected ECMA-182 polynomial `0xC96C5795D7870F42`,
//! initial value and final XOR `!0`. This is the variant used by `xz`
//! and Go's `hash/crc64` ECMA table, chosen over CRC-32 because the
//! inventory body routinely reaches hundreds of megabytes, where a
//! 32-bit check's collision floor starts to matter, and over a
//! cryptographic hash because the threat model is bit rot and torn
//! writes, not an adversary.
//!
//! The implementation is slice-by-8: eight 256-entry tables, evaluated at
//! compile time, let one step fold eight input bytes into the state with
//! eight independent lookups where the bytewise form chains eight
//! dependent ones. Pure `std`, no allocation, nothing to initialise at run
//! time. Measured in release mode on two shared cores: 1.6 GB/s over one
//! 8 MiB buffer, 2.5 GB/s over many 37-byte ones (their digests overlap in
//! the pipeline); the bytewise loop it replaced measured 0.42 and
//! 0.79 GB/s. Far faster than the disk writes it guards, and no longer
//! most of a cold start (DESIGN.md §8, "Decode").

/// The reflected ECMA-182 polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// The classic bytewise table: the state a lone byte leaves behind.
const fn byte_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// `TABLES[k][b]` is the state that byte `b` leaves behind once `k` zero
/// bytes have followed it, so the byte `k` places from the end of an
/// 8-byte block contributes `TABLES[k][b]` to the state after the block.
static TABLES: [[u64; 256]; 8] = {
    let base = byte_table();
    let mut tables = [base; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = base[(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// A streaming CRC-64/XZ digest.
///
/// ```
/// use pol_sketch::crc64::Crc64;
/// let mut d = Crc64::new();
/// d.update(b"123456789");
/// assert_eq!(d.finish(), 0x995D_C9BB_DF19_39FA); // the standard check value
/// ```
#[derive(Clone, Debug)]
pub struct Crc64 {
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    /// A fresh digest.
    pub fn new() -> Crc64 {
        Crc64 { state: !0 }
    }

    /// Feeds bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        // Table indices are single bytes: indexing cannot overrun, and
        // `get` would hide that invariant.
        let byte = |w: u64, i: u32| (w >> (8 * i)) as u8 as usize;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(8);
        for block in &mut blocks {
            let mut le = [0u8; 8];
            le.copy_from_slice(block);
            let w = crc ^ u64::from_le_bytes(le);
            crc = t7[byte(w, 0)]
                ^ t6[byte(w, 1)]
                ^ t5[byte(w, 2)]
                ^ t4[byte(w, 3)]
                ^ t3[byte(w, 4)]
                ^ t2[byte(w, 5)]
                ^ t1[byte(w, 6)]
                ^ t0[byte(w, 7)];
        }
        // The last block, when it is short of eight bytes.
        for &b in blocks.remainder() {
            crc = t0[byte(crc ^ u64::from(b), 0)] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The digest of everything fed so far (the digest stays usable).
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

/// One-shot convenience over [`Crc64`].
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut d = Crc64::new();
    d.update(bytes);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_check_value() {
        // The canonical CRC-64/XZ check: crc of "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut d = Crc64::new();
        for chunk in data.chunks(7) {
            d.update(chunk);
        }
        assert_eq!(d.finish(), crc64(&data));
    }

    #[test]
    fn detects_every_single_bit_flip() {
        let data: Vec<u8> = (0..256u32).map(|i| (i * 17 % 256) as u8).collect();
        let clean = crc64(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc64(&corrupt), clean, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn finish_is_idempotent() {
        let mut d = Crc64::new();
        d.update(b"abc");
        assert_eq!(d.finish(), d.finish());
        d.update(b"def");
        assert_eq!(d.finish(), crc64(b"abcdef"));
    }
}
