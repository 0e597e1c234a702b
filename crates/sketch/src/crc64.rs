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
//! Two kernels compute the same value bit for bit:
//!
//! * **slice-by-8** — eight 256-entry tables, evaluated at compile time,
//!   fold eight input bytes into the state with eight independent
//!   lookups. Pure `std`, no allocation, every target.
//! * **pclmulqdq** — carry-less multiply folds 128 bytes per step into
//!   eight independent 128-bit lanes, folds the lanes into one, and hands
//!   that register and the last < 16 bytes to the tables: a CRC run from
//!   state 0 over a 16-byte register is that register times x^64 mod P,
//!   exactly the reduction the fold needs, so there is no Barrett step.
//!   The fold constants are powers of x mod P computed at compile time,
//!   so neither kernel has anything to initialise at run time.
//!
//! The dispatch rule: an input of at least `CLMUL_MIN_LEN` (128) bytes
//! takes the carry-less kernel when the target is x86_64, the CPU has
//! `pclmulqdq` (`is_x86_feature_detected!`, which std caches) and the
//! build is not under Miri; everything else takes the tables. [`kernel`]
//! names the kernel a long input takes on this CPU, and `polinv verify`
//! and `polinv build --timings` print it.
//!
//! `cargo run --release -p pol-sketch --example crc64_throughput` prints
//! the GB/s of [`crc64`] over one buffer of each size the workspace
//! seals. On the 2-vCPU Xeon this repository is built on, medians of
//! three alternating runs each (a busier hour read about 10 % lower on
//! both sides):
//!
//! | input | slice-by-8 (GB/s) | pclmulqdq (GB/s) |
//! |---|---|---|
//! | 37 B (a report) | 2.37 | 2.52 (the tables) |
//! | 1 KiB | 1.56 | 22.5 |
//! | 13 KiB (a WAL frame) | 1.52 | 23.4 |
//! | 800 KiB (a delta link) | 1.64 | 24.4 |
//! | 6.7 MB (`batch_build`'s image) | 1.51 | 22.8 |
//!
//! At the tables' rate the check was most of a cold start: 4.9–5.7 of the
//! 5.1–5.9 ms a server took to open `batch_build`'s image, against 0.34
//! of 0.55–0.59 now (DESIGN.md §8, "Decode").

/// The reflected ECMA-182 polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// The shortest input the carry-less-multiply kernel takes; shorter ones
/// go through the tables. It is the first length with a whole 128-byte
/// step to fold, and the kernel already wins there: 13 ns against the
/// tables' 75 on this repository's Xeon. A measured constant, not a
/// setting.
const CLMUL_MIN_LEN: usize = 128;

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

/// The table kernel: the state after `bytes`, from `crc`.
fn slice_by_8(mut crc: u64, bytes: &[u8]) -> u64 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    // Table indices are single bytes: indexing cannot overrun, and
    // `get` would hide that invariant.
    let byte = |w: u64, i: u32| (w >> (8 * i)) as u8 as usize;
    let (blocks, rest) = bytes.as_chunks::<8>();
    for block in blocks {
        let w = crc ^ u64::from_le_bytes(*block);
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
    for &b in rest {
        crc = t0[byte(crc ^ u64::from(b), 0)] ^ (crc >> 8);
    }
    crc
}

/// The carry-less-multiply kernel (x86_64 with `pclmulqdq`).
///
/// A 128-bit lane loaded little-endian holds 128 message bits with the
/// earliest in bit 0, so its low qword is the high-degree half. Moving a
/// lane `d` bits later in the message multiplies its low qword by
/// x^(d+64) and its high qword by x^d. The carry-less product of two
/// reflected qwords fills bits 0..=126, which a reflected register reads
/// as the product times x, so the constants are x^(d+63) and x^(d−1)
/// mod P.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use super::{slice_by_8, POLY};
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_loadu_si128, _mm_set_epi64x,
        _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// x^e mod P, bit-reflected: bit `i` holds the coefficient of
    /// x^(63 − i), so multiplying by x is a right shift that folds x^64
    /// back in as P.
    const fn x_pow_mod(e: u32) -> u64 {
        let mut r = 1u64 << 63;
        let mut i = 0;
        while i < e {
            r = (r >> 1) ^ (POLY & (r & 1).wrapping_neg());
            i += 1;
        }
        r
    }

    /// Folding a lane 1 024 bits (one 128-byte step) on: (low, high).
    pub(super) const K_1087: u64 = x_pow_mod(1087);
    pub(super) const K_1023: u64 = x_pow_mod(1023);
    /// Folding a lane 128 bits (one 16-byte step) on: (low, high).
    pub(super) const K_191: u64 = x_pow_mod(191);
    pub(super) const K_127: u64 = x_pow_mod(127);

    /// Whether this CPU has the instruction (std caches the probe).
    pub(super) fn detected() -> bool {
        std::is_x86_feature_detected!("pclmulqdq")
    }

    /// Two 64-bit constants as one register, `low` in the low qword.
    #[target_feature(enable = "sse2")]
    fn pair(low: u64, high: u64) -> __m128i {
        // The casts reinterpret bits; nothing is truncated.
        _mm_set_epi64x(high as i64, low as i64)
    }

    /// One 16-byte lane, as it lies in memory.
    #[target_feature(enable = "sse2")]
    fn load(lane: &[u8; 16]) -> __m128i {
        // SAFETY: `lane` is 16 readable bytes for the whole call and
        // `_mm_loadu_si128` (SSE2, always present on x86_64) has no
        // alignment requirement; tested by: crc64_reference,
        // wide_and_table_kernels_agree.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// `x` moved on by the distance `k` encodes, xored onto `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128::<0x00>(x, k);
        let high = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(low, high), next)
    }

    /// The state after `bytes`, from `state`.
    ///
    /// # Safety
    ///
    /// Outside a `pclmulqdq` context a call is `unsafe`: the caller must
    /// know the CPU has the instruction ([`detected`]).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(state: u64, bytes: &[u8]) -> u64 {
        let (lanes, tail) = bytes.as_chunks::<16>();
        let (blocks, rest) = lanes.as_chunks::<8>();
        let Some((first, blocks)) = blocks.split_first() else {
            return slice_by_8(state, bytes);
        };
        // The state is the CRC of what came before: xored onto the first
        // eight bytes, it carries that prefix into the fold.
        let mut acc = first.each_ref().map(|lane| load(lane));
        let [head, ..] = &mut acc;
        *head = _mm_xor_si128(*head, pair(state, 0));
        let step = pair(K_1087, K_1023);
        for block in blocks {
            for (lane, next) in acc.iter_mut().zip(block) {
                *lane = fold(*lane, step, load(next));
            }
        }
        let step = pair(K_191, K_127);
        let [mut x, others @ ..] = acc;
        for next in others {
            x = fold(x, step, next);
        }
        for lane in rest {
            x = fold(x, step, load(lane));
        }
        // The register is the whole input but `tail`, folded: from state
        // 0 the tables leave it times x^64 mod P, its CRC.
        let low = _mm_cvtsi128_si64(x) as u64;
        let high = _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)) as u64;
        let register = (u128::from(high) << 64 | u128::from(low)).to_le_bytes();
        slice_by_8(slice_by_8(0, &register), tail)
    }
}

/// The kernel an input of `CLMUL_MIN_LEN` bytes or more takes on this
/// CPU: `"pclmulqdq"` or `"slice-by-8"`.
pub fn kernel() -> &'static str {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if clmul::detected() {
        return "pclmulqdq";
    }
    "slice-by-8"
}

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
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if bytes.len() >= CLMUL_MIN_LEN && clmul::detected() {
            // SAFETY: `clmul::update` needs pclmulqdq, and `detected`
            // just saw it on this CPU; tested by: crc64_reference,
            // wide_and_table_kernels_agree.
            self.state = unsafe { clmul::update(self.state, bytes) };
            return;
        }
        self.state = slice_by_8(self.state, bytes);
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
        // 32 whole 128-byte steps (every lane of the wide kernel), three
        // 16-byte lanes and an 11-byte tail.
        let data: Vec<u8> = (0..4096 + 59u32).map(|i| (i * 17 % 256) as u8).collect();
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

    /// x^e mod P one bit at a time in the unreflected form (x^64 is bit
    /// 64 of a `u128`), reflected only at the end.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    fn x_pow_mod_unreflected(e: u32) -> u64 {
        let p = 1u128 << 64 | u128::from(POLY.reverse_bits());
        let mut r = 1u128;
        for _ in 0..e {
            r <<= 1;
            if r >> 64 == 1 {
                r ^= p;
            }
        }
        (r as u64).reverse_bits()
    }

    #[test]
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    fn fold_constants_are_powers_of_x_mod_p() {
        for (k, e) in [
            (clmul::K_127, 127),
            (clmul::K_191, 191),
            (clmul::K_1023, 1023),
            (clmul::K_1087, 1087),
        ] {
            assert_eq!(k, x_pow_mod_unreflected(e), "x^{e}");
        }
    }

    #[test]
    fn kernel_is_pclmulqdq_wherever_the_cpu_has_it() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::is_x86_feature_detected!("pclmulqdq") {
            assert_eq!(kernel(), "pclmulqdq");
            return;
        }
        assert_eq!(kernel(), "slice-by-8");
    }

    #[test]
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    fn wide_and_table_kernels_agree() {
        if !clmul::detected() {
            return;
        }
        let data: Vec<u8> = (0..70_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every length across the first blocks, then long ones, at five
        // start alignments, from the fresh state, zero and a worn one.
        let lengths = (0..=600).chain([1 << 12, 13 * 1024 + 5, 65_536 + 127]);
        for len in lengths {
            for start in [0, 1, 7, 8, 15] {
                let slice = &data[start..start + len];
                for state in [!0, 0, 0x0123_4567_89AB_CDEF] {
                    // SAFETY: `detected` returned true above.
                    let wide = unsafe { clmul::update(state, slice) };
                    assert_eq!(
                        wide,
                        slice_by_8(state, slice),
                        "{start}+{len} from {state:x}"
                    );
                }
            }
        }
    }
}
