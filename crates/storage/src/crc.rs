//! The one checksum of the workspace: CRC-32 (IEEE 802.3, reflected,
//! polynomial 0xEDB88320). Every wire frame (`partix_net::frame`
//! re-exports it) and every WAL record ([`crate::wal`]) is sealed and
//! verified by [`crc32`]; it lives here, below both, because the network
//! crate depends on storage and not the other way round.
//!
//! One table step consumes eight bytes: `TABLES[k][b]` is the register of
//! byte `b` followed by `k` zero bytes, so the eight lookups of a step are
//! independent and only their XOR feeds the next step (slicing-by-8). One
//! chain of such steps is latency-bound: each waits for the last. So the
//! kernel walks a 4 KiB block as four 1 KiB *lanes* in one loop — four
//! independent chains the CPU overlaps — and joins them afterwards. The
//! register is linear over GF(2): running a register `r` over a lane is
//! `r · x^(8·LANE) mod P` plus the lane's own register from zero. So lane 0
//! starts from the running register, lanes 1–3 from zero, and three
//! multiplies by [`SHIFT`] (zlib's `crc32_combine` arithmetic, `SHIFT`
//! evaluated at compile time) chain them in order. What is left after the
//! last whole block (< 4 KiB) takes the single-chain step, then a bytewise
//! tail. Every buffer takes this one path; a short one just runs the
//! block loop zero times. Safe Rust, the same bytes on every CPU.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes per lane. Lanes of 1 KiB win from a 4 KiB buffer up; longer
/// lanes need longer buffers before they pay (EXPERIMENTS § B21).
const LANE: usize = 1024;

/// `x^(8·LANE) mod P`: multiplying a register by it is running the
/// register over one lane of zero bytes.
const SHIFT: u32 = x8nmodp(LANE);

/// `TABLES[k][b]`: the register of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(4 * LANE);
    for block in &mut blocks {
        let (a, rest) = block.split_at(LANE);
        let (b, rest) = rest.split_at(LANE);
        let (c, d) = rest.split_at(LANE);
        let (mut ca, mut cb, mut cc, mut cd) = (crc, 0, 0, 0);
        for (((wa, wb), wc), wd) in
            a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8)).zip(d.chunks_exact(8))
        {
            ca = step(ca, wa);
            cb = step(cb, wb);
            cc = step(cc, wc);
            cd = step(cd, wd);
        }
        crc = multmodp(SHIFT, multmodp(SHIFT, multmodp(SHIFT, ca) ^ cb) ^ cc) ^ cd;
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        crc = step(crc, w);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One slicing-by-8 step: the register after the eight bytes of `w`.
#[inline(always)]
fn step(crc: u32, w: &[u8]) -> u32 {
    let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][w[4] as usize]
        ^ TABLES[2][w[5] as usize]
        ^ TABLES[1][w[6] as usize]
        ^ TABLES[0][w[7] as usize]
}

/// `a · b mod P`, reflected (bit 31 is `x^0`): zlib's `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `x^(8·n) mod P` by square-and-multiply: zlib's `x2nmodp(n, 3)`.
const fn x8nmodp(mut n: usize) -> u32 {
    let mut power = 1u32 << 31; // x^0
    let mut square = 1u32 << 23; // x^8
    while n != 0 {
        if n & 1 != 0 {
            power = multmodp(square, power);
        }
        square = multmodp(square, square);
        n >>= 1;
    }
    power
}

const fn tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
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
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: usize = 4 * LANE;

    /// The bytewise table walk the sliced kernels replaced, over a table of
    /// its own: the reference. The register after every prefix of `data`
    /// walked from `crc`, so one pass serves every length at once.
    fn bytewise_registers(mut crc: u32, data: &[u8]) -> Vec<u32> {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *slot = crc;
        }
        let mut registers = Vec::with_capacity(data.len() + 1);
        registers.push(crc);
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
            registers.push(crc);
        }
        registers
    }

    fn crc32_bytewise(data: &[u8]) -> u32 {
        !bytewise_registers(!0, data)[data.len()]
    }

    /// Seeded xorshift bytes: the differential needs no particular
    /// distribution, only that it repeats.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            out.extend_from_slice(&seed.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn crc32_known_vectors() {
        // standard IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
        // the table entries the kernel is built from, bit-at-a-time
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
    }

    #[test]
    fn shift_is_one_lane_of_zero_bytes() {
        for reg in [1u32, 0x8000_0000, 0xFFFF_FFFF, 0x1234_5678, 0xDEAD_BEEF] {
            let walked = bytewise_registers(reg, &[0; LANE])[LANE];
            assert_eq!(multmodp(SHIFT, reg), walked, "register {reg:#010x}");
        }
        assert_eq!(x8nmodp(0), 1 << 31);
        assert_eq!(x8nmodp(1), 1 << 23);
    }

    #[test]
    fn crc32_sliced_equals_bytewise_reference() {
        // every length from empty to two blocks and a word past, at offset 0
        let buf = noise(2 * BLOCK + 64 + 8, 0x9E37_79B9_7F4A_7C15);
        // `!prefixes[len]` is the CRC of `buf[..len]`
        let prefixes = bytewise_registers(!0, &buf);
        for len in 0..=2 * BLOCK + 64 {
            assert_eq!(crc32(&buf[..len]), !prefixes[len], "len {len}");
        }
        // around each block boundary, at every misalignment
        for offset in 1..8 {
            let prefixes = bytewise_registers(!0, &buf[offset..]);
            for boundary in [BLOCK, 2 * BLOCK] {
                for len in boundary - 16..=boundary + 16 {
                    let data = &buf[offset..offset + len];
                    assert_eq!(crc32(data), !prefixes[len], "offset {offset}, len {len}");
                }
            }
        }
        // answer-sized buffers, odd lengths included
        for (seed, len) in [(1, 600 << 10), (2, 1 << 20), (3, (1 << 20) + 5)] {
            let data = noise(len, seed);
            assert_eq!(crc32(&data), crc32_bytewise(&data), "{len} B");
        }
    }

    #[test]
    fn a_flipped_byte_in_any_lane_changes_the_value() {
        let data = noise(3 * BLOCK, 42);
        let clean = crc32(&data);
        for block in 0..3 {
            for lane in 0..4 {
                for within in [0, 7, 8, LANE / 2 + 3, LANE - 1] {
                    let at = block * BLOCK + lane * LANE + within;
                    let mut bent = data.clone();
                    bent[at] ^= 0x01 << (at % 8);
                    let value = crc32(&bent);
                    assert_ne!(value, clean, "block {block}, lane {lane}, byte {within}");
                    assert_eq!(value, crc32_bytewise(&bent), "block {block}, lane {lane}");
                }
            }
        }
    }
}
