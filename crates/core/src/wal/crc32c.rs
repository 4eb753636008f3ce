//! CRC-32C (Castagnoli), the journal's record checksum.
//!
//! The checksum is incremental: [`update`] continues a finished CRC over
//! more bytes, so `update(update(0, a), b) == update(0, ab)` and a record
//! streamed in chunks is checksummed chunk by chunk. On x86-64 CPUs with
//! SSE4.2 the `crc32` instruction folds 8 bytes per step; everywhere else a
//! byte-at-a-time table lookup computes the same value, and it is the
//! reference the hardware path is tested against. Which one runs is decided
//! per call with `is_x86_feature_detected!` (a cached flag), as
//! `asv_storage::simd` decides its AVX2 build.

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLE[b]` is the CRC register after shifting the byte `b` through it.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// Continues the CRC-32C `crc` (of the bytes before) over `bytes`; a CRC
/// starts at `0`.
pub(crate) fn update(crc: u32, bytes: &[u8]) -> u32 {
    update_hardware(crc, bytes).unwrap_or_else(|| update_portable(crc, bytes))
}

/// [`update`] by table lookup, one byte per step: the fallback and the
/// reference.
fn update_portable(crc: u32, bytes: &[u8]) -> u32 {
    let mut state = !crc;
    for &byte in bytes {
        state = TABLE[((state ^ u32::from(byte)) & 0xFF) as usize] ^ (state >> 8);
    }
    !state
}

/// [`update`] with the CPU's `crc32` instruction, or `None` where the CPU
/// has none.
fn update_hardware(crc: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `update_sse42` requires SSE4.2, detected just above. That
        // it computes the portable CRC is checked by
        // `hardware_and_portable_agree_on_every_length_and_offset`.
        return Some(unsafe { update_sse42(crc, bytes) });
    }
    let _ = (crc, bytes);
    None
}

/// [`update`] 8 bytes per `crc32` instruction, the tail byte by byte.
///
/// # Safety
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut state = u64::from(!crc);
    let mut rest = bytes;
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        state = _mm_crc32_u64(state, u64::from_le_bytes(*word));
        rest = tail;
    }
    // The instruction keeps the 32-bit register in the low half.
    let mut state = state as u32;
    for &byte in rest {
        state = _mm_crc32_u8(state, byte);
    }
    !state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_matches_reference_vectors() {
        assert_eq!(update(0, b""), 0);
        assert_eq!(update(0, b"123456789"), 0xE306_9283);
        // RFC 3720 (iSCSI) appendix B.4.
        assert_eq!(update(0, &[0x00; 32]), 0x8A91_36AA);
        assert_eq!(update(0, &[0xFF; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(update(0, &ascending), 0x46DD_794E);
        assert_eq!(update_portable(0, b"123456789"), 0xE306_9283);
    }

    #[test]
    fn hardware_and_portable_agree_on_every_length_and_offset() {
        let mut state = 0x3720_u64;
        let bytes: Vec<u8> = (0..320)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &bytes[start..start + len];
                let portable = update_portable(0, slice);
                if let Some(hardware) = update_hardware(0, slice) {
                    assert_eq!(hardware, portable, "start {start} len {len}");
                }
                assert_eq!(update(0, slice), portable, "start {start} len {len}");
                // Chunked updates equal the one-shot CRC.
                for cut in [0, 1, len / 3, len / 2, len.saturating_sub(7), len] {
                    let (a, b) = slice.split_at(cut.min(len));
                    assert_eq!(update(update(0, a), b), portable, "len {len} cut {cut}");
                    assert_eq!(
                        update_portable(update_portable(0, a), b),
                        portable,
                        "len {len} cut {cut}"
                    );
                }
            }
        }
    }
}
