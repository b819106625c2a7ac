//! Self-validating payloads: every byte the benchmark stores can be checked
//! on the way back without a reference copy.
//!
//! * A KV value carries its key id, a *stamp* naming the write that
//!   produced it (the loader, or one script position of one client), a
//!   filler derived from both, and a CRC32C over all of that.
//! * A region block carries a pattern derived from its byte offset alone,
//!   so a read is correct whichever write it raced with.

use rstore::crc::crc32c;

/// Bytes per KV value.
pub const VALUE_BYTES: usize = 64;
/// Bytes per KV key: `k` plus seven decimal digits.
pub const KEY_BYTES: usize = 8;

/// The stamp of the value the loader stores.
pub const LOADER_STAMP: u64 = 0;

/// The stamp of the put at position `idx` of client `client`'s script.
pub fn stamp(client: usize, idx: usize) -> u64 {
    ((client as u64 + 1) << 32) | idx as u64
}

/// The `(client, script position)` a non-loader stamp names.
pub fn stamp_origin(stamp: u64) -> Option<(usize, usize)> {
    let writer = stamp >> 32;
    (writer != 0).then(|| ((writer - 1) as usize, (stamp & 0xffff_ffff) as usize))
}

/// The key for id `id` (< 10^7).
pub fn key(id: u64) -> [u8; KEY_BYTES] {
    debug_assert!(id < 10_000_000);
    let mut k = *b"k0000000";
    let mut rest = id;
    for d in k[1..].iter_mut().rev() {
        *d = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    k
}

/// SplitMix64: a cheap, well-mixed stream for filler bytes and patterns.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn filler(id: u64, stamp: u64, out: &mut [u8]) {
    let seed = id.rotate_left(17) ^ stamp;
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let w = mix(seed ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f)).to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

/// The value written for key `id` under `stamp`:
/// `[id u64 | stamp u64 | filler 44 B | crc32c u32]`.
pub fn value(id: u64, stamp: u64) -> [u8; VALUE_BYTES] {
    let mut v = [0u8; VALUE_BYTES];
    v[..8].copy_from_slice(&id.to_le_bytes());
    v[8..16].copy_from_slice(&stamp.to_le_bytes());
    filler(id, stamp, &mut v[16..VALUE_BYTES - 4]);
    let crc = crc32c(&v[..VALUE_BYTES - 4]);
    v[VALUE_BYTES - 4..].copy_from_slice(&crc.to_le_bytes());
    v
}

/// Checks that `got` is a well-formed value for key `id` and returns its
/// stamp; `Err` names the first defect.
pub fn check_value(id: u64, got: &[u8]) -> Result<u64, String> {
    if got.len() != VALUE_BYTES {
        return Err(format!("key {id}: value of {} bytes", got.len()));
    }
    let crc = u32::from_le_bytes(got[VALUE_BYTES - 4..].try_into().expect("4 bytes"));
    if crc32c(&got[..VALUE_BYTES - 4]) != crc {
        return Err(format!("key {id}: value fails its CRC32C"));
    }
    let stored_id = u64::from_le_bytes(got[..8].try_into().expect("8 bytes"));
    if stored_id != id {
        return Err(format!("key {id}: holds the value of key {stored_id}"));
    }
    let stamp = u64::from_le_bytes(got[8..16].try_into().expect("8 bytes"));
    if value(id, stamp)[..] != got[..] {
        return Err(format!("key {id}: filler does not match stamp {stamp:#x}"));
    }
    Ok(stamp)
}

/// Fills `out` with the pattern a region holds at byte offset `offset`
/// (both 8-byte aligned).
pub fn fill_pattern(offset: u64, out: &mut [u8]) {
    debug_assert!(offset.is_multiple_of(8) && out.len().is_multiple_of(8));
    for (i, chunk) in out.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(offset + 8 * i as u64).to_le_bytes());
    }
}

/// Byte offset of the first byte of `got` that differs from the pattern
/// at `offset`, if any.
pub fn check_pattern(offset: u64, got: &[u8]) -> Option<u64> {
    debug_assert!(offset.is_multiple_of(8) && got.len().is_multiple_of(8));
    got.chunks_exact(8).enumerate().find_map(|(i, chunk)| {
        let at = offset + 8 * i as u64;
        let want = mix(at).to_le_bytes();
        (chunk != want).then(|| {
            let j = chunk.iter().zip(want).position(|(a, b)| *a != b);
            at + j.expect("differing chunk has a differing byte") as u64
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_fixed_width_decimal() {
        assert_eq!(&key(0), b"k0000000");
        assert_eq!(&key(1_048_575), b"k1048575");
    }

    #[test]
    fn values_round_trip_and_every_byte_flip_is_caught() {
        let s = stamp(111, 999);
        assert_eq!(stamp_origin(s), Some((111, 999)));
        assert_eq!(stamp_origin(LOADER_STAMP), None);
        let v = value(42, s);
        assert_eq!(check_value(42, &v), Ok(s));
        assert!(check_value(43, &v).is_err());
        for i in 0..VALUE_BYTES {
            let mut bad = v;
            bad[i] ^= 0x10;
            assert!(check_value(42, &bad).is_err(), "flip at byte {i} missed");
        }
    }

    #[test]
    fn pattern_checks_name_the_first_wrong_byte() {
        let mut block = vec![0u8; 4096];
        fill_pattern(65_536, &mut block);
        assert_eq!(check_pattern(65_536, &block), None);
        assert!(check_pattern(65_536 + 4096, &block).is_some());
        block[1234] ^= 1;
        assert_eq!(check_pattern(65_536, &block), Some(65_536 + 1234));
    }
}
