//! The one place the sweep's content hashing lives: FNV-1a 64-bit over a
//! canonical byte string, rendered as 16 lower-case hex digits.
//!
//! [`RunKey`](crate::RunKey), the per-run content hash behind the result
//! cache's blob names and keys, is built on these primitives; the pinned
//! golden-vector test below fails loudly if the hash function (and
//! therefore every cached blob on disk) ever changes meaning.
//!
//! FNV-1a is deliberate: the workspace carries no external hash crates,
//! and collision resistance is not a goal — these hashes guard against
//! honest mistakes (reading a stale cache blob), not adversaries.

/// FNV-1a 64-bit over a byte string. The offset basis and prime are the
/// published constants; the reference vectors are pinned by a test so the
/// function can never drift silently under the on-disk formats built on
/// it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical rendering of a 64-bit hash everywhere it lands on disk
/// (cache blob keys and file names): 16 lower-case hex digits,
/// zero-padded.
pub fn hex16(h: u64) -> String {
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors: the golden pin under every
        // on-disk key. If this fails, cached blobs written by earlier
        // builds are orphaned — say so in docs/SWEEP_FORMAT.md instead of
        // bending the hash.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hex16_is_padded_lower_case() {
        assert_eq!(hex16(0), "0000000000000000");
        assert_eq!(hex16(0xABC), "0000000000000abc");
        assert_eq!(hex16(u64::MAX), "ffffffffffffffff");
    }
}
