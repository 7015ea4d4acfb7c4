//! 64-bit avalanche mixers.
//!
//! All three mixers are *bijections* on `u64`: distinct inputs always map
//! to distinct outputs. The workload generators in `cfd-stream` rely on
//! this to turn a counter into a stream of *distinct* pseudo-random click
//! identifiers, exactly matching the evaluation protocol of the paper
//! ("we generated `20·N` distinct click identifiers", §5).

/// SplitMix64 finalizer (Steele, Lea & Flood / Vigna).
///
/// A fast, high-quality bijective mixer; the de-facto standard for seeding
/// and counter-based id generation.
///
/// ```rust
/// use cfd_hash::mix::splitmix64;
/// assert_ne!(splitmix64(1), splitmix64(2));
/// ```
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// MurmurHash3 `fmix64` finalizer (Appleby).
///
/// Used internally by [`crate::murmur::murmur3_x64_128`] and exposed for
/// direct use as a mixer over `u64` keys.
#[inline]
#[must_use]
pub fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^= x >> 33;
    x
}

/// xxHash64-style avalanche finalizer.
#[inline]
#[must_use]
pub fn xxh64_avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 29;
    x = x.wrapping_mul(0x1656_67B1_9E37_79F9);
    x ^= x >> 32;
    x
}

const INV_C2: u64 = inv_mod_2_64(0x94D0_49BB_1331_11EB);
const INV_C1: u64 = inv_mod_2_64(0xBF58_476D_1CE4_E5B9);

/// Modular inverse of an odd `u64` modulo `2^64` (Newton iteration).
#[must_use]
pub const fn inv_mod_2_64(a: u64) -> u64 {
    // x_{n+1} = x_n * (2 - a * x_n); five iterations reach 64 bits.
    let mut x: u64 = a; // correct to 3 bits for odd a
    let mut i = 0;
    while i < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        i += 1;
    }
    x
}

/// Inverse of [`splitmix64`]; witnesses that the mixer is a bijection and
/// allows recovering the sequence number of a generated click identifier.
#[inline]
#[must_use]
pub fn unsplitmix64(mut x: u64) -> u64 {
    // Invert x ^ (x >> 31).
    x = invert_xorshift_right(x, 31);
    x = x.wrapping_mul(INV_C2);
    x = invert_xorshift_right(x, 27);
    x = x.wrapping_mul(INV_C1);
    x = invert_xorshift_right(x, 30);
    x.wrapping_sub(0x9E37_79B9_7F4A_7C15)
}

/// Inverts `y = x ^ (x >> s)` for `1 <= s <= 63`.
#[inline]
#[must_use]
pub fn invert_xorshift_right(y: u64, s: u32) -> u64 {
    let mut x = y;
    let mut shift = s;
    while shift < 64 {
        x = y ^ (x >> s);
        shift += s;
    }
    x
}

/// Combines two 64-bit values into one (Boost-style `hash_combine`,
/// strengthened with a final avalanche).
#[inline]
#[must_use]
pub fn combine(a: u64, b: u64) -> u64 {
    fmix64(
        a ^ b
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(a << 6)
            .wrapping_add(a >> 2),
    )
}

/// A [`std::hash::Hasher`] for integer ids: each written word goes
/// through one [`splitmix64`] round over the running state, which
/// starts at the [`MixState`]'s seed.
///
/// An id keys a map in one multiply-xorshift chain instead of SipHash's
/// compression rounds. It is not a cryptographic hash: the per-map
/// random seed only keeps ids a client picks (publishers first seen on
/// the wire) from being chosen offline to collide.
///
/// ```rust
/// use cfd_hash::mix::MixMap;
/// let mut m: MixMap<u32, u64> = MixMap::default();
/// *m.entry(7).or_insert(0) += 3;
/// assert_eq!(m.get(&7), Some(&3));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = splitmix64(self.0 ^ n);
    }
}

/// Builds the [`MixHasher`]s of one map from a random seed drawn when
/// the map is created (clones keep it).
#[derive(Debug, Clone, Copy)]
pub struct MixState(u64);

impl Default for MixState {
    fn default() -> Self {
        // `RandomState` carries per-process random keys; hashing a
        // constant with a fresh one yields a fresh random seed.
        use std::hash::BuildHasher;
        Self(std::collections::hash_map::RandomState::new().hash_one(0_u64))
    }
}

impl std::hash::BuildHasher for MixState {
    type Hasher = MixHasher;

    #[inline]
    fn build_hasher(&self) -> MixHasher {
        MixHasher(self.0)
    }
}

/// A `HashMap` keyed through [`MixHasher`].
pub type MixMap<K, V> = std::collections::HashMap<K, V, MixState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_hasher_separates_ids_and_byte_strings() {
        use std::hash::BuildHasher;
        let build = MixState::default();
        let ids: std::collections::HashSet<u64> =
            (0..10_000u32).map(|i| build.hash_one(i)).collect();
        assert_eq!(ids.len(), 10_000, "u32 ids collide");
        assert_eq!(build.hash_one(5u32), splitmix64(build.0 ^ 5));
        assert_ne!(build.hash_one("ab"), build.hash_one("ba"));
        assert_ne!(build.0, MixState::default().0, "each map draws a seed");
    }

    #[test]
    fn splitmix_known_values_are_stable() {
        // Regression anchors: these must never change (trace format and
        // generated workloads depend on them).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(0xFFFF_FFFF_FFFF_FFFF), 0xE4D9_7177_1B65_2C20);
    }

    #[test]
    fn unsplitmix_inverts_splitmix() {
        for i in 0..10_000u64 {
            let x = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
            assert_eq!(unsplitmix64(splitmix64(x)), x);
        }
    }

    #[test]
    fn invert_xorshift_right_roundtrips() {
        for s in 1..64 {
            for i in 0..64u64 {
                let x = (1u64 << i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                assert_eq!(invert_xorshift_right(x ^ (x >> s), s), x, "s={s}");
            }
        }
    }

    #[test]
    fn inv_mod_2_64_is_inverse() {
        for a in [
            1u64,
            3,
            5,
            0xBF58_476D_1CE4_E5B9,
            0x94D0_49BB_1331_11EB,
            u64::MAX,
        ] {
            assert_eq!(a.wrapping_mul(inv_mod_2_64(a)), 1, "a={a:#x}");
        }
    }

    #[test]
    fn mixers_are_injective_on_sample() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(fmix64(i)), "fmix64 collision at {i}");
        }
        seen.clear();
        for i in 0..100_000u64 {
            assert!(seen.insert(xxh64_avalanche(i)), "xxh collision at {i}");
        }
    }

    #[test]
    fn avalanche_flips_about_half_the_bits() {
        // Flip each input bit and measure the mean Hamming distance of the
        // outputs; a good mixer sits near 32 out of 64.
        for mixer in [splitmix64 as fn(u64) -> u64, fmix64, xxh64_avalanche] {
            let mut total = 0u64;
            let mut samples = 0u64;
            for i in 0..512u64 {
                let x = splitmix64(i ^ 0xABCD);
                let hx = mixer(x);
                for b in 0..64 {
                    total += (hx ^ mixer(x ^ (1 << b))).count_ones() as u64;
                    samples += 1;
                }
            }
            let mean = total as f64 / samples as f64;
            assert!((mean - 32.0).abs() < 1.0, "poor avalanche: mean={mean}");
        }
    }

    #[test]
    fn combine_depends_on_both_inputs_and_order() {
        assert_ne!(combine(1, 2), combine(2, 1));
        assert_ne!(combine(1, 2), combine(1, 3));
        assert_ne!(combine(1, 2), combine(9, 2));
    }
}
