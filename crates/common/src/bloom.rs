//! Bloom filters over partition/clustering key values.
//!
//! "When a Fragment is finalized, the Stream Server appends a bloom filter,
//! followed by a fixed length footer ... The bloom filter marks which key
//! values are present for the partitioning and clustering columns."
//! (§5.4.4). Partition elimination (§7.2) evaluates point predicates
//! against these filters to skip Fragments and Streamlets.
//!
//! Implementation: a classic m-bit / k-hash bloom filter with double
//! hashing (`h1 + i*h2`) from a from-scratch 64-bit mix of FNV-1a, and a
//! compact binary serialization embedded in fragment footers.

/// A serializable bloom filter keyed by byte strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
    num_items: u64,
}

/// The final avalanche (splitmix64 tail) of an FNV-1a state, so nearby
/// keys spread.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

impl BloomFilter {
    /// Creates a filter sized for `expected_items` with roughly
    /// `false_positive_rate` (clamped to sane bounds).
    pub fn with_capacity(expected_items: usize, false_positive_rate: f64) -> Self {
        let n = expected_items.max(1) as f64;
        let p = false_positive_rate.clamp(1e-6, 0.5);
        // m = -n ln p / (ln 2)^2 ; k = m/n ln 2
        let m = (-n * p.ln() / (std::f64::consts::LN_2 * std::f64::consts::LN_2)).ceil() as u64;
        let m = m.max(64).next_multiple_of(64);
        let k = ((m as f64 / n) * std::f64::consts::LN_2).round().max(1.0) as u32;
        Self {
            bits: vec![0u64; (m / 64) as usize],
            num_bits: m,
            num_hashes: k.min(16),
            num_items: 0,
        }
    }

    /// The pair of hashes a key is inserted and probed by: which bits it
    /// sets depends on nothing else, so a writer may keep distinct keys as
    /// pairs and insert them later.
    pub fn hashes(key: &[u8]) -> (u64, u64) {
        // FNV-1a from two seeds, 0 and a second, in one walk of the key.
        let mut a = 0xcbf29ce484222325u64;
        let mut b = a ^ 0x9E3779B97F4A7C15;
        for &byte in key {
            a = (a ^ byte as u64).wrapping_mul(0x100000001b3);
            b = (b ^ byte as u64).wrapping_mul(0x100000001b3);
        }
        (avalanche(a), avalanche(b) | 1)
    }

    /// Inserts the key whose [`BloomFilter::hashes`] are `(h1, h2)`.
    pub fn insert_hashes(&mut self, (h1, h2): (u64, u64)) {
        for i in 0..self.num_hashes as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        self.num_items += 1;
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        self.insert_hashes(Self::hashes(key));
    }

    /// Tests a key. `false` is definite absence; `true` may be a false
    /// positive.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (h1, h2) = Self::hashes(key);
        for i in 0..self.num_hashes as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.num_bits;
            if self.bits[(bit / 64) as usize] & (1 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Number of keys inserted so far.
    pub fn len(&self) -> u64 {
        self.num_items
    }

    /// The bytes its bits take on the heap.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.bits[..])
    }

    /// Whether no keys have been inserted.
    pub fn is_empty(&self) -> bool {
        self.num_items == 0
    }

    /// Serializes to the fragment-footer binary layout:
    /// `num_bits: u64 | num_hashes: u32 | num_items: u64 | words...`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.bits.len() * 8);
        out.extend_from_slice(&self.num_bits.to_le_bytes());
        out.extend_from_slice(&self.num_hashes.to_le_bytes());
        out.extend_from_slice(&self.num_items.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes from [`BloomFilter::to_bytes`] output.
    pub fn from_bytes(data: &[u8]) -> Result<Self, String> {
        if data.len() < 20 {
            return Err(format!("bloom filter too short: {} bytes", data.len()));
        }
        let num_bits = u64::from_le_bytes(data[0..8].try_into().unwrap());
        let num_hashes = u32::from_le_bytes(data[8..12].try_into().unwrap());
        let num_items = u64::from_le_bytes(data[12..20].try_into().unwrap());
        if num_bits == 0 || num_bits % 64 != 0 {
            return Err(format!("bad bloom num_bits {num_bits}"));
        }
        let words = (num_bits / 64) as usize;
        if data.len() != 20 + words * 8 {
            return Err(format!(
                "bloom filter length mismatch: {} != {}",
                data.len(),
                20 + words * 8
            ));
        }
        let bits = data[20..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Self {
            bits,
            num_bits,
            num_hashes: num_hashes.clamp(1, 16),
            num_items,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000u32 {
            f.insert(format!("key-{i}").as_bytes());
        }
        for i in 0..1000u32 {
            assert!(f.may_contain(format!("key-{i}").as_bytes()), "fn at {i}");
        }
    }

    #[test]
    fn false_positive_rate_in_range() {
        let mut f = BloomFilter::with_capacity(10_000, 0.01);
        for i in 0..10_000u32 {
            f.insert(format!("present-{i}").as_bytes());
        }
        let fp = (0..100_000u32)
            .filter(|i| f.may_contain(format!("absent-{i}").as_bytes()))
            .count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.03, "false positive rate too high: {rate}");
    }

    #[test]
    fn serialization_roundtrip() {
        let mut f = BloomFilter::with_capacity(500, 0.01);
        for i in 0..500u32 {
            f.insert(&i.to_le_bytes());
        }
        let bytes = f.to_bytes();
        let g = BloomFilter::from_bytes(&bytes).unwrap();
        assert_eq!(f, g);
        for i in 0..500u32 {
            assert!(g.may_contain(&i.to_le_bytes()));
        }
    }

    #[test]
    fn corrupt_serialization_rejected() {
        let mut f = BloomFilter::with_capacity(10, 0.01);
        f.insert(b"x");
        let mut bytes = f.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(BloomFilter::from_bytes(&bytes).is_err());
        assert!(BloomFilter::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::with_capacity(100, 0.01);
        assert!(f.is_empty());
        assert!(!f.may_contain(b"anything"));
    }

    #[test]
    fn inserting_hashes_is_inserting_the_key() {
        let (mut by_key, mut by_pair) = (
            BloomFilter::with_capacity(300, 0.01),
            BloomFilter::with_capacity(300, 0.01),
        );
        for i in 0..300u32 {
            let key = format!("k{}", i * 7919 % 1000);
            by_key.insert(key.as_bytes());
            by_pair.insert_hashes(BloomFilter::hashes(key.as_bytes()));
            assert_eq!(by_key.to_bytes(), by_pair.to_bytes(), "after {i}");
        }
    }

    /// One seeded FNV-1a walk and its avalanche: what each of the two
    /// hashes was before they shared a walk.
    fn fnv1a64(data: &[u8], seed: u64) -> u64 {
        let mut h = 0xcbf29ce484222325u64 ^ seed;
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        avalanche(h)
    }

    #[test]
    fn one_walk_hashes_are_the_two_walks() {
        let mut state = 0x5EED_u64;
        for len in (0..64).chain([255, 1000]) {
            let key: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 56) as u8
                })
                .collect();
            let two_walks = (fnv1a64(&key, 0), fnv1a64(&key, 0x9E3779B97F4A7C15) | 1);
            assert_eq!(BloomFilter::hashes(&key), two_walks, "{key:?}");
        }
    }

    #[test]
    fn tiny_capacity_still_works() {
        let mut f = BloomFilter::with_capacity(0, 0.9);
        f.insert(b"a");
        assert!(f.may_contain(b"a"));
        assert_eq!(f.len(), 1);
    }
}
