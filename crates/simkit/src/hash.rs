//! Streaming FNV-1a (64-bit), the one hash behind every pinned digest:
//! simulation and fleet reports, kernel checksums, audit ledgers.
//!
//! Not cryptographic — it only needs to make accidental drift loud, and
//! FNV keeps the goldens free of dependencies.

/// Streaming FNV-1a (64-bit) over a canonical byte serialization.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb an `f64` bit-exactly.
    pub fn write_f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// Final digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325, "offset basis");
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h2 = Fnv1a::new();
        h2.write(b"foobar");
        assert_eq!(h2.finish(), 0x85944171f73967e8);
    }
}
