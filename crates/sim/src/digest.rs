//! FNV-1a 64-bit: the one digest every determinism check folds into.
//!
//! Stable across platforms and releases and dependency-free, so a
//! digest recorded in a BENCH file or a golden stays comparable forever.
//! Integers fold as their little-endian bytes.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a 64-bit digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// An empty digest (the FNV offset basis).
    #[inline]
    pub fn new() -> Self {
        Fnv(OFFSET)
    }

    /// Folds `bytes` in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Folds `v` as its eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest of everything folded so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vector_and_folds_u64_as_le_bytes() {
        let mut a = Fnv::new();
        a.bytes(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::new().finish(), OFFSET, "empty input is the basis");
        let v = 0x0123_4567_89ab_cdefu64;
        let (mut x, mut y) = (Fnv::new(), Fnv::new());
        x.u64(v);
        y.bytes(&v.to_le_bytes());
        assert_eq!(x, y);
    }
}
