//! Test configuration, RNG, and failure type for the `proptest!` macro.

use std::fmt;

/// How many random cases each property runs.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; 64 keeps the full suite quick while
        // still exercising each property against a spread of inputs.
        ProptestConfig { cases: 64 }
    }
}

/// A failed case, carried out of the test body by the `prop_assert*` macros.
#[derive(Clone, Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// Runs one case body. The `proptest!` macro wraps each body in a closure
/// so the `prop_assert*` macros can `return` a failure out of it.
pub fn run_case(body: impl FnOnce() -> Result<(), TestCaseError>) -> Result<(), TestCaseError> {
    body()
}

/// Deterministic per-test seed derived from the test's full path (FNV-1a).
pub fn seed_for(test_path: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The generator driving strategies: xoshiro256++ expanded from a 64-bit
/// seed with splitmix64. Deterministic, so every failure reproduces.
#[derive(Clone, Debug)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Expands a 64-bit seed into generator state.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, span)` (widening multiply-shift).
    pub fn u64_below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform in the inclusive range `[lo, hi]`.
    pub fn usize_between(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + self.u64_below((hi - lo + 1) as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_by_test_path() {
        assert_ne!(seed_for("a::b::c"), seed_for("a::b::d"));
        assert_eq!(seed_for("x"), seed_for("x"));
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::from_seed(5);
        let mut b = TestRng::from_seed(5);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
