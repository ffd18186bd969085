//! Content-addressing primitives for the compile cache.
//!
//! The compile pipeline (decompose → map/route → tape-schedule) is fully
//! deterministic: the same circuit under the same configuration always
//! produces the same program, success estimate, and execution time. That
//! makes compilation *content-addressable* — the pair
//! `(circuit digest, config fingerprint)` identifies a compile result
//! completely. This crate provides the two halves of that key:
//!
//! * [`Hasher`] — a streaming 128-bit FNV-1a-style hasher processed one
//!   64-bit word at a time. Not cryptographic; chosen for zero
//!   dependencies, platform-independent output, and enough state that
//!   accidental collisions across cache keys are vanishingly unlikely.
//! * [`Fingerprint`] — the trait every hashable configuration type
//!   implements. Implementations feed their *semantic content* (not
//!   their memory representation) into the hasher, so a fingerprint is
//!   invariant to allocation history, buffer reuse, and padding.
//! * [`Digest`] — the resulting 128-bit value, with a fixed 32-hex-char
//!   rendering for persistence keys.
//!
//! # Stability
//!
//! Digests are stable across runs and platforms (all writes reduce to
//! little-endian-independent `u64` words), but **not** across versions
//! of this workspace: adding a gate variant or a config knob legitimately
//! changes the hash stream. Persistent caches therefore verify a payload
//! digest on load and silently discard entries that no longer match.
//!
//! # Example
//!
//! ```
//! use tilt_hash::{Fingerprint, Hasher};
//!
//! struct Knobs { alpha: f64, window: usize }
//! impl Fingerprint for Knobs {
//!     fn fingerprint_into(&self, h: &mut Hasher) {
//!         h.write_f64(self.alpha);
//!         h.write_usize(self.window);
//!     }
//! }
//!
//! let a = Knobs { alpha: 0.9, window: 8 }.fingerprint();
//! let b = Knobs { alpha: 0.9, window: 8 }.fingerprint();
//! let c = Knobs { alpha: 0.5, window: 8 }.fingerprint();
//! assert_eq!(a, b);
//! assert_ne!(a, c);
//! assert_eq!(a, tilt_hash::Digest::from_hex(&a.to_hex()).unwrap());
//! ```

/// 128-bit FNV offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit content digest.
///
/// Renders as exactly 32 lowercase hex characters via [`Digest::to_hex`];
/// [`Digest::from_hex`] accepts only that form, so persisted keys
/// round-trip unambiguously.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u128);

impl Digest {
    /// The fixed-width hex rendering used as a persistence key.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the [`Digest::to_hex`] form; `None` for anything else
    /// (wrong length, uppercase, stray characters).
    pub fn from_hex(text: &str) -> Option<Digest> {
        if text.len() != 32 || !text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(Digest)
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Streaming 128-bit structural hasher.
///
/// All write methods reduce to whole `u64` words (strings are
/// length-prefixed and zero-padded to word boundaries), so the digest
/// depends only on the *sequence of values written*, never on how the
/// caller chunked them in memory.
#[derive(Clone, Debug)]
pub struct Hasher {
    state: u128,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

impl Hasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Hasher { state: FNV_OFFSET }
    }

    /// A hasher whose initial state is perturbed by `key`.
    ///
    /// FNV-1a is not collision-resistant against an adversary — its
    /// state update is invertible, so colliding inputs for the *known*
    /// initial state are constructible offline. Folding a secret key
    /// into the starting state removes that offline capability: inputs
    /// colliding under one key do not collide under another. Used by
    /// the compile cache, which salts circuit keys with a per-cache
    /// random value so hostile wire payloads cannot engineer
    /// cross-request key collisions.
    pub fn keyed(key: u128) -> Self {
        Hasher {
            state: FNV_OFFSET ^ key,
        }
    }

    /// Folds one 64-bit word into the state (FNV-1a step).
    #[inline]
    pub fn write_u64(&mut self, word: u64) -> &mut Self {
        self.state = (self.state ^ word as u128).wrapping_mul(FNV_PRIME);
        self
    }

    /// Writes a small discriminant (enum variant tags).
    #[inline]
    pub fn write_tag(&mut self, tag: u8) -> &mut Self {
        self.write_u64(tag as u64)
    }

    /// Writes a `usize` (as `u64`; the workspace never hashes values
    /// beyond 2^64 on any supported platform).
    #[inline]
    pub fn write_usize(&mut self, value: usize) -> &mut Self {
        self.write_u64(value as u64)
    }

    /// Writes an `f64` by bit pattern — `-0.0` and `0.0` hash
    /// differently, NaNs hash by payload. Configuration knobs are
    /// ordinary finite numbers, where bit equality is value equality.
    #[inline]
    pub fn write_f64(&mut self, value: f64) -> &mut Self {
        self.write_u64(value.to_bits())
    }

    /// Writes an optional `usize` unambiguously (tag then value).
    #[inline]
    pub fn write_opt_usize(&mut self, value: Option<usize>) -> &mut Self {
        match value {
            None => self.write_tag(0),
            Some(v) => self.write_tag(1).write_usize(v),
        }
    }

    /// Writes a byte string: length prefix, then the bytes packed into
    /// little-endian words with zero padding. The length prefix keeps
    /// `"ab", "c"` distinct from `"a", "bc"` across consecutive writes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self
    }

    /// Writes a UTF-8 string (same encoding as [`Hasher::write_bytes`]).
    pub fn write_str(&mut self, text: &str) -> &mut Self {
        self.write_bytes(text.as_bytes())
    }

    /// Finishes the stream.
    pub fn digest(&self) -> Digest {
        Digest(self.state)
    }
}

/// Stable structural hashing for configuration and circuit types.
///
/// Implementations must write every field that can influence a compile
/// result (conservatively: every semantic field), using unambiguous
/// encodings — tag enum variants, length-prefix variable-size data.
/// Hashing *more* than strictly necessary costs only spurious cache
/// misses; hashing less returns wrong cached results, so when in doubt,
/// write it.
pub trait Fingerprint {
    /// Feeds this value's semantic content into `h`.
    fn fingerprint_into(&self, h: &mut Hasher);

    /// The standalone digest of this value.
    fn fingerprint(&self) -> Digest {
        let mut h = Hasher::new();
        self.fingerprint_into(&mut h);
        h.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_hex_round_trips() {
        let d = Digest(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        assert_eq!(d.to_hex().len(), 32);
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        // Leading zeros preserved.
        let small = Digest(7);
        assert_eq!(small.to_hex(), format!("{:032x}", 7));
        assert_eq!(Digest::from_hex(&small.to_hex()), Some(small));
    }

    #[test]
    fn from_hex_rejects_malformed_keys() {
        assert_eq!(Digest::from_hex(""), None);
        assert_eq!(Digest::from_hex("abc"), None);
        assert_eq!(Digest::from_hex(&"f".repeat(33)), None);
        assert_eq!(Digest::from_hex(&"G".repeat(32)), None);
        assert_eq!(
            Digest::from_hex(&"F".repeat(32)),
            None,
            "uppercase rejected"
        );
    }

    #[test]
    fn word_stream_determines_digest() {
        let mut a = Hasher::new();
        a.write_u64(1).write_u64(2);
        let mut b = Hasher::new();
        b.write_u64(1).write_u64(2);
        assert_eq!(a.digest(), b.digest());
        let mut c = Hasher::new();
        c.write_u64(2).write_u64(1);
        assert_ne!(a.digest(), c.digest(), "order matters");
    }

    #[test]
    fn string_chunking_is_unambiguous() {
        let mut a = Hasher::new();
        a.write_str("ab").write_str("c");
        let mut b = Hasher::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.digest(), b.digest());
        // Zero padding does not collide with literal zero bytes.
        let mut c = Hasher::new();
        c.write_bytes(b"a");
        let mut d = Hasher::new();
        d.write_bytes(b"a\0");
        assert_ne!(c.digest(), d.digest());
    }

    #[test]
    fn f64_hashes_by_bits() {
        let mut a = Hasher::new();
        a.write_f64(0.1);
        let mut b = Hasher::new();
        b.write_f64(0.1 + f64::EPSILON);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn option_encoding_is_unambiguous() {
        let mut none_then_one = Hasher::new();
        none_then_one.write_opt_usize(None).write_usize(1);
        let mut some_one = Hasher::new();
        some_one.write_opt_usize(Some(1));
        assert_ne!(none_then_one.digest(), some_one.digest());
    }

    #[test]
    fn empty_hasher_is_the_offset_basis() {
        assert_eq!(Hasher::new().digest(), Digest(FNV_OFFSET));
    }

    #[test]
    fn keyed_hashers_disagree_across_keys_and_agree_within_one() {
        let digest_under = |key: u128| {
            let mut h = Hasher::keyed(key);
            h.write_str("payload");
            h.digest()
        };
        assert_eq!(digest_under(7), digest_under(7));
        assert_ne!(digest_under(7), digest_under(8));
        assert_ne!(digest_under(7), {
            let mut h = Hasher::new();
            h.write_str("payload");
            h.digest()
        });
        assert_eq!(Hasher::keyed(0).digest(), Hasher::new().digest());
    }
}
