//! # identxx-crypto — hashing and signatures for authenticated delegation
//!
//! The paper's PF+=2 language has a `verify` function: "verify tests if first
//! argument is the correct signature for public key specified in second
//! argument and data specified in remaining arguments" (§3.3). Combined with
//! `allowed`, this enables **authenticated delegation**: users and third
//! parties (such as the "Secur" security company of §4) sign the network
//! requirements of an application together with its name and executable hash,
//! and the controller enforces those requirements only if the signature
//! verifies against a public key it has been configured to trust.
//!
//! The paper does not specify a signature scheme. This crate provides:
//!
//! * [`mod@sha256`] / [`mod@sha512`] — both hashes implemented from scratch
//!   and checked against the FIPS 180-4 test vectors (SHA-256 for executable
//!   hashes and cache keys, SHA-512 inside ed25519),
//! * [`hmac`] — HMAC-SHA256 (used for keyed integrity in the simulator),
//! * [`ed25519`] — the real signature scheme (RFC 8032, hermetic in-tree),
//! * [`keys`] — key pairs and a named key registry mirroring the
//!   `dict <pubkeys> { research : …, admin : … }` construct of Fig. 5/7,
//! * [`signing`] — canonical encoding and signing of multi-part data bundles
//!   (the `(exe-hash, app-name, requirements)` bundles that `verify` checks),
//!   including **short-lived** bundles carrying a `not_before`/`not_after`
//!   validity window and a key id, so revocation is an expiry rather than a
//!   round trip,
//! * [`verify_cache`] — a sharded, capped LRU of verification verdicts keyed
//!   by bundle content hash, so the decision path pays curve math once per
//!   distinct bundle and a hash-plus-window-check thereafter.
//!
//! ## Example
//!
//! ```
//! use identxx_crypto::{KeyPair, sign_bundle, verify_bundle};
//!
//! let researcher = KeyPair::from_seed(b"researcher key");
//! let data = ["deadbeef", "research-app", "block all\npass all"];
//! let sig = sign_bundle(&researcher, &data);
//! assert!(verify_bundle(&sig, &researcher.public(), &data));
//! let tampered = ["deadbeef", "research-app", "pass all"];
//! assert!(!verify_bundle(&sig, &researcher.public(), &tampered));
//! ```

pub mod ed25519;
pub mod hmac;
pub mod keys;
pub mod sha256;
pub mod sha512;
pub mod signing;
pub mod verify_cache;

pub use ed25519::Signature;
pub use keys::{KeyPair, KeyRegistry, PublicKey, SecretKey};
pub use sha256::{sha256, sha256_hex, Sha256};
pub use sha512::{sha512, Sha512};
pub use signing::{
    sign_bundle, sign_bundle_hex, sign_bundle_windowed, verify_bundle, verify_bundle_hex,
    verify_bundle_hex_at, BundleParseError, SignedBundle, VerifyError,
};
pub use verify_cache::{VerifyCache, VerifyCacheStats, VerifyEvent, VerifyOutcome};

/// Constant-time equality of two byte strings.
///
/// Signature and digest comparisons must not leak *where* two values first
/// differ: an attacker who can submit guesses and time the rejection can
/// otherwise recover a MAC or signature byte by byte. Used by
/// [`ed25519::verify`], [`hmac::verify_hmac`], and the bundle helpers.
/// Lengths are public here (both sides are fixed-width digests), so an early
/// return on mismatched length leaks nothing.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::ct_eq;

    #[test]
    fn ct_eq_basics() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(b"\x00", b"\x01"));
    }
}
