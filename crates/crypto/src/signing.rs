//! Signing of multi-part data bundles, as used by the PF+=2 `verify` function.
//!
//! The paper's `verify` call takes a signature, a public key, and a *list* of
//! data items, e.g. Fig. 5:
//!
//! ```text
//! with verify(@dst[req-sig], @pubkeys[research],
//!             @dst[exe-hash], @dst[app-name], @dst[requirements])
//! ```
//!
//! The signature must bind all of the data items together — otherwise an
//! attacker could mix and match (say) the requirements of one application with
//! the executable hash of another. [`canonical_encoding`] length-prefixes each
//! item so the encoding is injective, and [`sign_bundle`]/[`verify_bundle`]
//! sign and verify that encoding.
//!
//! ## Short-lived bundles
//!
//! A **windowed** bundle ([`SignedBundle`], minted by [`sign_bundle_windowed`])
//! additionally binds a key id and a `[not_before, not_after)` validity
//! window into the signed encoding. The window is in the system's *logical*
//! microseconds — the same clock `decide(now)` carries; there is no wall
//! clock anywhere, so runs replay byte-identically. A bundle outside its
//! window is rejected regardless of the curve math, which makes revocation an
//! expiry instead of a round trip (the design move of "Short-Lived
//! Forward-Secure Delegation for TLS"). The wire form placed in the `req-sig`
//! key is hex of `IDB2 ‖ key-id ‖ window ‖ signature`; a bare 64-byte hex
//! signature is still accepted as a legacy unwindowed bundle.

use std::fmt;

use crate::ed25519::{self, Signature};
use crate::keys::{KeyPair, PublicKey};
use crate::sha256::{from_hex, to_hex};

/// Magic prefix of the windowed-bundle wire blob.
const BUNDLE_MAGIC: &[u8; 4] = b"IDB2";

/// A raw ed25519 signature is 64 bytes; anything else hex-decoding to a
/// different length must carry the `IDB2` frame.
const RAW_SIG_LEN: usize = 64;

/// Why a bundle string could not be parsed at all (as opposed to parsing
/// fine and failing verification).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleParseError {
    /// The string is not valid hex.
    NotHex,
    /// Hex decoded, but the blob is neither a raw 64-byte signature nor an
    /// `IDB2` windowed bundle.
    UnknownFormat {
        /// Decoded blob length in bytes.
        len: usize,
    },
    /// An `IDB2` blob with inconsistent framing.
    Malformed(&'static str),
}

impl fmt::Display for BundleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleParseError::NotHex => write!(f, "not valid hex"),
            BundleParseError::UnknownFormat { len } => {
                write!(
                    f,
                    "{len}-byte blob is neither a raw signature nor an IDB2 bundle"
                )
            }
            BundleParseError::Malformed(what) => write!(f, "malformed IDB2 bundle: {what}"),
        }
    }
}

impl std::error::Error for BundleParseError {}

/// Why bundle verification failed. The controller maps each variant to a
/// distinct audit note (`verify-expired` vs `verify-forged` vs
/// `verify-unparseable`), because an operator debugging a deny needs to know
/// whether the bundle was stale, hostile, or garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The signature string could not be parsed.
    Unparseable(BundleParseError),
    /// The public key string could not be parsed.
    MalformedPublicKey(String),
    /// The bundle's validity window starts after `now`.
    NotYetValid {
        /// Window start (logical µs).
        not_before: u64,
        /// Evaluation time (logical µs).
        now: u64,
    },
    /// The bundle's validity window ended at or before `now`.
    Expired {
        /// Window end (logical µs, exclusive).
        not_after: u64,
        /// Evaluation time (logical µs).
        now: u64,
    },
    /// The window (if any) is fine but the signature does not verify.
    Forged,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Unparseable(err) => write!(f, "unparseable bundle: {err}"),
            VerifyError::MalformedPublicKey(s) => write!(f, "malformed public key: {s:?}"),
            VerifyError::NotYetValid { not_before, now } => {
                write!(f, "bundle not valid before t={not_before} (now t={now})")
            }
            VerifyError::Expired { not_after, now } => {
                write!(f, "bundle expired at t={not_after} (now t={now})")
            }
            VerifyError::Forged => write!(f, "signature does not verify"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Injective canonical encoding of a list of data items (the legacy,
/// unwindowed v1 form).
///
/// Each item is prefixed with its length so that `["ab", "c"]` and
/// `["a", "bc"]` encode differently.
pub fn canonical_encoding<S: AsRef<str>>(items: &[S]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"identxx-bundle-v1");
    out.extend_from_slice(&(items.len() as u64).to_be_bytes());
    for item in items {
        let bytes = item.as_ref().as_bytes();
        out.extend_from_slice(&(bytes.len() as u64).to_be_bytes());
        out.extend_from_slice(bytes);
    }
    out
}

/// Injective canonical encoding of a *windowed* bundle: binds the key id and
/// the validity window together with the data items, so neither can be
/// transplanted onto other data. The `v2` prefix keeps the two encodings
/// disjoint — a v1 signature can never verify as a v2 bundle or vice versa.
pub fn windowed_encoding<S: AsRef<str>>(
    key_id: &str,
    not_before: u64,
    not_after: u64,
    items: &[S],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"identxx-bundle-v2");
    out.extend_from_slice(&(key_id.len() as u64).to_be_bytes());
    out.extend_from_slice(key_id.as_bytes());
    out.extend_from_slice(&not_before.to_be_bytes());
    out.extend_from_slice(&not_after.to_be_bytes());
    out.extend_from_slice(&(items.len() as u64).to_be_bytes());
    for item in items {
        let bytes = item.as_ref().as_bytes();
        out.extend_from_slice(&(bytes.len() as u64).to_be_bytes());
        out.extend_from_slice(bytes);
    }
    out
}

/// Signs a data bundle with a key pair (legacy unwindowed form).
pub fn sign_bundle<S: AsRef<str>>(keypair: &KeyPair, items: &[S]) -> Signature {
    keypair.sign(&canonical_encoding(items))
}

/// Signs a data bundle and returns the hex form (the value placed in the
/// `req-sig` configuration key).
pub fn sign_bundle_hex<S: AsRef<str>>(keypair: &KeyPair, items: &[S]) -> String {
    sign_bundle(keypair, items).to_hex()
}

/// Verifies a signed data bundle (legacy unwindowed form).
pub fn verify_bundle<S: AsRef<str>>(sig: &Signature, key: &PublicKey, items: &[S]) -> bool {
    ed25519::verify(key.as_bytes(), &canonical_encoding(items), sig)
}

/// A short-lived signed bundle: a signature over
/// [`windowed_encoding`]`(key_id, not_before, not_after, items)`, carried on
/// the wire with the metadata it was bound to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedBundle {
    /// Name of the signing key in the verifier's `KeyRegistry` (informational
    /// on the wire, but *bound under the signature*, so it cannot be swapped).
    pub key_id: String,
    /// Window start, logical µs (inclusive).
    pub not_before: u64,
    /// Window end, logical µs (exclusive): the bundle is already invalid at
    /// exactly `not_after`.
    pub not_after: u64,
    /// Signature over the windowed encoding.
    pub signature: Signature,
}

impl SignedBundle {
    /// `true` iff `now` falls inside `[not_before, not_after)`.
    pub fn window_contains(&self, now: u64) -> bool {
        self.not_before <= now && now < self.not_after
    }

    /// Hex wire form, as placed in the `req-sig` key:
    /// `IDB2 ‖ key-id-len(u16 BE) ‖ key-id ‖ not_before(u64 BE) ‖
    /// not_after(u64 BE) ‖ signature(64)`, hex encoded.
    pub fn to_hex(&self) -> String {
        let mut blob = Vec::with_capacity(4 + 2 + self.key_id.len() + 16 + 64);
        blob.extend_from_slice(BUNDLE_MAGIC);
        blob.extend_from_slice(&(self.key_id.len() as u16).to_be_bytes());
        blob.extend_from_slice(self.key_id.as_bytes());
        blob.extend_from_slice(&self.not_before.to_be_bytes());
        blob.extend_from_slice(&self.not_after.to_be_bytes());
        blob.extend_from_slice(&self.signature.to_bytes());
        to_hex(&blob)
    }

    /// Parses the hex wire form.
    pub fn from_hex(s: &str) -> Result<SignedBundle, BundleParseError> {
        let blob = from_hex(s.trim()).ok_or(BundleParseError::NotHex)?;
        if blob.len() < 4 || &blob[..4] != BUNDLE_MAGIC {
            return Err(BundleParseError::UnknownFormat { len: blob.len() });
        }
        let rest = &blob[4..];
        if rest.len() < 2 {
            return Err(BundleParseError::Malformed("missing key-id length"));
        }
        let key_len = u16::from_be_bytes([rest[0], rest[1]]) as usize;
        let rest = &rest[2..];
        if rest.len() != key_len + 16 + 64 {
            return Err(BundleParseError::Malformed("length mismatch"));
        }
        let key_id = std::str::from_utf8(&rest[..key_len])
            .map_err(|_| BundleParseError::Malformed("key id is not UTF-8"))?
            .to_string();
        let word = |at: usize| -> u64 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&rest[at..at + 8]);
            u64::from_be_bytes(w)
        };
        let not_before = word(key_len);
        let not_after = word(key_len + 8);
        let mut sig = [0u8; 64];
        sig.copy_from_slice(&rest[key_len + 16..]);
        Ok(SignedBundle {
            key_id,
            not_before,
            not_after,
            signature: Signature::from_bytes(sig),
        })
    }
}

/// Mints a short-lived bundle: signs `items` bound to `key_id` and the
/// `[not_before, not_after)` window.
pub fn sign_bundle_windowed<S: AsRef<str>>(
    keypair: &KeyPair,
    key_id: &str,
    not_before: u64,
    not_after: u64,
    items: &[S],
) -> SignedBundle {
    SignedBundle {
        key_id: key_id.to_string(),
        not_before,
        not_after,
        signature: keypair.sign(&windowed_encoding(key_id, not_before, not_after, items)),
    }
}

/// A parsed `req-sig` value: either a legacy raw signature or a windowed
/// bundle. Shared with the verify cache, which needs the window separately
/// from the curve math.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ParsedSig {
    Raw(Signature),
    Windowed(SignedBundle),
}

impl ParsedSig {
    /// The validity window, if any.
    pub(crate) fn window(&self) -> Option<(u64, u64)> {
        match self {
            ParsedSig::Raw(_) => None,
            ParsedSig::Windowed(b) => Some((b.not_before, b.not_after)),
        }
    }

    /// The key id the bundle claims, if any.
    pub(crate) fn key_id(&self) -> Option<&str> {
        match self {
            ParsedSig::Raw(_) => None,
            ParsedSig::Windowed(b) => Some(&b.key_id),
        }
    }

    /// Runs the curve math only (no window check).
    pub(crate) fn signature_valid<S: AsRef<str>>(&self, key: &PublicKey, items: &[S]) -> bool {
        match self {
            ParsedSig::Raw(sig) => verify_bundle(sig, key, items),
            ParsedSig::Windowed(b) => ed25519::verify(
                key.as_bytes(),
                &windowed_encoding(&b.key_id, b.not_before, b.not_after, items),
                &b.signature,
            ),
        }
    }
}

/// Parses a `req-sig` value in either wire form.
pub(crate) fn parse_sig_hex(sig_hex: &str) -> Result<ParsedSig, BundleParseError> {
    let blob = from_hex(sig_hex.trim()).ok_or(BundleParseError::NotHex)?;
    if blob.len() == RAW_SIG_LEN {
        let mut bytes = [0u8; 64];
        bytes.copy_from_slice(&blob);
        return Ok(ParsedSig::Raw(Signature::from_bytes(bytes)));
    }
    SignedBundle::from_hex(sig_hex).map(ParsedSig::Windowed)
}

/// Verifies a bundle in its textual wire/config form at logical time `now`,
/// with a typed error distinguishing *why* it failed. The window is checked
/// before the signature, so an expired bundle costs no curve math.
pub fn verify_bundle_hex_at<S: AsRef<str>>(
    sig_hex: &str,
    key_hex: &str,
    items: &[S],
    now: u64,
) -> Result<(), VerifyError> {
    let parsed = parse_sig_hex(sig_hex).map_err(VerifyError::Unparseable)?;
    let key = PublicKey::from_hex(key_hex)
        .ok_or_else(|| VerifyError::MalformedPublicKey(key_hex.to_string()))?;
    if let Some((not_before, not_after)) = parsed.window() {
        if now < not_before {
            return Err(VerifyError::NotYetValid { not_before, now });
        }
        if now >= not_after {
            return Err(VerifyError::Expired { not_after, now });
        }
    }
    if parsed.signature_valid(&key, items) {
        Ok(())
    } else {
        Err(VerifyError::Forged)
    }
}

/// Verifies a bundle where the signature and key are given in their textual
/// (hex) wire/config form, at logical time zero. Kept as the boolean
/// convenience for unwindowed call sites; [`verify_bundle_hex_at`] is the
/// typed, clock-aware entry point the decision path uses.
pub fn verify_bundle_hex<S: AsRef<str>>(sig_hex: &str, key_hex: &str, items: &[S]) -> bool {
    verify_bundle_hex_at(sig_hex, key_hex, items, 0).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn research_bundle() -> [&'static str; 3] {
        [
            "9f2c7a11deadbeef", // exe-hash
            "research-app",
            "block all\npass all with eq(@src[name], research-app) with eq(@dst[name], research-app)",
        ]
    }

    #[test]
    fn bundle_round_trip() {
        let kp = KeyPair::from_seed(b"researcher-alice");
        let sig = sign_bundle(&kp, &research_bundle());
        assert!(verify_bundle(&sig, &kp.public(), &research_bundle()));
    }

    #[test]
    fn any_modified_item_is_rejected() {
        let kp = KeyPair::from_seed(b"researcher-alice");
        let sig = sign_bundle(&kp, &research_bundle());
        let mut tampered = research_bundle();
        tampered[0] = "0000000000000000";
        assert!(!verify_bundle(&sig, &kp.public(), &tampered));
        let mut tampered = research_bundle();
        tampered[1] = "evil-app";
        assert!(!verify_bundle(&sig, &kp.public(), &tampered));
        let mut tampered = research_bundle();
        tampered[2] = "pass all";
        assert!(!verify_bundle(&sig, &kp.public(), &tampered));
    }

    #[test]
    fn item_boundaries_matter() {
        // ["ab","c"] must not verify as ["a","bc"].
        let kp = KeyPair::from_seed(b"boundary");
        let sig = sign_bundle(&kp, &["ab", "c"]);
        assert!(!verify_bundle(&sig, &kp.public(), &["a", "bc"]));
        assert!(verify_bundle(&sig, &kp.public(), &["ab", "c"]));
        // Differing item counts also matter: an appended empty item, and a
        // dropped trailing item.
        let sig2 = sign_bundle(&kp, &["abc"]);
        assert!(!verify_bundle(&sig2, &kp.public(), &["abc", ""]));
        let sig3 = sign_bundle(&kp, &["ab", "c", "d"]);
        assert!(!verify_bundle(&sig3, &kp.public(), &["ab", "c"]));
    }

    #[test]
    fn hex_forms_verify() {
        let kp = KeyPair::from_seed(b"Secur");
        let items = ["cafebabe", "thunderbird", "block all\npass from any ..."];
        let sig_hex = sign_bundle_hex(&kp, &items);
        let key_hex = kp.public().to_hex();
        assert!(verify_bundle_hex(&sig_hex, &key_hex, &items));
        assert!(!verify_bundle_hex(&sig_hex, &key_hex, &["x", "y", "z"]));
        assert!(!verify_bundle_hex("nothex", &key_hex, &items));
        assert!(!verify_bundle_hex(&sig_hex, "nothex", &items));
    }

    #[test]
    fn typed_errors_distinguish_failure_modes() {
        let kp = KeyPair::from_seed(b"Secur");
        let items = ["cafebabe", "thunderbird", "pass all"];
        let sig_hex = sign_bundle_hex(&kp, &items);
        let key_hex = kp.public().to_hex();
        assert_eq!(verify_bundle_hex_at(&sig_hex, &key_hex, &items, 0), Ok(()));
        assert_eq!(
            verify_bundle_hex_at("nothex", &key_hex, &items, 0),
            Err(VerifyError::Unparseable(BundleParseError::NotHex))
        );
        // 1-byte blob: hex but no known format.
        assert_eq!(
            verify_bundle_hex_at("ab", &key_hex, &items, 0),
            Err(VerifyError::Unparseable(BundleParseError::UnknownFormat {
                len: 1
            }))
        );
        assert_eq!(
            verify_bundle_hex_at(&sig_hex, "nothex", &items, 0),
            Err(VerifyError::MalformedPublicKey("nothex".to_string()))
        );
        assert_eq!(
            verify_bundle_hex_at(&sig_hex, &key_hex, &["x", "y", "z"], 0),
            Err(VerifyError::Forged)
        );
    }

    #[test]
    fn wrong_signer_is_rejected() {
        let secur = KeyPair::from_seed(b"Secur");
        let attacker = KeyPair::from_seed(b"attacker");
        let items = ["cafebabe", "thunderbird", "pass all"];
        let sig = sign_bundle(&attacker, &items);
        assert!(!verify_bundle(&sig, &secur.public(), &items));
    }

    #[test]
    fn canonical_encoding_is_prefixed_and_versioned() {
        let enc = canonical_encoding(&["a"]);
        assert!(enc.starts_with(b"identxx-bundle-v1"));
        assert_ne!(canonical_encoding(&["a"]), canonical_encoding(&["a", ""]));
        let wenc = windowed_encoding("k", 0, 1, &["a"]);
        assert!(wenc.starts_with(b"identxx-bundle-v2"));
    }

    // --- windowed bundles --------------------------------------------------

    #[test]
    fn windowed_bundle_round_trips_and_respects_window() {
        let kp = KeyPair::from_seed(b"Secur");
        let items = research_bundle();
        let bundle = sign_bundle_windowed(&kp, "secur", 100, 200, &items);
        let hex = bundle.to_hex();
        let key_hex = kp.public().to_hex();
        assert_eq!(SignedBundle::from_hex(&hex), Ok(bundle.clone()));

        assert_eq!(verify_bundle_hex_at(&hex, &key_hex, &items, 100), Ok(()));
        assert_eq!(verify_bundle_hex_at(&hex, &key_hex, &items, 199), Ok(()));
        assert_eq!(
            verify_bundle_hex_at(&hex, &key_hex, &items, 99),
            Err(VerifyError::NotYetValid {
                not_before: 100,
                now: 99
            })
        );
        assert_eq!(
            verify_bundle_hex_at(&hex, &key_hex, &items, 201),
            Err(VerifyError::Expired {
                not_after: 200,
                now: 201
            })
        );
    }

    #[test]
    fn bundle_expires_at_exactly_not_after() {
        // The window is half-open: `not_after` itself is already outside.
        let kp = KeyPair::from_seed(b"boundary-clock");
        let items = ["h", "app", "pass all"];
        let bundle = sign_bundle_windowed(&kp, "k", 0, 500, &items);
        let key_hex = kp.public().to_hex();
        assert_eq!(
            verify_bundle_hex_at(&bundle.to_hex(), &key_hex, &items, 499),
            Ok(())
        );
        assert_eq!(
            verify_bundle_hex_at(&bundle.to_hex(), &key_hex, &items, 500),
            Err(VerifyError::Expired {
                not_after: 500,
                now: 500
            })
        );
    }

    #[test]
    fn window_and_key_id_are_bound_under_the_signature() {
        let kp = KeyPair::from_seed(b"Secur");
        let items = ["h", "app", "pass all"];
        let bundle = sign_bundle_windowed(&kp, "secur", 0, 100, &items);
        let key_hex = kp.public().to_hex();

        // Stretching the window on the wire must invalidate the signature.
        let mut stretched = bundle.clone();
        stretched.not_after = u64::MAX;
        assert_eq!(
            verify_bundle_hex_at(&stretched.to_hex(), &key_hex, &items, 50_000),
            Err(VerifyError::Forged)
        );
        // So must renaming the key id.
        let mut renamed = bundle.clone();
        renamed.key_id = "admin".to_string();
        assert_eq!(
            verify_bundle_hex_at(&renamed.to_hex(), &key_hex, &items, 50),
            Err(VerifyError::Forged)
        );
        // And a v1 signature over the same items is not a v2 bundle.
        let raw = sign_bundle(&kp, &items);
        let mut cross = bundle.clone();
        cross.signature = raw;
        assert_eq!(
            verify_bundle_hex_at(&cross.to_hex(), &key_hex, &items, 50),
            Err(VerifyError::Forged)
        );
    }

    #[test]
    fn malformed_idb2_blobs_report_framing_errors() {
        let kp = KeyPair::from_seed(b"Secur");
        let bundle = sign_bundle_windowed(&kp, "secur", 0, 10, &["a"]);
        let hex = bundle.to_hex();
        // Truncate the blob.
        assert!(matches!(
            SignedBundle::from_hex(&hex[..hex.len() - 4]),
            Err(BundleParseError::Malformed(_))
        ));
        // Corrupt the magic: decodes as an unknown format.
        let mut corrupted = hex.clone();
        corrupted.replace_range(0..2, "00");
        assert!(matches!(
            SignedBundle::from_hex(&corrupted),
            Err(BundleParseError::UnknownFormat { .. })
        ));
    }
}
