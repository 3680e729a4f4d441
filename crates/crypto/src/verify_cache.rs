//! Amortized bundle verification: a sharded, capped LRU of verdicts.
//!
//! A full ed25519 verification costs two scalar multiplications — hundreds of
//! microseconds of curve math. But controllers see the *same* delegation
//! bundle over and over: every flow from the same application presents the
//! identical `(req-sig, key, exe-hash, app-name, requirements)` tuple. The
//! verdict for a given bundle is immutable (a signature either verifies or it
//! doesn't; only the *window* check depends on `now`), so it can be cached by
//! content hash.
//!
//! [`VerifyCache::verify_hex_at`] therefore:
//!
//! 1. parses the signature (raw or windowed form),
//! 2. checks the validity window against `now` — **before** any cache or
//!    curve work, so an expired bundle costs a parse and two compares,
//! 3. hashes `(sig, key, items)` with SHA-256 and looks the digest up in one
//!    of eight lock-sharded maps,
//! 4. on a miss, runs the curve math *outside* the shard lock and inserts the
//!    boolean verdict (negative verdicts are cached too: a forged bundle
//!    replayed a million times should cost a million hashes, not a million
//!    scalar multiplications).
//!
//! A hit costs one SHA-256 of the bundle text plus two integer compares — the
//! "one hash + expiry check" fast path the roadmap asks for. The cache is
//! capped (default [`DEFAULT_VERIFY_CACHE_CAPACITY`]) with oldest-use
//! eviction per shard, and every outcome is counted and recorded as a
//! [`VerifyEvent`] so the controller can attach `verify-cached` /
//! `verify-fresh` / `verify-expired` / `verify-forged` audit notes to the
//! decisions that triggered them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::keys::PublicKey;
use crate::sha256::Sha256;
use crate::signing::{parse_sig_hex, VerifyError};

/// Default total capacity (entries across all shards), matching the flow/state
/// table cap used elsewhere in the controller.
pub const DEFAULT_VERIFY_CACHE_CAPACITY: usize = 1024;

/// Number of lock shards. Eight keeps contention negligible at the
/// controller's worker counts without bloating the per-cache footprint.
const SHARDS: usize = 8;

/// Cap on the pending audit-event buffer; if the controller stops draining,
/// recording stops rather than growing without bound.
const EVENT_BUFFER_CAP: usize = 4096;

/// How a single verification was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Valid signature, verdict served from the cache (no curve math).
    CachedValid,
    /// Valid signature, verified fresh (curve math paid, verdict cached).
    FreshValid,
    /// Validity window ended at or before `now`.
    Expired,
    /// Validity window starts after `now`.
    NotYetValid,
    /// Signature does not verify for the key and data (cached or fresh).
    Forged,
    /// The signature or key string could not be parsed at all.
    Unparseable,
}

impl VerifyOutcome {
    /// Whether the bundle should be treated as valid.
    pub fn is_valid(self) -> bool {
        matches!(self, VerifyOutcome::CachedValid | VerifyOutcome::FreshValid)
    }

    /// The audit-note label for this outcome.
    pub fn as_str(self) -> &'static str {
        match self {
            VerifyOutcome::CachedValid => "verify-cached",
            VerifyOutcome::FreshValid => "verify-fresh",
            VerifyOutcome::Expired => "verify-expired",
            VerifyOutcome::NotYetValid => "verify-not-yet-valid",
            VerifyOutcome::Forged => "verify-forged",
            VerifyOutcome::Unparseable => "verify-unparseable",
        }
    }
}

/// One recorded verification, drained by the controller into audit notes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyEvent {
    /// How the verification resolved.
    pub outcome: VerifyOutcome,
    /// The key id the bundle claimed (windowed bundles only).
    pub key_id: Option<String>,
}

/// Counter snapshot, shaped like the controller's other `*_stats()` accessors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyCacheStats {
    /// Verifications answered from the cache (no curve math).
    pub hits: u64,
    /// Verifications that had to run curve math; their verdicts are cached.
    pub misses: u64,
    /// Entries evicted to stay under the capacity cap.
    pub evictions: u64,
    /// Verifications that returned a valid verdict (cached or fresh).
    pub valid: u64,
    /// Bundles rejected because their window had expired.
    pub expired: u64,
    /// Bundles rejected because their window had not started.
    pub not_yet_valid: u64,
    /// Bundles rejected because the signature did not verify.
    pub forged: u64,
    /// Bundles that could not be parsed.
    pub unparseable: u64,
}

/// A cached verdict. `sig_ok` never changes for a given content hash; the
/// window is re-checked on every hit because it depends on `now`.
#[derive(Clone, Copy)]
struct Entry {
    sig_ok: bool,
    /// Last-touched logical tick, for oldest-first eviction.
    tick: u64,
}

struct Shard {
    map: HashMap<[u8; 32], Entry>,
}

/// Sharded, capped cache of bundle-verification verdicts.
pub struct VerifyCache {
    shards: [Mutex<Shard>; SHARDS],
    per_shard_cap: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    valid: AtomicU64,
    expired: AtomicU64,
    not_yet_valid: AtomicU64,
    forged: AtomicU64,
    unparseable: AtomicU64,
    events: Mutex<Vec<VerifyEvent>>,
}

impl VerifyCache {
    /// Creates a cache with the default capacity.
    pub fn new() -> VerifyCache {
        VerifyCache::with_capacity(DEFAULT_VERIFY_CACHE_CAPACITY)
    }

    /// Creates a cache holding at most `capacity` verdicts (split evenly
    /// across the shards; rounded up so a tiny capacity still caches).
    pub fn with_capacity(capacity: usize) -> VerifyCache {
        let per_shard_cap = capacity.div_ceil(SHARDS).max(1);
        VerifyCache {
            shards: std::array::from_fn(|_| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                })
            }),
            per_shard_cap,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            valid: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            not_yet_valid: AtomicU64::new(0),
            forged: AtomicU64::new(0),
            unparseable: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Verifies a bundle at logical time `now`, amortized through the cache,
    /// and records a [`VerifyEvent`] for the controller's audit notes.
    pub fn verify_hex_at<S: AsRef<str>>(
        &self,
        sig_hex: &str,
        key_hex: &str,
        items: &[S],
        now: u64,
    ) -> VerifyOutcome {
        let parsed = match parse_sig_hex(sig_hex) {
            Ok(p) => p,
            Err(_) => return self.record(VerifyOutcome::Unparseable, None),
        };
        let key_id = parsed.key_id().map(|s| s.to_string());
        // Window first: an expired bundle must not cost curve math, and its
        // rejection must not depend on whether it was ever cached.
        if let Some((not_before, not_after)) = parsed.window() {
            if now < not_before {
                return self.record(VerifyOutcome::NotYetValid, key_id);
            }
            if now >= not_after {
                return self.record(VerifyOutcome::Expired, key_id);
            }
        }
        let key = match PublicKey::from_hex(key_hex) {
            Some(k) => k,
            None => return self.record(VerifyOutcome::Unparseable, key_id),
        };

        let digest = cache_key(sig_hex, key_hex, items);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[(digest[0] as usize) % SHARDS];

        if let Some(sig_ok) = {
            let mut guard = shard.lock().unwrap();
            guard.map.get_mut(&digest).map(|e| {
                e.tick = tick;
                e.sig_ok
            })
        } {
            let outcome = if sig_ok {
                VerifyOutcome::CachedValid
            } else {
                VerifyOutcome::Forged
            };
            self.hits.fetch_add(1, Ordering::Relaxed);
            return self.record(outcome, key_id);
        }

        // Miss: run the curve math outside any lock.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let sig_ok = parsed.signature_valid(&key, items);
        {
            let mut guard = shard.lock().unwrap();
            if guard.map.len() >= self.per_shard_cap && !guard.map.contains_key(&digest) {
                // Evict the least recently touched entry in this shard.
                if let Some(oldest) = guard
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.tick)
                    .map(|(k, _)| *k)
                {
                    guard.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            guard.map.insert(digest, Entry { sig_ok, tick });
        }
        let outcome = if sig_ok {
            VerifyOutcome::FreshValid
        } else {
            VerifyOutcome::Forged
        };
        self.record(outcome, key_id)
    }

    /// Counts `outcome` and buffers its audit event; returns `outcome`.
    fn record(&self, outcome: VerifyOutcome, key_id: Option<String>) -> VerifyOutcome {
        let counter = match outcome {
            VerifyOutcome::CachedValid | VerifyOutcome::FreshValid => &self.valid,
            VerifyOutcome::Expired => &self.expired,
            VerifyOutcome::NotYetValid => &self.not_yet_valid,
            VerifyOutcome::Forged => &self.forged,
            VerifyOutcome::Unparseable => &self.unparseable,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let mut events = self.events.lock().unwrap();
        if events.len() < EVENT_BUFFER_CAP {
            events.push(VerifyEvent { outcome, key_id });
        }
        outcome
    }

    /// Drains the recorded verification events (controller audit plumbing).
    pub fn drain_events(&self) -> Vec<VerifyEvent> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> VerifyCacheStats {
        VerifyCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            valid: self.valid.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            not_yet_valid: self.not_yet_valid.load(Ordering::Relaxed),
            forged: self.forged.load(Ordering::Relaxed),
            unparseable: self.unparseable.load(Ordering::Relaxed),
        }
    }

    /// Number of cached verdicts across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Whether the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total verdict capacity.
    pub fn capacity(&self) -> usize {
        self.per_shard_cap * SHARDS
    }
}

impl Default for VerifyCache {
    fn default() -> Self {
        VerifyCache::new()
    }
}

impl std::fmt::Debug for VerifyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Content hash of a verification request: SHA-256 over the length-prefixed
/// signature hex, key hex, and items, so distinct requests can't collide by
/// concatenation.
fn cache_key<S: AsRef<str>>(sig_hex: &str, key_hex: &str, items: &[S]) -> [u8; 32] {
    let mut h = Sha256::new();
    let mut feed = |bytes: &[u8]| {
        h.update(&(bytes.len() as u64).to_be_bytes());
        h.update(bytes);
    };
    feed(sig_hex.as_bytes());
    feed(key_hex.as_bytes());
    h.update(&(items.len() as u64).to_be_bytes());
    for item in items {
        let bytes = item.as_ref().as_bytes();
        h.update(&(bytes.len() as u64).to_be_bytes());
        h.update(bytes);
    }
    h.finalize()
}

impl From<&VerifyError> for VerifyOutcome {
    fn from(err: &VerifyError) -> VerifyOutcome {
        match err {
            VerifyError::Unparseable(_) | VerifyError::MalformedPublicKey(_) => {
                VerifyOutcome::Unparseable
            }
            VerifyError::NotYetValid { .. } => VerifyOutcome::NotYetValid,
            VerifyError::Expired { .. } => VerifyOutcome::Expired,
            VerifyError::Forged => VerifyOutcome::Forged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use crate::signing::{sign_bundle_hex, sign_bundle_windowed};

    fn kp() -> KeyPair {
        KeyPair::from_seed(b"cache-tests")
    }

    #[test]
    fn second_lookup_hits_the_cache() {
        let cache = VerifyCache::new();
        let items = ["h", "app", "pass all"];
        let sig = sign_bundle_hex(&kp(), &items);
        let key = kp().public().to_hex();
        assert_eq!(
            cache.verify_hex_at(&sig, &key, &items, 0),
            VerifyOutcome::FreshValid
        );
        assert_eq!(
            cache.verify_hex_at(&sig, &key, &items, 0),
            VerifyOutcome::CachedValid
        );
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.valid, 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn forged_verdicts_are_cached_and_stay_forged() {
        let cache = VerifyCache::new();
        let items = ["h", "app", "pass all"];
        let sig = sign_bundle_hex(&kp(), &items);
        let key = kp().public().to_hex();
        let tampered = ["h", "app", "block all"];
        assert_eq!(
            cache.verify_hex_at(&sig, &key, &tampered, 0),
            VerifyOutcome::Forged
        );
        assert_eq!(
            cache.verify_hex_at(&sig, &key, &tampered, 0),
            VerifyOutcome::Forged
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "forged verdict should be cached too");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.forged, 2);
    }

    #[test]
    fn window_is_checked_before_the_cache() {
        let cache = VerifyCache::new();
        let items = ["h", "app", "pass all"];
        let bundle = sign_bundle_windowed(&kp(), "k", 100, 200, &items);
        let hex = bundle.to_hex();
        let key = kp().public().to_hex();
        // Warm the cache inside the window.
        assert_eq!(
            cache.verify_hex_at(&hex, &key, &items, 150),
            VerifyOutcome::FreshValid
        );
        assert_eq!(
            cache.verify_hex_at(&hex, &key, &items, 150),
            VerifyOutcome::CachedValid
        );
        // The cached verdict must NOT outlive the window.
        assert_eq!(
            cache.verify_hex_at(&hex, &key, &items, 200),
            VerifyOutcome::Expired
        );
        assert_eq!(
            cache.verify_hex_at(&hex, &key, &items, 50),
            VerifyOutcome::NotYetValid
        );
        let stats = cache.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.not_yet_valid, 1);
    }

    #[test]
    fn unparseable_is_distinguished_and_uncached() {
        let cache = VerifyCache::new();
        let key = kp().public().to_hex();
        assert_eq!(
            cache.verify_hex_at("zz-not-hex", &key, &["a"], 0),
            VerifyOutcome::Unparseable
        );
        let sig = sign_bundle_hex(&kp(), &["a"]);
        assert_eq!(
            cache.verify_hex_at(&sig, "zz-not-hex", &["a"], 0),
            VerifyOutcome::Unparseable
        );
        assert_eq!(cache.stats().unparseable, 2);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn capacity_is_enforced_with_eviction() {
        let cache = VerifyCache::with_capacity(16);
        assert_eq!(cache.capacity(), 16);
        let key = kp().public().to_hex();
        for i in 0..64 {
            let items = [format!("item-{i}")];
            let sig = sign_bundle_hex(&kp(), &items);
            cache.verify_hex_at(&sig, &key, &items, 0);
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn events_record_outcomes_and_key_ids() {
        let cache = VerifyCache::new();
        let items = ["h", "app", "pass all"];
        let bundle = sign_bundle_windowed(&kp(), "secur", 0, 100, &items);
        let key = kp().public().to_hex();
        cache.verify_hex_at(&bundle.to_hex(), &key, &items, 10);
        cache.verify_hex_at(&bundle.to_hex(), &key, &items, 10);
        cache.verify_hex_at(&bundle.to_hex(), &key, &items, 100);
        let events = cache.drain_events();
        assert_eq!(
            events.iter().map(|e| e.outcome).collect::<Vec<_>>(),
            vec![
                VerifyOutcome::FreshValid,
                VerifyOutcome::CachedValid,
                VerifyOutcome::Expired
            ]
        );
        assert!(events.iter().all(|e| e.key_id.as_deref() == Some("secur")));
        // Drained: buffer is empty now.
        assert!(cache.drain_events().is_empty());
    }

    #[test]
    fn outcome_labels_match_audit_notes() {
        assert_eq!(VerifyOutcome::CachedValid.as_str(), "verify-cached");
        assert_eq!(VerifyOutcome::FreshValid.as_str(), "verify-fresh");
        assert_eq!(VerifyOutcome::Expired.as_str(), "verify-expired");
        assert_eq!(VerifyOutcome::Forged.as_str(), "verify-forged");
        assert!(VerifyOutcome::CachedValid.is_valid());
        assert!(!VerifyOutcome::Expired.is_valid());
    }
}
