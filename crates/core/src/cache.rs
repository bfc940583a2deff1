//! Canonical-form memoization of threshold-check results.
//!
//! Every [`check_threshold`](crate::check_threshold) query on a unate cover
//! reduces to a *canonical* positive-unate form (support renumbered by
//! [`Sop::canonical_signature`](tels_logic::Sop::canonical_signature), all
//! phases positive). Distinct synthesis queries that share that form — the
//! same sub-function reached through different variables or phases, every
//! ψ-sized AND chunk, every OR prototype of a given arity — collapse to a
//! single cache entry, and the stored canonical realization is remapped
//! exactly onto each query's variables and phases.
//!
//! The map is sharded behind [`std::sync::RwLock`]s so concurrent jobs of
//! the `tels serve` daemon can share one cache without a global lock, and
//! the read-heavy lookup path never serializes readers against each other.
//! Entries are decided *in canonical space*, so the value stored under a
//! key is a pure function of the key (and the run's
//! [`TelsConfig`](crate::TelsConfig)) — concurrent insert races are benign
//! and the synthesized network is independent of what the cache held.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::RwLock;

/// Number of independently locked shards.
const SHARDS: usize = 16;

/// A threshold-gate realization in canonical positive-unate space:
/// `weights[j]` is the (non-negative) weight of canonical position `j`, and
/// `threshold` is the positive-form threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalRealization {
    /// Non-negative weight per canonical support position.
    pub weights: Vec<i64>,
    /// Positive-form threshold `T` (before phase back-substitution).
    pub threshold: i64,
}

/// A concurrent map from canonical function keys to threshold-check
/// results (`None` = proven not a threshold function under the run's
/// configuration).
///
/// Scoped to a single synthesis run: entries depend on the run's
/// `TelsConfig` (δ_on, δ_off, weight cap, ILP limits), so a cache must not
/// be shared across configurations.
#[derive(Debug)]
pub struct RealizationCache {
    shards: Vec<RwLock<HashMap<Vec<u64>, Option<CanonicalRealization>>>>,
}

impl Default for RealizationCache {
    fn default() -> Self {
        RealizationCache::new()
    }
}

impl RealizationCache {
    /// An empty cache.
    pub fn new() -> RealizationCache {
        RealizationCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    /// The shard holding a key (stable within a process run).
    fn shard(&self, key: &[u64]) -> &RwLock<HashMap<Vec<u64>, Option<CanonicalRealization>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[h.finish() as usize % SHARDS]
    }

    /// Looks up a canonical key. Outer `None` = not cached; inner value is
    /// the memoized answer.
    pub fn lookup(&self, key: &[u64]) -> Option<Option<CanonicalRealization>> {
        self.shard(key)
            .read()
            .expect("cache shard poisoned")
            .get(key)
            .cloned()
    }

    /// Stores the answer for a canonical key. Double inserts under the same
    /// key are benign: values are decided in canonical space, so every
    /// writer computes the same answer.
    pub fn insert(&self, key: Vec<u64>, value: Option<CanonicalRealization>) {
        self.shard(&key)
            .write()
            .expect("cache shard poisoned")
            .insert(key, value);
    }

    /// Number of memoized functions.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry, sorted by key — a deterministic snapshot for disk
    /// persistence (the same cache contents always serialize to the same
    /// bytes regardless of insertion order or shard layout).
    pub fn snapshot(&self) -> Vec<(Vec<u64>, Option<CanonicalRealization>)> {
        let mut out: Vec<(Vec<u64>, Option<CanonicalRealization>)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.read().expect("cache shard poisoned");
            out.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Bulk-inserts entries (a persisted snapshot being reloaded). Keys
    /// already present are overwritten — harmless under the canonical-space
    /// discipline, where every writer stores the same value for a key.
    pub fn extend(
        &self,
        entries: impl IntoIterator<Item = (Vec<u64>, Option<CanonicalRealization>)>,
    ) {
        for (key, value) in entries {
            self.shard(&key)
                .write()
                .expect("cache shard poisoned")
                .insert(key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_len() {
        let cache = RealizationCache::new();
        assert!(cache.is_empty());
        let key = vec![2u64, 0b01, 0b10];
        assert_eq!(cache.lookup(&key), None);
        let entry = CanonicalRealization {
            weights: vec![1, 1],
            threshold: 1,
        };
        cache.insert(key.clone(), Some(entry.clone()));
        cache.insert(vec![1u64, 0b1], None);
        assert_eq!(cache.lookup(&key), Some(Some(entry)));
        assert_eq!(cache.lookup(&[1u64, 0b1]), Some(None));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_inserts_and_lookups() {
        let cache = RealizationCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..64u64 {
                        let key = vec![2, i, i + 1];
                        // Every thread writes the same value for a key, as
                        // the canonical-space discipline guarantees.
                        cache.insert(
                            key.clone(),
                            Some(CanonicalRealization {
                                weights: vec![i as i64, 1],
                                threshold: 1,
                            }),
                        );
                        assert!(cache.lookup(&key).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 64);
    }
}
