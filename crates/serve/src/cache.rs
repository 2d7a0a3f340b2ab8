//! The LRU prediction cache.
//!
//! Predictions are pure functions of `(model weights, graph operators,
//! input features)`, so the cache key is the triple of their content
//! fingerprints ([`lhnn::CongestionModel::weights_fingerprint`],
//! [`lhnn::GraphOps::fingerprint`],
//! [`lh_graph::FeatureSet::fingerprint`]). A placer polling congestion on
//! an unchanged placement — the dominant access pattern inside an
//! optimisation loop that moved nothing in a region — hits the cache and
//! pays only the hashing cost.

use std::collections::HashMap;
use std::sync::Arc;

use lhnn::Prediction;

/// Cache key: content fingerprints of everything a forward pass reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// Model version ([`lhnn::CongestionModel::weights_fingerprint`]).
    /// Fingerprints hash the architecture kind too, so two kinds can
    /// never collide on one key.
    pub model: u64,
    /// Graph-operator fingerprint ([`lhnn::GraphOps::fingerprint`]).
    pub ops: u64,
    /// Feature fingerprint ([`lh_graph::FeatureSet::fingerprint`]).
    pub features: u64,
}

#[derive(Debug)]
struct Entry {
    value: Arc<Prediction>,
    last_used: u64,
}

/// A least-recently-used map from [`CacheKey`] to shared predictions.
///
/// Eviction scans for the minimum `last_used` tick — O(capacity), which is
/// deliberate: capacities are small (default 128) and predictions are
/// megabyte-scale, so the scan is noise next to one forward pass. Capacity
/// 0 disables the cache entirely.
#[derive(Debug)]
pub(crate) struct PredictionCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, Entry>,
}

impl PredictionCache {
    /// Creates a cache holding at most `capacity` predictions.
    pub(crate) fn new(capacity: usize) -> Self {
        Self { capacity, tick: 0, map: HashMap::with_capacity(capacity.min(1024)) }
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<Arc<Prediction>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.value)
        })
    }

    /// Inserts (or refreshes) a prediction, evicting the least recently
    /// used entry if the cache is full.
    pub(crate) fn insert(&mut self, key: CacheKey, value: Arc<Prediction>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, Entry { value, last_used: self.tick });
    }

    /// Number of cached predictions.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Drops every entry computed by model `version`, returning how many
    /// were evicted.
    ///
    /// Versioned keys make a displaced model's entries unreachable after a
    /// hot-swap, but unreachable is not gone: they still occupy LRU slots
    /// and push out live predictions until enough traffic ages them off.
    /// The engine calls this on [`crate::ServeHandle::replace_model`] so a
    /// swap reclaims the dead capacity immediately.
    pub(crate) fn evict_model(&mut self, version: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|k, _| k.model != version);
        before - self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurograd::Matrix;

    fn pred(tag: f32) -> Arc<Prediction> {
        Arc::new(Prediction { cls_prob: Matrix::full(1, 1, tag), reg: Matrix::full(1, 1, tag) })
    }

    fn key(i: u64) -> CacheKey {
        CacheKey { model: 1, ops: 2, features: i }
    }

    #[test]
    fn hit_and_miss() {
        let mut c = PredictionCache::new(4);
        assert!(c.get(&key(0)).is_none());
        c.insert(key(0), pred(0.5));
        let hit = c.get(&key(0)).expect("hit");
        assert_eq!(hit.cls_prob[(0, 0)], 0.5);
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = PredictionCache::new(2);
        c.insert(key(0), pred(0.0));
        c.insert(key(1), pred(1.0));
        // touch key 0 so key 1 is the LRU
        assert!(c.get(&key(0)).is_some());
        c.insert(key(2), pred(2.0));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(0)).is_some(), "recently used entry survived");
        assert!(c.get(&key(1)).is_none(), "LRU entry evicted");
        assert!(c.get(&key(2)).is_some());
    }

    #[test]
    fn reinserting_same_key_does_not_evict() {
        let mut c = PredictionCache::new(2);
        c.insert(key(0), pred(0.0));
        c.insert(key(1), pred(1.0));
        c.insert(key(1), pred(1.5));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&key(1)).unwrap().cls_prob[(0, 0)], 1.5);
        assert!(c.get(&key(0)).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = PredictionCache::new(0);
        c.insert(key(0), pred(0.0));
        assert_eq!(c.len(), 0);
        assert!(c.get(&key(0)).is_none());
    }

    #[test]
    fn evict_model_drops_only_that_version() {
        let mut c = PredictionCache::new(8);
        c.insert(CacheKey { model: 1, ops: 10, features: 10 }, pred(1.0));
        c.insert(CacheKey { model: 1, ops: 11, features: 11 }, pred(1.1));
        c.insert(CacheKey { model: 2, ops: 10, features: 10 }, pred(2.0));
        assert_eq!(c.evict_model(1), 2);
        assert_eq!(c.len(), 1);
        assert!(c.get(&CacheKey { model: 2, ops: 10, features: 10 }).is_some());
        assert_eq!(c.evict_model(1), 0, "idempotent on an absent version");
    }

    #[test]
    fn distinct_model_versions_do_not_collide() {
        let mut c = PredictionCache::new(4);
        let a = CacheKey { model: 1, ops: 9, features: 9 };
        let b = CacheKey { model: 2, ops: 9, features: 9 };
        c.insert(a, pred(1.0));
        assert!(c.get(&b).is_none());
    }
}
