//! The dense-slot [`VertexCache`] against a reference model.
//!
//! The model is the cache's earlier implementation, kept here verbatim in
//! behaviour: a `HashMap` keyed by global id whose LRU eviction scans every
//! entry for the smallest `(last_used, id)`.  The runtime cache must answer
//! every operation exactly like it — same return values (forced uploads,
//! query answers, probe outcomes), same victims, same statistics — for any
//! operation sequence, including clocks that go backwards (a new run), local
//! ids far beyond the slots allocated so far, and capacity 1.

use gx_plug::core::{CacheStats, Probe, VertexCache};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

type VertexId = u32;

#[derive(Debug, Clone)]
struct ModelEntry<V> {
    value: V,
    last_used: u64,
    dirty: bool,
}

/// The `HashMap` + full-scan LRU the dense-slot cache replaced.
#[derive(Debug, Clone)]
struct ModelCache<V> {
    capacity: usize,
    entries: HashMap<VertexId, ModelEntry<V>>,
    stats: CacheStats,
}

impl<V: Clone + PartialEq> ModelCache<V> {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn lookup(&mut self, v: VertexId, now: u64) -> Option<V> {
        match self.entries.get_mut(&v) {
            Some(entry) => {
                entry.last_used = now;
                self.stats.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The agent's former probe sequence: lookup, compare, fill if not fresh.
    fn probe(&mut self, v: VertexId, current: &V, now: u64) -> Probe<V> {
        let fresh = self
            .lookup(v, now)
            .map(|cached| &cached == current)
            .unwrap_or(false);
        if fresh {
            Probe::Fresh
        } else {
            Probe::Filled(self.fill(v, current.clone(), now).into_iter().next())
        }
    }

    fn fill(&mut self, v: VertexId, value: V, now: u64) -> Vec<(VertexId, V)> {
        let mut forced_uploads = Vec::new();
        if !self.entries.contains_key(&v) && self.entries.len() >= self.capacity {
            if let Some((victim, entry)) = self.evict_lru() {
                if entry.dirty {
                    self.stats.uploads += 1;
                    forced_uploads.push((victim, entry.value));
                }
            }
        }
        self.entries.insert(
            v,
            ModelEntry {
                value,
                last_used: now,
                dirty: false,
            },
        );
        forced_uploads
    }

    fn record_update(&mut self, v: VertexId, value: V, now: u64) -> Vec<(VertexId, V)> {
        let forced = if self.entries.contains_key(&v) {
            Vec::new()
        } else {
            self.fill(v, value.clone(), now)
        };
        if let Some(entry) = self.entries.get_mut(&v) {
            entry.value = value;
            entry.dirty = true;
            entry.last_used = now;
            self.stats.lazy_deferrals += 1;
        }
        forced
    }

    fn invalidate(&mut self, v: VertexId) {
        self.entries.remove(&v);
    }

    fn answer_query(&mut self, queried: &HashSet<VertexId>) -> Vec<(VertexId, V)> {
        let mut answers = Vec::new();
        for (&v, entry) in self.entries.iter_mut() {
            if entry.dirty && queried.contains(&v) {
                entry.dirty = false;
                answers.push((v, entry.value.clone()));
            }
        }
        self.stats.uploads += answers.len() as u64;
        answers
    }

    fn dirty_count(&self) -> usize {
        self.entries.values().filter(|e| e.dirty).count()
    }

    fn flush_dirty(&mut self) -> Vec<(VertexId, V)> {
        let mut flushed = Vec::new();
        for (&v, entry) in self.entries.iter_mut() {
            if entry.dirty {
                entry.dirty = false;
                flushed.push((v, entry.value.clone()));
            }
        }
        self.stats.uploads += flushed.len() as u64;
        flushed
    }

    fn evict_lru(&mut self) -> Option<(VertexId, ModelEntry<V>)> {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(&v, entry)| (entry.last_used, v))
            .map(|(&v, _)| v)?;
        self.stats.evictions += 1;
        self.entries.remove(&victim).map(|entry| (victim, entry))
    }
}

/// Number of distinct global ids the sequences touch.
const VERTICES: u32 = 48;

fn sorted<V: Ord>(mut pairs: Vec<(VertexId, V)>) -> Vec<(VertexId, V)> {
    pairs.sort_unstable();
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random `probe`/`lookup`/`fill`/`record_update`/`invalidate`/
    /// `answer_query`/`flush_dirty` sequences behave identically in the
    /// dense-slot cache and the model, op by op.
    #[test]
    fn dense_slot_cache_matches_the_hashmap_model(
        capacity in 0usize..10,
        seed in any::<u64>(),
        spread in 1u32..40,
        operations in prop::collection::vec((0u8..8, 0u32..VERTICES, 0u8..8), 1..400),
    ) {
        // A random bijection global -> local, with locals spread out so many
        // land far beyond the slots allocated so far; local order is
        // unrelated to global order, as it is on a node.
        let mut order: Vec<VertexId> = (0..VERTICES).collect();
        order.sort_unstable_by_key(|&g| (g as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut local_of = [0u32; VERTICES as usize];
        for (rank, &g) in order.iter().enumerate() {
            local_of[g as usize] = rank as u32 * spread;
        }

        let mut cache: VertexCache<u64> = VertexCache::new(capacity);
        let mut model: ModelCache<u64> = ModelCache::new(capacity);
        let mut now = 0u64;
        for &(kind, g, clock) in &operations {
            // Mostly forward time, sometimes a repeated tick, sometimes a new
            // run (the clock restarts) or a jump backwards.
            now = match clock {
                0 => 0,
                1 => now,
                2 => now / 2,
                _ => now + 1,
            };
            let local = local_of[g as usize];
            // A small value domain, so probes see both fresh and stale copies.
            let value = (g as u64 + clock as u64) % 3;
            match kind {
                0 | 1 => prop_assert_eq!(
                    cache.probe(local, g, &value, now),
                    model.probe(g, &value, now)
                ),
                2 => prop_assert_eq!(cache.lookup(local, now).copied(), model.lookup(g, now)),
                3 => prop_assert_eq!(
                    cache.fill(local, g, value, now).into_iter().collect::<Vec<_>>(),
                    model.fill(g, value, now)
                ),
                4 => prop_assert_eq!(
                    cache.record_update(local, g, value, now).into_iter().collect::<Vec<_>>(),
                    model.record_update(g, value, now)
                ),
                5 => {
                    cache.invalidate(local);
                    model.invalidate(g);
                }
                6 => {
                    let queried: HashSet<VertexId> =
                        (0..VERTICES).filter(|v| v % 3 == g % 3).collect();
                    prop_assert_eq!(
                        sorted(cache.answer_query(&queried)),
                        sorted(model.answer_query(&queried))
                    );
                }
                _ => prop_assert_eq!(sorted(cache.flush_dirty()), sorted(model.flush_dirty())),
            }
            prop_assert_eq!(cache.len(), model.entries.len());
            prop_assert!(cache.len() <= capacity.max(1));
            for v in 0..VERTICES {
                prop_assert_eq!(
                    cache.contains(local_of[v as usize]),
                    model.entries.contains_key(&v),
                    "vertex {} after {:?} at now {}", v, (kind, g, clock), now
                );
            }
            prop_assert_eq!(cache.dirty_count(), model.dirty_count());
            prop_assert_eq!(cache.stats(), model.stats);
        }
    }
}
