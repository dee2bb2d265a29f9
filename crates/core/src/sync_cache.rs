//! Inter-iteration optimisation: synchronization caching (§III-B2).
//!
//! Two mechanisms reduce the data volume crossing between the upper system and
//! the middleware at iteration boundaries:
//!
//! * **LRU-based caching** — the agent keeps a temporary vertex table so that
//!   vertices repeatedly involved in computation are not re-downloaded from
//!   the upper system when their attributes have not changed;
//! * **Lazy uploading** — updated vertices are uploaded only when some other
//!   distributed node actually asks for them, coordinated through a *global
//!   query queue* and a *global data queue* (Algorithm 3).
//!
//! [`VertexCache`] is addressed by the node's dense local ids (the row
//! indices of its `VertexTable`): entries live in a `Vec` of slots that grows
//! on demand, since live mutation appends local ids.  Recency lives in an
//! ordered set keyed `(last_used, global id, local id)`, so the LRU victim —
//! least recently used, ties broken by the smaller *global* id — is its first
//! element.  Local ids follow insertion order, not global order, which is why
//! the global id stays in the key.  Per-operation cost, with `n` cached
//! entries and `s` slots:
//!
//! * [`probe`](VertexCache::probe), [`lookup`](VertexCache::lookup),
//!   [`fill`](VertexCache::fill), [`record_update`](VertexCache::record_update)
//!   and [`invalidate`](VertexCache::invalidate): O(log n), and O(1) for a
//!   hit on an entry already used at the same `now`;
//! * [`contains`](VertexCache::contains) and [`len`](VertexCache::len): O(1);
//! * [`answer_query`](VertexCache::answer_query),
//!   [`dirty_count`](VertexCache::dirty_count) and
//!   [`flush_dirty`](VertexCache::flush_dirty): O(s).

use gxplug_graph::types::VertexId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Statistics of one agent's cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups satisfied from the cache (downloads avoided).
    pub hits: u64,
    /// Lookups that had to go to the upper system.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Dirty entries whose upload was deferred by lazy uploading.
    pub lazy_deferrals: u64,
    /// Dirty entries eventually uploaded (on eviction or on demand).
    pub uploads: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when there were no lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry<V> {
    /// Global vertex id: the victim-order tie-break and the upload key.
    id: VertexId,
    value: V,
    /// Clock tick of last use; entries age as ticks pass and the least
    /// recently used entry is evicted first.
    last_used: u64,
    /// Whether the entry was updated locally and not yet uploaded.
    dirty: bool,
}

/// A recency key: `(last_used, global id, local id)`.
type RecencyKey = (u64, VertexId, u32);

/// What [`VertexCache::probe`] found.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe<V> {
    /// The cached copy equals the current value: the download is avoided.
    Fresh,
    /// The vertex was absent or stale and now caches the current value.
    /// Carries the dirty entry evicted to make room, if any, which must be
    /// uploaded now.
    Filled(Option<(VertexId, V)>),
}

/// The agent-local vertex cache, addressed by dense local id.
///
/// Every method that may create an entry takes both the local id and the
/// global id of the vertex; the two must name the same vertex for the
/// lifetime of the cache, as a node's `VertexTable` guarantees.
#[derive(Debug, Clone)]
pub struct VertexCache<V> {
    capacity: usize,
    slots: Vec<Option<CacheEntry<V>>>,
    /// One key per cached entry; the first is the LRU victim.
    recency: BTreeSet<RecencyKey>,
    stats: CacheStats,
}

/// The cached entry in slot `local`, if any.
fn slot<V>(slots: &mut [Option<CacheEntry<V>>], local: u32) -> Option<&mut CacheEntry<V>> {
    slots.get_mut(local as usize)?.as_mut()
}

/// Moves a cached entry to `now` in the recency order.
fn touch<V>(recency: &mut BTreeSet<RecencyKey>, entry: &mut CacheEntry<V>, local: u32, now: u64) {
    if entry.last_used != now {
        recency.remove(&(entry.last_used, entry.id, local));
        recency.insert((now, entry.id, local));
        entry.last_used = now;
    }
}

impl<V: Clone> VertexCache<V> {
    /// Creates a cache holding at most `capacity` vertices.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            recency: BTreeSet::new(),
            stats: CacheStats::default(),
        }
    }

    /// Number of cached vertices.
    pub fn len(&self) -> usize {
        self.recency.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.recency.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Running statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a vertex for computation at tick `now`.
    ///
    /// A hit refreshes the entry's recency (its "weight" in the paper's
    /// terms); a miss means the agent must download the vertex from the upper
    /// system and then [`VertexCache::fill`] it.
    pub fn lookup(&mut self, local: u32, now: u64) -> Option<&V> {
        let Some(entry) = slot(&mut self.slots, local) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        touch(&mut self.recency, entry, local, now);
        Some(&entry.value)
    }

    /// The agent's download probe: [`lookup`](VertexCache::lookup), compare
    /// with the upper system's `current` value, and [`fill`](VertexCache::fill)
    /// unless the cached copy is identical — in one call, without cloning on
    /// a fresh hit.  A stale entry counts as a hit (it was found) and is
    /// refreshed in place with `dirty = false`, exactly like a fill.
    pub fn probe(&mut self, local: u32, id: VertexId, current: &V, now: u64) -> Probe<V>
    where
        V: PartialEq,
    {
        match slot(&mut self.slots, local) {
            Some(entry) => {
                self.stats.hits += 1;
                if entry.value == *current {
                    touch(&mut self.recency, entry, local, now);
                    return Probe::Fresh;
                }
            }
            None => self.stats.misses += 1,
        }
        Probe::Filled(self.fill(local, id, current.clone(), now))
    }

    /// Returns `true` if the vertex is cached, without touching recency or
    /// statistics.
    pub fn contains(&self, local: u32) -> bool {
        self.slots.get(local as usize).is_some_and(Option::is_some)
    }

    /// Inserts a vertex freshly downloaded from the upper system.
    ///
    /// Returns the dirty entry that had to be evicted, if any (it must be
    /// uploaded to the upper system now, as the paper prescribes: "If the
    /// chosen vertices were updated in previous iterations, corresponding
    /// information will be uploaded").  Filling a cached vertex replaces its
    /// value and clears its dirty flag without evicting anything.
    pub fn fill(&mut self, local: u32, id: VertexId, value: V, now: u64) -> Option<(VertexId, V)> {
        let Some(entry) = slot(&mut self.slots, local) else {
            return self.insert(local, id, value, now);
        };
        debug_assert_eq!(entry.id, id, "local id {local} names another vertex");
        entry.value = value;
        entry.dirty = false;
        touch(&mut self.recency, entry, local, now);
        None
    }

    /// Records a locally computed update: the new value enters the cache,
    /// marked dirty, with refreshed recency.  Returns a forced upload exactly
    /// like [`VertexCache::fill`].
    pub fn record_update(
        &mut self,
        local: u32,
        id: VertexId,
        value: V,
        now: u64,
    ) -> Option<(VertexId, V)> {
        let forced = self.fill(local, id, value, now);
        if let Some(entry) = slot(&mut self.slots, local) {
            entry.dirty = true;
        }
        self.stats.lazy_deferrals += 1;
        forced
    }

    /// Drops a cached vertex (e.g. because another node updated it, so the
    /// cached copy is stale).
    pub fn invalidate(&mut self, local: u32) {
        if let Some(entry) = self.slots.get_mut(local as usize).and_then(Option::take) {
            self.recency.remove(&(entry.last_used, entry.id, local));
        }
    }

    /// Answers a global query: returns (and marks uploaded) the dirty entries
    /// among `queried`, which is exactly what lazy uploading pushes to the
    /// global data queue (Algorithm 3, line 4-5).
    pub fn answer_query(&mut self, queried: &HashSet<VertexId>) -> Vec<(VertexId, V)> {
        self.take_dirty(|id| queried.contains(&id))
    }

    /// Number of entries currently dirty (deferred uploads outstanding).
    pub fn dirty_count(&self) -> usize {
        self.slots.iter().flatten().filter(|e| e.dirty).count()
    }

    /// Flushes every dirty entry (used at the end of a run so the upper
    /// system ends up with the final values).
    pub fn flush_dirty(&mut self) -> Vec<(VertexId, V)> {
        self.take_dirty(|_| true)
    }

    /// Marks the dirty entries selected by `wanted` uploaded and returns
    /// them, in local-id order.
    fn take_dirty(&mut self, wanted: impl Fn(VertexId) -> bool) -> Vec<(VertexId, V)> {
        let mut taken = Vec::new();
        for entry in self.slots.iter_mut().flatten() {
            if entry.dirty && wanted(entry.id) {
                entry.dirty = false;
                taken.push((entry.id, entry.value.clone()));
            }
        }
        self.stats.uploads += taken.len() as u64;
        taken
    }

    /// Caches an absent vertex, evicting the LRU entry first when full.
    fn insert(&mut self, local: u32, id: VertexId, value: V, now: u64) -> Option<(VertexId, V)> {
        let forced = if self.len() >= self.capacity {
            self.evict_lru()
        } else {
            None
        };
        let index = local as usize;
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        self.slots[index] = Some(CacheEntry {
            id,
            value,
            last_used: now,
            dirty: false,
        });
        self.recency.insert((now, id, local));
        forced
    }

    /// Evicts the LRU entry, returning it when it was dirty.
    fn evict_lru(&mut self) -> Option<(VertexId, V)> {
        let (_, id, local) = self.recency.pop_first()?;
        self.stats.evictions += 1;
        let entry = self.slots[local as usize]
            .take()
            .expect("every recency key names a cached slot");
        if !entry.dirty {
            return None;
        }
        self.stats.uploads += 1;
        Some((id, entry.value))
    }
}

/// The cluster-wide lazy-uploading rendezvous of Algorithm 3: agents push the
/// vertex ids they will need next iteration into the *global query queue*,
/// then answer each other's queries through the *global data queue*.
#[derive(Debug, Clone, Default)]
pub struct GlobalSyncQueues<V> {
    query: HashSet<VertexId>,
    data: HashMap<VertexId, V>,
}

impl<V: Clone> GlobalSyncQueues<V> {
    /// Creates empty queues for one synchronisation round.
    pub fn new() -> Self {
        Self {
            query: HashSet::new(),
            data: HashMap::new(),
        }
    }

    /// An agent pushes the vertex ids its node will need next iteration
    /// (Algorithm 3, lines 1-2).
    pub fn push_query<I: IntoIterator<Item = VertexId>>(&mut self, needed: I) {
        self.query.extend(needed);
    }

    /// The union of all queried vertex ids, broadcast to every agent.
    pub fn queried(&self) -> &HashSet<VertexId> {
        &self.query
    }

    /// An agent pushes the queried entities it owns updated copies of
    /// (Algorithm 3, lines 4-5).
    pub fn push_data<I: IntoIterator<Item = (VertexId, V)>>(&mut self, updates: I) {
        self.data.extend(updates);
    }

    /// An agent fetches the values it queried (Algorithm 3, line 7).
    pub fn fetch(&self, needed: &HashSet<VertexId>) -> Vec<(VertexId, V)> {
        self.data
            .iter()
            .filter(|(v, _)| needed.contains(v))
            .map(|(&v, value)| (v, value.clone()))
            .collect()
    }

    /// Number of entities carried by the global data queue — the actual
    /// synchronisation payload after lazy uploading.
    pub fn data_volume(&self) -> usize {
        self.data.len()
    }

    /// Number of distinct queried vertices.
    pub fn query_volume(&self) -> usize {
        self.query.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_hit_after_fill_and_miss_before() {
        let mut cache = VertexCache::new(8);
        assert_eq!(cache.lookup(3, 0), None);
        cache.fill(3, 3, 1.5f64, 0);
        assert_eq!(cache.lookup(3, 1), Some(&1.5));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_prefers_least_recently_used() {
        let mut cache = VertexCache::new(2);
        cache.fill(1, 1, 10, 0);
        cache.fill(2, 2, 20, 1);
        // Touch vertex 1 so vertex 2 becomes the LRU entry.
        cache.lookup(1, 2);
        cache.fill(3, 3, 30, 3);
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert!(cache.contains(3));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn recency_ties_evict_the_smaller_global_id_whatever_the_local_order() {
        // Local ids follow insertion order: global 9 sits in slot 0, global 4
        // in slot 1.  Both were last used at tick 0, so the tie goes to the
        // smaller *global* id.
        let mut cache = VertexCache::new(2);
        cache.fill(0, 9, 90, 0);
        cache.fill(1, 4, 40, 0);
        cache.fill(2, 6, 60, 1);
        assert!(cache.contains(0));
        assert!(!cache.contains(1));
        assert!(cache.contains(2));
    }

    #[test]
    fn probe_folds_lookup_compare_and_fill() {
        let mut cache = VertexCache::new(1);
        assert_eq!(cache.probe(0, 10, &1.0, 0), Probe::Filled(None));
        assert_eq!(cache.probe(0, 10, &1.0, 1), Probe::Fresh);
        // A stale copy counts as a hit and is refreshed in place.
        assert_eq!(cache.probe(0, 10, &2.0, 2), Probe::Filled(None));
        assert_eq!(cache.lookup(0, 3), Some(&2.0));
        // A dirty victim surfaces as a forced upload.
        cache.record_update(0, 10, 3.0, 4);
        assert_eq!(cache.probe(5, 11, &7.0, 5), Probe::Filled(Some((10, 3.0))));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (3, 2, 1));
        assert_eq!(stats.uploads, 1);
    }

    #[test]
    fn slots_grow_on_demand() {
        let mut cache = VertexCache::new(4);
        cache.fill(1_000, 7, 70, 0);
        assert!(cache.contains(1_000));
        assert!(!cache.contains(999));
        assert!(!cache.contains(5_000));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicting_a_dirty_entry_forces_an_upload() {
        let mut cache = VertexCache::new(1);
        cache.record_update(7, 7, 70, 0);
        assert_eq!(cache.dirty_count(), 1);
        let forced = cache.fill(8, 8, 80, 1);
        assert_eq!(forced, Some((7, 70)));
        assert_eq!(cache.stats().uploads, 1);
        assert_eq!(cache.dirty_count(), 0);
    }

    #[test]
    fn lazy_upload_only_answers_queried_vertices() {
        let mut cache = VertexCache::new(8);
        cache.record_update(1, 1, 100, 0);
        cache.record_update(2, 2, 200, 0);
        cache.record_update(3, 3, 300, 0);
        let queried: HashSet<VertexId> = [2, 3].into_iter().collect();
        let mut answers = cache.answer_query(&queried);
        answers.sort_unstable_by_key(|(v, _)| *v);
        assert_eq!(answers, vec![(2, 200), (3, 300)]);
        // Vertex 1 stays deferred; a flush gets it out eventually.
        assert_eq!(cache.dirty_count(), 1);
        assert_eq!(cache.flush_dirty(), vec![(1, 100)]);
        assert_eq!(cache.dirty_count(), 0);
    }

    #[test]
    fn invalidation_causes_the_next_lookup_to_miss() {
        let mut cache = VertexCache::new(4);
        cache.fill(5, 5, 50, 0);
        assert!(cache.lookup(5, 1).is_some());
        cache.invalidate(5);
        assert!(cache.lookup(5, 2).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn global_queues_follow_algorithm_three() {
        let mut queues = GlobalSyncQueues::new();
        // Agent 0 will need vertices {1, 2}; agent 1 will need {2, 3}.
        queues.push_query([1, 2]);
        queues.push_query([2, 3]);
        assert_eq!(queues.query_volume(), 3);
        // Agent 0 owns updated copies of 3; agent 1 owns 1 and 7 (7 unqueried,
        // its cache would not answer with it).
        queues.push_data([(3, 30)]);
        queues.push_data([(1, 10)]);
        assert_eq!(queues.data_volume(), 2);
        let needed: HashSet<VertexId> = [2, 3].into_iter().collect();
        let mut fetched = queues.fetch(&needed);
        fetched.sort_unstable_by_key(|(v, _)| *v);
        assert_eq!(fetched, vec![(3, 30)]);
    }

    #[test]
    fn cache_capacity_is_at_least_one() {
        let cache: VertexCache<u8> = VertexCache::new(0);
        assert_eq!(cache.capacity(), 1);
        assert!(cache.is_empty());
    }
}
