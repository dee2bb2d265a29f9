//! Criterion benchmarks for the synchronization-caching data structures:
//! LRU vertex cache operations and the lazy-uploading global queues.
//!
//! The cache arms address vertex `v` by local id `v` (a dense id space of
//! 20,000 slots).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gxplug_core::{GlobalSyncQueues, VertexCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

fn bench_cache_operations(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let accesses: Vec<u32> = (0..50_000).map(|_| rng.gen_range(0..20_000u32)).collect();

    c.bench_function("vertex_cache_fill_and_lookup_zipfless", |b| {
        b.iter(|| {
            let mut cache: VertexCache<f64> = VertexCache::new(8_192);
            let mut hits = 0u64;
            for (i, &v) in accesses.iter().enumerate() {
                let now = (i / 1_000) as u64;
                if cache.lookup(v, now).is_some() {
                    hits += 1;
                } else {
                    cache.fill(v, v, v as f64, now);
                }
            }
            black_box(hits)
        })
    });

    c.bench_function("vertex_cache_record_update_and_answer_query", |b| {
        let queried: HashSet<u32> = (0..10_000u32).filter(|v| v % 3 == 0).collect();
        b.iter(|| {
            let mut cache: VertexCache<f64> = VertexCache::new(16_384);
            for v in 0..10_000u32 {
                cache.record_update(v, v, v as f64 * 0.5, 1);
            }
            black_box(cache.answer_query(&queried).len())
        })
    });
}

fn bench_global_queues(c: &mut Criterion) {
    c.bench_function("global_sync_queues_round", |b| {
        b.iter(|| {
            let mut queues: GlobalSyncQueues<f64> = GlobalSyncQueues::new();
            // Six agents push queries and answers (Algorithm 3).
            for agent in 0..6u32 {
                queues.push_query((0..2_000).map(|i| agent * 2_000 + i));
            }
            for agent in 0..6u32 {
                queues.push_data((0..500).map(|i| (agent * 2_000 + i, i as f64)));
            }
            let needed: HashSet<u32> = (0..1_000).collect();
            black_box((queues.data_volume(), queues.fetch(&needed).len()))
        })
    });
}

criterion_group!(benches, bench_cache_operations, bench_global_queues);
criterion_main!(benches);
