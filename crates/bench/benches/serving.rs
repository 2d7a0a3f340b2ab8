//! Criterion benchmarks for the serving layer: engine overhead vs a
//! direct forward, and the cache fast path.
//!
//! Three numbers bound the design space: `direct` is the raw forward,
//! `engine_miss` adds queue + worker + fingerprint overhead (should be a
//! small constant on top of `direct`), and `engine_hit` is the cache fast
//! path (hashing only — orders of magnitude below a forward).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use lh_graph::FeatureSet;
use lhnn::{CongestionModel, GraphOps, Lhnn, LhnnConfig};
use lhnn_serve::{EngineConfig, ModelRegistry, PredictRequest, ServeEngine};

fn inputs(grid: u32) -> (Arc<GraphOps>, Arc<FeatureSet>) {
    let (ops, features) =
        lhnn_data::serving_inputs(0, (grid * grid) as usize, grid).expect("build design");
    (Arc::new(ops), Arc::new(features))
}

fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    let (ops, features) = inputs(16);
    let model = Lhnn::new(LhnnConfig::default(), 0);

    group.bench_function("direct_predict", |b| {
        b.iter(|| model.predict(&ops, &features));
    });

    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", Lhnn::new(LhnnConfig::default(), 0)).expect("register");
    let miss_engine = ServeEngine::new(
        Arc::clone(&registry),
        EngineConfig { workers: 1, cache_capacity: 0, ..EngineConfig::default() },
    );
    let miss = miss_engine.handle();
    let req = PredictRequest::new("m", Arc::clone(&ops), Arc::clone(&features));
    group.bench_function("engine_miss", |b| {
        b.iter(|| miss.predict(&req).expect("serve"));
    });

    let hit_engine = ServeEngine::new(
        registry,
        EngineConfig { workers: 1, cache_capacity: 8, ..EngineConfig::default() },
    );
    let hit = hit_engine.handle();
    hit.predict(&req).expect("warm the cache");
    group.bench_function("engine_hit", |b| {
        b.iter(|| {
            let reply = hit.predict(&req).expect("serve");
            assert!(reply.cached);
        });
    });

    group.finish();
    miss_engine.shutdown();
    hit_engine.shutdown();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
