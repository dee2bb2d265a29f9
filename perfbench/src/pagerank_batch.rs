//! `pagerank_batch`: closed loop, one client, in-process `GraphService`.
//! Each accelerated PageRank-20 job (result cache bypassed) is followed by
//! a native `Session::run_native` of the same PageRank on an identical
//! deployment, the control for middleware-only changes.

use crate::deploy::{self, Assembled};
use crate::report::{all_close, Report};
use crate::stats::{ms, percentile, Summary};
use crate::trace::{breakdown, JobBreakdown, SpanKind, Tracer};
use gxplug_algos::reference::pagerank_reference;
use gxplug_algos::{PageRank, RankValue};
use gxplug_core::{AgentStats, CachePolicy, JobOptions};
use gxplug_engine::{Cluster, ExecutionMode};
use gxplug_engine::{NetworkModel, RuntimeProfile};
use gxplug_graph::PropertyGraph;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn graph() -> PropertyGraph<RankValue, f64> {
    deploy::rmat_graph(RankValue {
        rank: 1.0,
        out_degree: 0,
    })
}

fn algorithm() -> PageRank {
    PageRank::new(20)
}

fn reference(graph: &PropertyGraph<RankValue, f64>) -> Vec<f64> {
    let pr = algorithm();
    pagerank_reference(graph, pr.damping, pr.iterations, pr.initial_rank)
}

fn ranks(values: &[RankValue]) -> impl ExactSizeIterator<Item = f64> + '_ {
    values.iter().map(|v| v.rank)
}

/// Median wall of the bare reference loop on `graph` over 21 calls, in ms.
pub fn bare_ms(graph: &PropertyGraph<RankValue, f64>) -> f64 {
    let walls: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(reference(std::hint::black_box(graph)));
            ms(start.elapsed())
        })
        .collect();
    percentile(&walls, 0.5).expect("21 samples")
}

/// The end-to-end run.
pub fn run(seconds: Duration, report: &mut Report) {
    let graph = Arc::new(graph());
    let algorithm = algorithm();
    let want = reference(&graph);
    let bypass = JobOptions::new().with_cache(CachePolicy::Bypass);

    let mut setups = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUPS {
        drop(deployment.take());
        let start = Instant::now();
        let partitioning = deploy::partition(&graph);
        let service = deploy::service(
            Arc::clone(&graph),
            partitioning.clone(),
            ExecutionMode::Threaded,
        );
        let mut session = deploy::session(&*graph, partitioning);
        let warm = service
            .submit_with(algorithm, bypass)
            .and_then(|t| t.wait());
        let native = session.run_native(&algorithm);
        setups.push(start.elapsed().as_secs_f64());
        match warm {
            Ok(outcome) if all_close(ranks(&outcome.values), &want) => {}
            Ok(_) => report.problem("warm-up job differs from pagerank_reference".into()),
            Err(e) => report.problem(format!("warm-up job failed: {e}")),
        }
        if !all_close(ranks(&native.values), &want) {
            report.problem("warm-up native run differs from pagerank_reference".into());
        }
        deployment = Some((service, session));
    }
    let (service, mut session) = deployment.expect("at least one set-up");

    let mut accel = Vec::new();
    let mut native = Vec::new();
    let start = Instant::now();
    while start.elapsed() < seconds {
        let t = Instant::now();
        let outcome = service
            .submit_with(algorithm, bypass)
            .and_then(|t| t.wait());
        accel.push(ms(t.elapsed()));
        report.operation(
            matches!(&outcome, Ok(o) if all_close(ranks(&o.values), &want)),
            || format!("accelerated job: {:?}", outcome.as_ref().err()),
        );

        let t = Instant::now();
        let outcome = session.run_native(&algorithm);
        native.push(ms(t.elapsed()));
        report.operation(all_close(ranks(&outcome.values), &want), || {
            "native run differs from pagerank_reference".into()
        });
    }
    drop(session);
    service.shutdown();

    let bare = bare_ms(&graph);
    let accel = Summary::of(&accel).expect("at least one job");
    let native = Summary::of(&native).expect("at least one job");
    report.latency_line("job (accelerated, p50_ms/p90_ms)", Some(accel));
    report.latency_line("native_job (side_p50_ms)", Some(native));
    report.line(format!(
        "ratios: accel/native {:.2}x (base native_job p50 {:.3} ms), native/bare {:.2}x \
         (base bare pagerank_reference {:.3} ms), accel/bare {:.1}x",
        accel.p50 / native.p50,
        native.p50,
        native.p50 / bare,
        bare,
        accel.p50 / bare
    ));
    report.metric(
        "setup_s",
        "s",
        percentile(&setups, 0.5).expect("set-ups ran"),
    );
    report.metric("p50_ms", "ms", accel.p50);
    report.metric("p90_ms", "ms", accel.p90);
    report.metric("side_p50_ms", "ms", native.p50);
}

/// The traced probe: accelerated jobs assembled from public parts with
/// timed backends and a timed compute phase, alternated with an untraced
/// `Session::run` on an identical deployment (the tracing overhead) and a
/// traced native run.
/// Returns the tracer so its spans can be written out.
pub fn trace(seconds: Duration, report: &mut Report) -> Arc<Tracer> {
    let graph = graph();
    let algorithm = algorithm();
    let want = reference(&graph);

    let mut partition_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let partitioning = deploy::partition(&graph);
        partition_ms.push(ms(start.elapsed()));
        let start = Instant::now();
        cluster = Some(Cluster::build(
            &graph,
            partitioning,
            &algorithm,
            RuntimeProfile::powergraph(),
            NetworkModel::datacenter(),
        ));
        build_ms.push(ms(start.elapsed()));
    }
    let cluster = cluster.expect("at least one set-up");
    let tracer = Arc::new(Tracer::new());
    let mut traced = Assembled::new(cluster, Arc::clone(&tracer));
    // The untraced arm is the program's own session on the same deployment.
    let mut untraced = deploy::session(&graph, deploy::partition(&graph));
    // Warm both deployments (device start-up, arena growth) before timing.
    let _ = traced.run(&algorithm);
    let _ = untraced.run(&algorithm);

    let mut jobs = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut native_compute = Vec::new();
    let mut last = None;
    let begin = Instant::now();
    while begin.elapsed() < seconds || jobs.is_empty() {
        let job = tracer.begin_job();
        let t = Instant::now();
        let result = traced.run(&algorithm);
        tracer.record(SpanKind::Job, 0, 0, 0, t);
        match result {
            Ok((run, stats, values)) => {
                report.operation(all_close(ranks(&values), &want), || {
                    "traced job differs from pagerank_reference".into()
                });
                jobs.push(breakdown(&tracer.job_spans(job)));
                last = Some((run, stats));
            }
            Err(e) => report.operation(false, || format!("traced job failed: {e}")),
        }

        let t = Instant::now();
        let result = untraced.run(&algorithm);
        untraced_walls.push(ms(t.elapsed()));
        report.operation(
            matches!(&result, Ok(o) if all_close(ranks(&o.values), &want)),
            || "untraced session job differs from pagerank_reference".into(),
        );

        let job = tracer.begin_job();
        let (_, values) = traced.run_native(&algorithm);
        report.operation(all_close(ranks(&values), &want), || {
            "traced native run differs from pagerank_reference".into()
        });
        let spans = tracer.job_spans(job);
        native_compute.push(ms(spans
            .iter()
            .filter(|s| s.kind == SpanKind::NativeCompute)
            .map(|s| s.len())
            .sum()));
    }

    let median = |f: &dyn Fn(&JobBreakdown) -> f64| {
        percentile(&jobs.iter().map(f).collect::<Vec<_>>(), 0.5).unwrap_or(f64::NAN)
    };
    let wall = median(&|b| ms(b.wall));
    let compute = median(&|b| ms(b.compute));
    let sync = median(&|b| ms(b.sync));
    let untraced_wall = percentile(&untraced_walls, 0.5).unwrap_or(f64::NAN);
    let coverage = median(&|b| ms(b.compute + b.sync) / ms(b.wall));
    if coverage.is_nan() || coverage < 0.9 {
        report.problem(format!(
            "spans cover {coverage:.3} of the traced job wall (need at least 0.9)"
        ));
    }
    let p50 = |samples: &[f64]| percentile(samples, 0.5).expect("set-ups ran");
    report.metric("graph.partition_ms", "ms", p50(&partition_ms));
    report.metric("engine.cluster_build_ms", "ms", p50(&build_ms));
    report.metric("engine.sync_ms", "ms", sync);
    report.metric(
        "engine.native_compute_ms",
        "ms",
        percentile(&native_compute, 0.5).unwrap_or(f64::NAN),
    );
    report.metric("agent.compute_ms", "ms", compute);
    let agent_self = median(&|b| ms(b.agent_self));
    let launch = median(&|b| ms(b.launch));
    report.metric("agent.self_ms", "ms", agent_self);
    report.metric("agent.node_skew", "ratio", median(&|b| b.node_skew));
    report.metric("accel.launch_ms", "ms", launch);
    let launches = median(&|b| b.launches as f64);
    let items = median(&|b| b.items as f64);
    report.metric("accel.launches", "count", launches);
    report.metric("accel.items", "count", items);
    report.metric("accel.items_per_launch", "count", items / launches);
    if let Some((run, stats)) = last {
        let mut total = AgentStats::default();
        for node in &stats {
            total.merge(node);
        }
        let cache = total.cache;
        report.metric("engine.supersteps", "count", run.num_iterations() as f64);
        report.metric("engine.triplets", "count", run.total_triplets() as f64);
        report.metric("sync_cache.hits", "count", cache.hits as f64);
        report.metric("sync_cache.misses", "count", cache.misses as f64);
        report.metric("sync_cache.evictions", "count", cache.evictions as f64);
        report.metric("sync_cache.uploads", "count", cache.uploads as f64);
        report.metric("sync_cache.hit_ratio", "ratio", cache.hit_ratio());
    }
    report.metric("trace.job_traced_ms", "ms", wall);
    report.metric("trace.job_untraced_ms", "ms", untraced_wall);
    report.metric("trace.span_coverage", "ratio", coverage);
    report.metric("reference.pagerank_bare_ms", "ms", bare_ms(&graph));
    report.line(format!(
        "pagerank_batch traced: job {wall:.3} ms = compute {compute:.3} (agent self \
         {agent_self:.3} + launch {launch:.3} on the slowest node) + sync {sync:.3}; untraced \
         {untraced_wall:.3} ms (tracing overhead {:+.1}%), n={}",
        (wall / untraced_wall - 1.0) * 100.0,
        jobs.len()
    ));
    tracer
}
