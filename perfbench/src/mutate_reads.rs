//! `mutate_reads`: closed loop, one client, in-process `GraphService` on
//! the `pagerank_batch` deployment over a `Vec<f64>` graph, except that the
//! nodes compute serially.  Each round
//! applies one seeded insert-only batch of 32 edges (0.1% of the graph),
//! then reads the standing `MultiSourceSssp::paper_default()` query — a
//! cache miss the service recomputes incrementally — and reads it once
//! more, now a cache hit.  Every `ROUNDS_PER_DEPLOYMENT` rounds the
//! deployment is rebuilt from the base graph, so churn never accumulates:
//! a faster program runs more rounds of the same workload, not a bigger
//! graph.
//!
//! Why serial: an incremental recompute is about 3 ms of sparse work in
//! 2–3 supersteps.  Threaded, each superstep fans out to four node threads
//! on however few cores the host has, and the round's latency then follows
//! the host scheduler rather than the program: on 2 vCPUs one competing
//! busy process takes the threaded p50 from 3.8 to 10 ms, the serial one
//! not at all.  `pagerank_batch` keeps the threaded fan-out, where each
//! superstep is long enough to carry it.

use crate::deploy;
use crate::report::{all_close, Report};
use crate::stats::{ms, percentile, us, Rng, Summary};
use gxplug_algos::reference::multi_source_sssp_reference;
use gxplug_algos::MultiSourceSssp;
use gxplug_core::{GraphService, RunOutcome, ServiceError};
use gxplug_engine::ExecutionMode;
use gxplug_graph::{MutationBatch, PropertyGraph};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Edges inserted per round: 0.1% of rmat-12's 32,768.
const BATCH_EDGES: usize = 32;
/// Rounds on one deployment before it is rebuilt from the base graph.
const ROUNDS_PER_DEPLOYMENT: u64 = 100;

type Graph = PropertyGraph<Vec<f64>, f64>;

/// The seeded insert-only batch of `round` on deployment `epoch`.
pub fn batch(seed: u64, epoch: u64, round: u64, num_vertices: u32) -> MutationBatch<Vec<f64>, f64> {
    let mut rng = Rng::new(seed, 3 + (epoch << 20) + round);
    let mut batch = MutationBatch::new();
    for _ in 0..BATCH_EDGES {
        let src = rng.below(num_vertices as u64) as u32;
        let dst = rng.below(num_vertices as u64) as u32;
        batch = batch.add_edge(src, dst, 1.0 + rng.below(10) as f64);
    }
    batch
}

fn reference(graph: &Graph) -> Vec<Vec<f64>> {
    multi_source_sssp_reference(graph, MultiSourceSssp::paper_default().sources())
}

fn matches(outcome: &Result<RunOutcome<Vec<f64>>, ServiceError>, want: &[Vec<f64>]) -> bool {
    let Ok(outcome) = outcome else {
        return false;
    };
    outcome.values.len() == want.len()
        && outcome
            .values
            .iter()
            .zip(want)
            .all(|(got, want)| all_close(got.iter().copied(), want))
}

/// Samples of one timed window.
#[derive(Default)]
pub struct Rounds {
    /// `apply_mutations` call → post-mutation query result, ms.
    pub fresh: Vec<f64>,
    /// p90 of `fresh` within each deployment, ms.
    pub fresh_p90: Vec<f64>,
    /// The cached re-read right after, ms.
    pub read: Vec<f64>,
    /// The `apply_mutations` call alone, µs.
    pub apply: Vec<f64>,
    /// Supersteps of the incremental recompute.
    pub supersteps: Vec<f64>,
    /// Triplets of the incremental recompute.
    pub triplets: Vec<f64>,
    /// Deployment set-ups: partition → first query result, s.
    pub setups: Vec<f64>,
}

/// Deploys and warms the standing query; returns the service and the
/// set-up time.
fn deploy(
    base: &Arc<Graph>,
    report: &mut Report,
    want: &[Vec<f64>],
) -> (GraphService<Vec<f64>, f64>, f64) {
    let start = Instant::now();
    let partitioning = deploy::partition(base);
    let service = deploy::service(Arc::clone(base), partitioning, ExecutionMode::Serial);
    let warm = service
        .submit(MultiSourceSssp::paper_default())
        .and_then(|ticket| ticket.wait());
    let setup = start.elapsed().as_secs_f64();
    if !matches(&warm, want) {
        report.problem("standing query warm-up differs from multi_source_sssp_reference".into());
    }
    (service, setup)
}

/// Runs rounds for `window`, rebuilding the deployment every
/// `ROUNDS_PER_DEPLOYMENT` rounds.
pub fn rounds(seed: u64, window: Duration, report: &mut Report) -> Rounds {
    let base = Arc::new(deploy::rmat_graph(Vec::new()));
    let base_want = reference(&base);
    let num_vertices = base.num_vertices() as u32;
    let query = MultiSourceSssp::paper_default;
    let mut out = Rounds::default();
    let start = Instant::now();
    let mut epoch = 0;
    while start.elapsed() < window || out.fresh.is_empty() {
        let (service, setup) = deploy(&base, report, &base_want);
        out.setups.push(setup);
        let mut graph: Graph = (*base).clone();
        let hits_before = service.stats().cache_hits;
        let first = out.fresh.len();
        let mut reads = 0;
        for round in 0..ROUNDS_PER_DEPLOYMENT {
            if start.elapsed() >= window && !out.fresh.is_empty() {
                break;
            }
            let batch = batch(seed, epoch, round, num_vertices);
            let t = Instant::now();
            let delta = service.apply_mutations(&batch);
            let applied = t.elapsed();
            let fresh = service.submit(query()).and_then(|ticket| ticket.wait());
            let fresh_wall = t.elapsed();
            let t = Instant::now();
            let read = service.submit(query()).and_then(|ticket| ticket.wait());
            let read_wall = t.elapsed();

            let delta = match delta {
                Ok(delta) => delta,
                Err(e) => {
                    report.operation(false, || format!("mutation batch refused: {e}"));
                    continue;
                }
            };
            graph.apply_mutations(&delta);
            let want = reference(&graph);
            report.operation(matches(&fresh, &want), || {
                format!("epoch {epoch} round {round}: fresh result differs from reference")
            });
            report.operation(matches(&read, &want), || {
                format!("epoch {epoch} round {round}: cached read differs from reference")
            });
            out.apply.push(us(applied));
            out.fresh.push(ms(fresh_wall));
            out.read.push(ms(read_wall));
            reads += 1;
            if let Ok(fresh) = &fresh {
                out.supersteps.push(fresh.report.num_iterations() as f64);
                out.triplets.push(fresh.report.total_triplets() as f64);
            }
        }
        out.fresh_p90.extend(percentile(&out.fresh[first..], 0.9));
        let hits = service.stats().cache_hits - hits_before;
        if hits != reads {
            report.problem(format!(
                "epoch {epoch}: {hits} cache hits for {reads} re-reads of an unchanged graph"
            ));
        }
        service.shutdown();
        epoch += 1;
    }
    out
}

/// The end-to-end run.  `p90_ms` is the median over the run's deployments
/// of each deployment's p90: a burst of host noise that covers a few
/// deployments moves a whole-run p90 but not this median, while a slower
/// program moves every deployment's p90.
pub fn run(seed: u64, seconds: Duration, report: &mut Report) {
    let rounds = rounds(seed, seconds, report);
    let fresh = Summary::of(&rounds.fresh).expect("at least one round");
    let read = Summary::of(&rounds.read).expect("at least one round");
    report.latency_line("fresh (p50_ms/p90_ms)", Some(fresh));
    report.latency_line("cached read (side_p50_ms)", Some(read));
    let fresh_p90 = percentile(&rounds.fresh_p90, 0.5).expect("at least one round");
    report.line(format!(
        "{} rounds over {} deployments of {ROUNDS_PER_DEPLOYMENT} rounds; \
         median of the deployments' fresh p90 {fresh_p90:.4} ms",
        rounds.fresh.len(),
        rounds.setups.len()
    ));
    report.metric(
        "setup_s",
        "s",
        percentile(&rounds.setups, 0.5).expect("deployed"),
    );
    report.metric("p50_ms", "ms", fresh.p50);
    report.metric("p90_ms", "ms", fresh_p90);
    report.metric("side_p50_ms", "ms", read.p50);
}

/// The traced probe: the same rounds, reporting the mutation layer and
/// the incremental recompute's work.
pub fn trace(seed: u64, window: Duration, report: &mut Report) {
    let rounds = rounds(seed, window, report);
    let p50 = |samples: &[f64]| percentile(samples, 0.5).unwrap_or(f64::NAN);
    report.metric("graph.mutation_apply_us", "us", p50(&rounds.apply));
    report.metric("engine.fresh_supersteps", "count", p50(&rounds.supersteps));
    report.metric("engine.fresh_triplets", "count", p50(&rounds.triplets));
    report.line(format!(
        "mutate_reads traced: apply {:.1} us, fresh {:.3} ms in {} supersteps, n={}",
        p50(&rounds.apply),
        p50(&rounds.fresh),
        p50(&rounds.supersteps),
        rounds.fresh.len()
    ));
}
