//! Tracing from outside the program: spans recorded around calls into the
//! public API of each layer, kept in memory and written out at the end.
//!
//! Accelerated runs are assembled from the same public parts a session
//! uses (`Cluster::build`, `ThreadedAgent::spawn`, `Cluster::run_phased`),
//! with two seams swapped for timed ones:
//!
//! * [`TimedBackend`] decorates each device's `AcceleratorBackend` and
//!   records one span per kernel launch;
//! * [`TimedNodes`] is the compute phase: like the library's
//!   `ThreadedNodes` it runs each node's `ThreadedAgent::process_iteration`
//!   on a scoped thread, and records one span per node plus one for the
//!   whole phase (the BSP barrier).
//!
//! [`TimedNative`] wraps the native compute phase the same way.

use gxplug_accel::{
    AcceleratorBackend, ChunkKernel, CostModel, DeviceKind, DeviceSpec, KernelTiming, SimDuration,
};
use gxplug_core::{Daemon, RuntimeError, ThreadedAgent};
use gxplug_engine::cluster::{ComputePhase, NodeComputeOutput};
use gxplug_engine::node::NodeState;
use gxplug_engine::template::GraphAlgorithm;
use std::io::Write;
use std::panic::resume_unwind;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One job, submit to result, as the caller sees it.
    Job,
    /// The `Cluster::run_phased` call of a job.
    RunPhased,
    /// One superstep's compute phase, up to the BSP barrier.
    Compute,
    /// One node's `ThreadedAgent::process_iteration` call.
    Node,
    /// One `AcceleratorBackend::launch` call.
    Launch,
    /// One superstep's native compute phase.
    NativeCompute,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::RunPhased => "run_phased",
            SpanKind::Compute => "compute",
            SpanKind::Node => "node",
            SpanKind::Launch => "launch",
            SpanKind::NativeCompute => "native_compute",
        }
    }
}

/// One recorded interval.  Spans of one job share `job`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The job the span belongs to.
    pub job: u32,
    /// What the span covers.
    pub kind: SpanKind,
    /// Node id (launch and node spans), else 0.
    pub node: u32,
    /// Daemon index within the node (launch spans), else 0.
    pub daemon: u32,
    /// Items launched (launch spans), else 0.
    pub items: u64,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
}

impl Span {
    /// The span's length.
    pub fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    fn contains(&self, other: &Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// An in-memory span store shared by every recording site.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    job: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            job: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a new job: spans recorded from now on carry its id.
    pub fn begin_job(&self) -> u32 {
        self.job.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records one span.
    pub fn record(&self, kind: SpanKind, node: u32, daemon: u32, items: u64, start: Instant) {
        let end = Instant::now();
        let span = Span {
            job: self.job.load(Ordering::Relaxed),
            kind,
            node,
            daemon,
            items,
            start: start - self.origin,
            end: end - self.origin,
        };
        self.spans.lock().expect("no recorder panicked").push(span);
    }

    /// The spans of `job`.
    pub fn job_spans(&self, job: u32) -> Vec<Span> {
        let spans = self.spans.lock().expect("no recorder panicked");
        spans.iter().filter(|s| s.job == job).copied().collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("no recorder panicked").iter() {
            writeln!(
                out,
                "{{\"job\":{},\"span\":\"{}\",\"node\":{},\"daemon\":{},\"items\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.job,
                s.kind.name(),
                s.node,
                s.daemon,
                s.items,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}

/// The part of `within` that `children` cover (overlaps counted once).
pub fn covered(within: (Duration, Duration), children: &[(Duration, Duration)]) -> Duration {
    let mut clipped: Vec<(Duration, Duration)> = children
        .iter()
        .map(|&(s, e)| (s.max(within.0), e.min(within.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort();
    let mut total = Duration::ZERO;
    let mut cursor = within.0;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// An `AcceleratorBackend` decorator recording a span per launch.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Box<dyn AcceleratorBackend>,
    node: u32,
    daemon: u32,
    tracer: Arc<Tracer>,
}

impl TimedBackend {
    /// Wraps the backend `spec` builds.
    pub fn new(spec: &DeviceSpec, node: usize, daemon: usize, tracer: Arc<Tracer>) -> Self {
        Self {
            inner: spec.build(),
            node: node as u32,
            daemon: daemon as u32,
            tracer,
        }
    }
}

impl AcceleratorBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kind(&self) -> DeviceKind {
        self.inner.kind()
    }
    fn cost_model(&self) -> &CostModel {
        self.inner.cost_model()
    }
    fn spec(&self) -> DeviceSpec {
        self.inner.spec()
    }
    fn is_initialized(&self) -> bool {
        self.inner.is_initialized()
    }
    fn initialize(&mut self) -> SimDuration {
        self.inner.initialize()
    }
    fn shutdown(&mut self) {
        self.inner.shutdown()
    }
    fn max_concurrency(&self) -> usize {
        self.inner.max_concurrency()
    }
    fn launch(
        &mut self,
        items: usize,
        kernel: &ChunkKernel<'_>,
    ) -> gxplug_accel::Result<KernelTiming> {
        let start = Instant::now();
        let result = self.inner.launch(items, kernel);
        self.tracer.record(
            SpanKind::Launch,
            self.node,
            self.daemon,
            items as u64,
            start,
        );
        result
    }
    fn items_processed(&self) -> u64 {
        self.inner.items_processed()
    }
    fn kernel_launches(&self) -> u64 {
        self.inner.kernel_launches()
    }
    fn capacity_factor(&self) -> f64 {
        self.inner.capacity_factor()
    }
    fn estimate_invocation(&self, n: usize) -> SimDuration {
        self.inner.estimate_invocation(n)
    }
    fn memory_capacity_items(&self) -> Option<usize> {
        self.inner.memory_capacity_items()
    }
}

/// The timed counterpart of the library's `ThreadedNodes` compute phase.
pub struct TimedNodes<'a, 'scope, 'env, V, E, A>
where
    A: GraphAlgorithm<V, E>,
{
    /// One threaded agent per node, in node order.
    pub agents: &'a mut [ThreadedAgent<'scope, 'env, V, E, A::Msg>],
    /// The algorithm being executed.
    pub algorithm: &'env A,
    /// Where the spans go.
    pub tracer: &'a Tracer,
}

impl<'a, 'scope, 'env, V, E, A> ComputePhase<V, E, A::Msg> for TimedNodes<'a, 'scope, 'env, V, E, A>
where
    V: Clone + PartialEq + Send + Sync + 'env,
    E: Clone + Send + Sync + 'env,
    A: GraphAlgorithm<V, E>,
    A::Msg: 'env,
{
    type Error = RuntimeError;

    fn compute(
        &mut self,
        nodes: &mut [NodeState<V, E>],
        iteration: usize,
    ) -> Result<Vec<NodeComputeOutput<V, A::Msg>>, RuntimeError> {
        let phase_start = Instant::now();
        let algorithm = self.algorithm;
        let tracer = self.tracer;
        let results: Vec<Result<NodeComputeOutput<V, A::Msg>, RuntimeError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = nodes
                    .iter_mut()
                    .zip(self.agents.iter_mut())
                    .enumerate()
                    .map(|(id, (node, agent))| {
                        scope.spawn(move || {
                            let start = Instant::now();
                            let out = agent.process_iteration(node, algorithm, iteration);
                            tracer.record(SpanKind::Node, id as u32, 0, 0, start);
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().unwrap_or_else(|p| resume_unwind(p)))
                    .collect()
            });
        self.tracer.record(SpanKind::Compute, 0, 0, 0, phase_start);
        results.into_iter().collect()
    }
}

/// A native compute phase with a span around each superstep.
pub struct TimedNative<'a, P> {
    /// The wrapped phase (`ParallelNodes(native_node_compute)`).
    pub inner: P,
    /// Where the spans go.
    pub tracer: &'a Tracer,
}

impl<V, E, M, P: ComputePhase<V, E, M>> ComputePhase<V, E, M> for TimedNative<'_, P> {
    type Error = P::Error;

    fn compute(
        &mut self,
        nodes: &mut [NodeState<V, E>],
        iteration: usize,
    ) -> Result<Vec<NodeComputeOutput<V, M>>, P::Error> {
        let start = Instant::now();
        let out = self.inner.compute(nodes, iteration);
        self.tracer.record(SpanKind::NativeCompute, 0, 0, 0, start);
        out
    }
}

/// Where one traced accelerated job's wall went.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobBreakdown {
    /// The job span.
    pub wall: Duration,
    /// Compute-phase spans summed over supersteps.
    pub compute: Duration,
    /// `run_phased` wall not covered by compute-phase spans.
    pub sync: Duration,
    /// Per superstep, the slowest node's `process_iteration` time not
    /// covered by its launch spans; summed.
    pub agent_self: Duration,
    /// Per superstep, the slowest node's launch coverage; summed.
    pub launch: Duration,
    /// Median over supersteps of max/mean per-node `process_iteration` wall.
    pub node_skew: f64,
    /// Launch spans of the job, all nodes.
    pub launches: u64,
    /// Items launched, all nodes.
    pub items: u64,
}

/// Breaks a traced accelerated job down from its spans.
pub fn breakdown(spans: &[Span]) -> JobBreakdown {
    let of = |kind| spans.iter().filter(move |s| s.kind == kind);
    let wall = of(SpanKind::Job).map(Span::len).sum();
    let run_phased: Duration = of(SpanKind::RunPhased).map(Span::len).sum();
    let compute: Duration = of(SpanKind::Compute).map(Span::len).sum();
    let mut out = JobBreakdown {
        wall,
        compute,
        sync: run_phased.saturating_sub(compute),
        ..JobBreakdown::default()
    };
    let launches: Vec<&Span> = of(SpanKind::Launch).collect();
    out.launches = launches.len() as u64;
    out.items = launches.iter().map(|s| s.items).sum();
    let mut skews = Vec::new();
    for phase in of(SpanKind::Compute) {
        let nodes: Vec<&Span> = of(SpanKind::Node).filter(|n| phase.contains(n)).collect();
        let Some(slowest) = nodes.iter().max_by_key(|n| n.len()) else {
            continue;
        };
        let children: Vec<(Duration, Duration)> = launches
            .iter()
            .filter(|l| l.node == slowest.node && slowest.contains(l))
            .map(|l| (l.start, l.end))
            .collect();
        let launch = covered((slowest.start, slowest.end), &children);
        out.launch += launch;
        out.agent_self += slowest.len() - launch;
        let mean = nodes.iter().map(|n| n.len().as_secs_f64()).sum::<f64>() / nodes.len() as f64;
        if mean > 0.0 {
            skews.push(slowest.len().as_secs_f64() / mean);
        }
    }
    out.node_skew = crate::stats::percentile(&skews, 0.5).unwrap_or(1.0);
    out
}

/// Builds one node's daemons with timed backends.
pub fn node_daemons(node: usize, specs: &[DeviceSpec], tracer: &Arc<Tracer>) -> Vec<Daemon> {
    let keys = gxplug_ipc::key::KeyGenerator::new(0xBE);
    specs
        .iter()
        .enumerate()
        .map(|(index, spec)| {
            let backend: Box<dyn AcceleratorBackend> =
                Box::new(TimedBackend::new(spec, node, index, Arc::clone(tracer)));
            Daemon::new(
                format!("node{node}-daemon{index}"),
                backend,
                keys.key_for(node, index),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn coverage_counts_overlaps_once_and_clips() {
        let within = (d(10), d(20));
        assert_eq!(covered(within, &[]), d(0));
        assert_eq!(covered(within, &[(d(12), d(14)), (d(13), d(16))]), d(4));
        assert_eq!(covered(within, &[(d(0), d(11)), (d(19), d(30))]), d(2));
        assert_eq!(covered(within, &[(d(0), d(5)), (d(25), d(30))]), d(0));
        assert_eq!(covered(within, &[(d(11), d(12)), (d(0), d(40))]), d(10));
    }

    fn span(kind: SpanKind, node: u32, start: u64, end: u64) -> Span {
        Span {
            job: 1,
            kind,
            node,
            daemon: 0,
            items: 10,
            start: d(start),
            end: d(end),
        }
    }

    #[test]
    fn breakdown_splits_the_slowest_node_into_self_and_launch_time() {
        let spans = vec![
            span(SpanKind::Job, 0, 0, 100),
            span(SpanKind::RunPhased, 0, 5, 95),
            span(SpanKind::Compute, 0, 10, 50),
            span(SpanKind::Node, 0, 10, 48),
            span(SpanKind::Node, 1, 10, 30),
            span(SpanKind::Launch, 0, 12, 20),
            span(SpanKind::Launch, 0, 15, 25),
            span(SpanKind::Launch, 1, 12, 29),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.wall, d(100));
        assert_eq!(b.compute, d(40));
        assert_eq!(b.sync, d(50));
        assert_eq!(b.launch, d(13));
        assert_eq!(b.agent_self, d(25));
        assert_eq!(b.launches, 3);
        assert_eq!(b.items, 30);
        assert!((b.node_skew - 38.0 / 29.0).abs() < 1e-9);
    }
}
