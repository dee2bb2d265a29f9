//! The deployment every in-process workload uses, and the hand-assembled
//! accelerated run the traced sweep times layer by layer.

use crate::trace::{node_daemons, SpanKind, TimedNative, TimedNodes, Tracer};
use gxplug_accel::{presets, DeviceSpec, SimDuration};
use gxplug_core::{
    AgentStats, Daemon, GraphService, MiddlewareConfig, RuntimeError, Session, SessionBuilder,
    ThreadedAgent,
};
use gxplug_engine::{
    native_node_compute, Cluster, ExecutionMode, GraphAlgorithm, NetworkModel, NodeState,
    ParallelNodes, RunReport, RuntimeProfile, SyncPolicy,
};
use gxplug_graph::generators::{Generator, Rmat};
use gxplug_graph::partition::{GreedyVertexCutPartitioner, Partitioner, Partitioning};
use gxplug_graph::{PropertyGraph, TripletBuffer};
use std::sync::Arc;
use std::time::Instant;

/// rmat-12: 4,096 vertices, 32,768 edges.
pub const SCALE: u32 = 12;
/// The graph seed.  Fixed: the workload seed varies queries, arrivals and
/// mutations, never the graph.
pub const GRAPH_SEED: u64 = 42;
/// Distributed nodes of the in-process deployment.
pub const NODES: usize = 4;
/// Iteration cap of the deployment.
const MAX_ITERATIONS: usize = 100;

/// The rmat-12 graph with every vertex set to `default`.
pub fn rmat_graph<V: Clone>(default: V) -> PropertyGraph<V, f64> {
    let list = Rmat::new(SCALE, 8.0).generate(GRAPH_SEED);
    PropertyGraph::from_edge_list(list, default).expect("rmat edge lists are valid")
}

/// The greedy vertex cut over [`NODES`] nodes.
pub fn partition<V, E>(graph: &PropertyGraph<V, E>) -> Partitioning {
    GreedyVertexCutPartitioner::default()
        .partition(graph, NODES)
        .expect("rmat-12 partitions")
}

/// One `gpu_v100` and one `cpu_xeon_20c` per node.
pub fn device_specs() -> Vec<Vec<DeviceSpec>> {
    (0..NODES)
        .map(|n| {
            vec![
                presets::gpu_v100(format!("n{n}g")),
                presets::cpu_xeon_20c(format!("n{n}c")),
            ]
        })
        .collect()
}

/// The in-process service: default `MiddlewareConfig` with the given
/// execution mode, one worker session.
pub fn service<V, E>(
    graph: Arc<PropertyGraph<V, E>>,
    partitioning: Partitioning,
    execution: ExecutionMode,
) -> GraphService<V, E>
where
    V: Clone + PartialEq + Send + Sync + 'static,
    E: Clone + Send + Sync + 'static,
{
    GraphService::builder(graph)
        .partitioned_by(partitioning)
        .profile(RuntimeProfile::powergraph())
        .network(NetworkModel::datacenter())
        .devices(device_specs())
        .config(MiddlewareConfig::default().with_execution(execution))
        .dataset("rmat12")
        .max_iterations(MAX_ITERATIONS)
        .worker_sessions(1)
        .build()
        .expect("a valid deployment")
}

/// A session on a deployment identical to [`service`]'s.
pub fn session<V, E>(graph: &PropertyGraph<V, E>, partitioning: Partitioning) -> Session<'_, V, E>
where
    V: Clone + PartialEq + Send + Sync,
    E: Clone + Send + Sync,
{
    SessionBuilder::new(graph)
        .partitioned_by(partitioning)
        .profile(RuntimeProfile::powergraph())
        .network(NetworkModel::datacenter())
        .devices(device_specs())
        .config(MiddlewareConfig::default())
        .dataset("rmat12")
        .max_iterations(MAX_ITERATIONS)
        .build()
        .expect("a valid deployment")
}

/// An accelerated run put together from the public parts a session uses:
/// a built cluster, live daemons kept across runs, pooled triplet arenas.
/// Backends and the compute phase are the timed ones.
pub struct Assembled<V, E> {
    cluster: Cluster<V, E>,
    daemons: Vec<Vec<Daemon>>,
    buffers: Vec<Arc<TripletBuffer<V, E>>>,
    tracer: Arc<Tracer>,
}

impl<V, E> Assembled<V, E>
where
    V: Clone + PartialEq + Send + Sync,
    E: Clone + Send + Sync,
{
    /// Deploys around a built cluster.
    pub fn new(cluster: Cluster<V, E>, tracer: Arc<Tracer>) -> Self {
        let daemons = device_specs()
            .iter()
            .enumerate()
            .map(|(node, specs)| node_daemons(node, specs, &tracer))
            .collect();
        let buffers = (0..NODES).map(|_| Arc::new(TripletBuffer::new())).collect();
        Self {
            cluster,
            daemons,
            buffers,
            tracer,
        }
    }

    /// One accelerated run of `algorithm`, as `Session::run` performs it.
    pub fn run<A>(
        &mut self,
        algorithm: &A,
    ) -> Result<(RunReport, Vec<AgentStats>, Vec<V>), RuntimeError>
    where
        A: GraphAlgorithm<V, E>,
    {
        self.cluster.reset_for(algorithm);
        let config = MiddlewareConfig::default();
        let profile = RuntimeProfile::powergraph();
        let policy = if config.skipping {
            SyncPolicy::SkipWhenLocal
        } else {
            SyncPolicy::AlwaysSync
        };
        let daemons = std::mem::take(&mut self.daemons);
        let buffers = std::mem::take(&mut self.buffers);
        let cluster = &mut self.cluster;
        let tracer = &*self.tracer;
        let (report, stats, daemons, buffers) = std::thread::scope(|scope| {
            let mut agents: Vec<ThreadedAgent<'_, '_, V, E, A::Msg>> = daemons
                .into_iter()
                .zip(buffers)
                .enumerate()
                .map(|(id, (node_daemons, buffer))| {
                    let mut agent = ThreadedAgent::spawn(
                        scope,
                        id,
                        node_daemons,
                        profile,
                        config,
                        cluster.node(id).num_vertices(),
                    );
                    agent.install_triplet_buffer(buffer);
                    agent
                })
                .collect();
            let setup = agents
                .iter_mut()
                .map(ThreadedAgent::connect)
                .fold(SimDuration::ZERO, SimDuration::max);
            let start = Instant::now();
            let report = cluster.run_phased(
                algorithm,
                "rmat12",
                "assembled",
                MAX_ITERATIONS,
                policy,
                setup,
                &mut TimedNodes {
                    agents: &mut agents,
                    algorithm,
                    tracer,
                },
            );
            tracer.record(SpanKind::RunPhased, 0, 0, 0, start);
            let stats: Vec<AgentStats> = agents.iter().map(ThreadedAgent::stats).collect();
            let (daemons, buffers): (Vec<_>, Vec<_>) = agents
                .into_iter()
                .map(|mut agent| {
                    let buffer = agent.take_triplet_buffer();
                    (agent.join(), buffer)
                })
                .unzip();
            (report, stats, daemons, buffers)
        });
        self.daemons = daemons;
        self.buffers = buffers;
        let report = report?;
        Ok((report, stats, self.cluster.collect_values()))
    }

    /// One native run of `algorithm` on the same cluster, as
    /// `Session::run_native` performs it, traced per superstep.
    pub fn run_native<A>(&mut self, algorithm: &A) -> (RunReport, Vec<V>)
    where
        A: GraphAlgorithm<V, E>,
    {
        self.cluster.reset_for(algorithm);
        let profile = RuntimeProfile::powergraph();
        let compute = |node: &mut NodeState<V, E>, iteration: usize| {
            native_node_compute(node, algorithm, &profile, iteration)
        };
        let mut phase = TimedNative {
            inner: ParallelNodes(compute),
            tracer: &self.tracer,
        };
        let report = match self.cluster.run_phased(
            algorithm,
            "rmat12",
            "native",
            MAX_ITERATIONS,
            SyncPolicy::AlwaysSync,
            SimDuration::ZERO,
            &mut phase,
        ) {
            Ok(report) => report,
            Err(never) => match never {},
        };
        (report, self.cluster.collect_values())
    }
}
