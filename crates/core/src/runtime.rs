//! The threaded daemon–agent runtime.
//!
//! The paper's daemons "work as independent processes" (§IV-C); this module
//! gives the reproduction real concurrency instead of a single-threaded
//! simulation of it:
//!
//! * [`DaemonHandle`] runs one [`Daemon`] on its own OS worker thread for the
//!   whole lifetime of a run (runtime isolation: the device context is
//!   created once and stays alive across iterations).  Work is submitted as
//!   jobs over the `Send + Sync` queue of `gxplug-ipc`; [`DaemonHandle::join`]
//!   recovers the daemon — or the panic payload if a kernel panicked.
//! * [`ThreadedAgent`] is the threaded front-end of the agent: it plans an
//!   iteration exactly like the serial [`Agent`](crate::Agent) (same
//!   download/cache/merge/upload/timing code via `AgentCore`), but dispatches
//!   every daemon's capacity share as a job and only then collects the
//!   results — so all daemons of a node genuinely compute concurrently, the
//!   overlap the §III pipeline shuffle is designed around.
//! * [`ThreadedNodes`] is the cluster-level
//!   [`ComputePhase`](gxplug_engine::cluster::ComputePhase): one scoped
//!   thread per distributed node per superstep, joined in node order at the
//!   BSP barrier.
//!
//! Zero-copy dispatch: a share job does not move an owned `Vec<Triplet>` to
//! the worker.  The iteration's triplets live in one reusable
//! [`TripletBuffer`](gxplug_graph::view::TripletBuffer) behind an `Arc`; the
//! job carries a cheap `Arc` handle plus an index range and reads its share
//! *in place*.  Generated messages travel back in the daemon's pooled reply
//! buffer, which the agent re-issues (cleared, never reallocated) on the next
//! iteration.  By collection time the `Arc` is uniquely held again, so the
//! next refill needs no new allocation either.
//!
//! Determinism: shares are split, dispatched and collected in daemon-index
//! order, and node outputs are joined in node order, so a threaded run
//! produces bit-identical results to a serial run (covered by the
//! `determinism` integration test).
//!
//! Worker threads are *scoped* (`std::thread::scope`), which is what lets
//! jobs borrow the algorithm and the iteration's data without `'static`
//! bounds or reference counting; the scope guarantees every worker is joined
//! before the borrowed data goes away.

use crate::agent::{dense_merge, split_by_capacity_into, AgentCore, AgentScratch, ShareRun};
use crate::config::MiddlewareConfig;
use crate::daemon::{execute_share, Daemon, DaemonInfo, DaemonStats};
use crate::metrics::AgentStats;
use gxplug_accel::{AccelError, SimDuration};
use gxplug_engine::cluster::{ComputePhase, NodeComputeOutput};
use gxplug_engine::node::NodeState;
use gxplug_engine::profile::RuntimeProfile;
use gxplug_engine::template::{AddressedMessage, GraphAlgorithm};
use gxplug_graph::types::PartitionId;
use gxplug_graph::view::TripletBuffer;
use gxplug_ipc::queue::{sync_queue, QueueSender};
use std::fmt;
use std::panic::resume_unwind;
use std::sync::{mpsc, Arc};
use std::thread::{Scope, ScopedJoinHandle};

/// Errors surfaced by the threaded runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The daemon's worker thread is no longer accepting work (it panicked or
    /// was shut down).
    DaemonStopped {
        /// Name of the unavailable daemon.
        name: String,
    },
    /// A device kernel rejected its block (e.g. the block exceeded device
    /// memory).  The error aborts the run with a typed failure instead of
    /// panicking the process.
    Kernel {
        /// Name of the daemon whose device rejected the block.
        daemon: String,
        /// The device-level error.
        error: AccelError,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::DaemonStopped { name } => {
                write!(f, "daemon '{name}' has stopped and no longer accepts work")
            }
            RuntimeError::Kernel { daemon, error } => {
                write!(f, "daemon '{daemon}' kernel failed: {error}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A unit of work executed on a daemon's worker thread.
pub type DaemonJob<'env> = Box<dyn FnOnce(&mut Daemon) + Send + 'env>;

/// A [`Daemon`] running on its own OS worker thread.
///
/// The worker owns the daemon for the duration of the enclosing
/// [`std::thread::scope`]; the handle keeps a [`DaemonInfo`] snapshot so
/// agents can plan (capacity split, block sizing, timing) without crossing
/// the thread boundary.  Lifecycle:
///
/// 1. [`DaemonHandle::spawn`] moves the daemon onto a new worker thread;
/// 2. [`DaemonHandle::submit`] enqueues fire-and-forget jobs,
///    [`DaemonHandle::call`] runs a job and blocks for its result;
/// 3. [`DaemonHandle::join`] closes the job queue, joins the worker and
///    returns the daemon (or the panic payload of a job that panicked).
///
/// Panic safety: a panicking job unwinds its worker thread, which drops the
/// job queue receiver.  Pending [`DaemonHandle::call`]s then observe the
/// disconnect and return [`RuntimeError::DaemonStopped`] instead of hanging,
/// and [`DaemonHandle::join`] yields `Err(payload)` so the panic can be
/// propagated with [`std::panic::resume_unwind`].
#[derive(Debug)]
pub struct DaemonHandle<'scope, 'env> {
    info: DaemonInfo,
    jobs: QueueSender<DaemonJob<'env>>,
    worker: ScopedJoinHandle<'scope, Daemon>,
}

impl<'scope, 'env> DaemonHandle<'scope, 'env> {
    /// Moves `daemon` onto a new worker thread spawned on `scope`.
    pub fn spawn(scope: &'scope Scope<'scope, 'env>, daemon: Daemon) -> Self {
        let info = daemon.info();
        let (jobs, job_rx) = sync_queue::<DaemonJob<'env>>();
        let worker = scope.spawn(move || {
            let mut daemon = daemon;
            // The loop ends when every sender is dropped (normal shutdown) —
            // or by unwinding out of a panicking job, in which case `job_rx`
            // is dropped mid-loop and waiting callers observe the disconnect.
            while let Ok(job) = job_rx.recv() {
                job(&mut daemon);
            }
            daemon
        });
        Self { info, jobs, worker }
    }

    /// The planning metadata snapshot of the daemon.
    pub fn info(&self) -> &DaemonInfo {
        &self.info
    }

    /// Enqueues a job without waiting for it.
    pub fn submit(&self, job: impl FnOnce(&mut Daemon) + Send + 'env) -> Result<(), RuntimeError> {
        self.jobs
            .send(Box::new(job))
            .map_err(|_| RuntimeError::DaemonStopped {
                name: self.info.name().to_string(),
            })
    }

    /// Runs `f` on the daemon thread and blocks until its result arrives.
    pub fn call<R, F>(&self, f: F) -> Result<R, RuntimeError>
    where
        R: Send + 'env,
        F: FnOnce(&mut Daemon) -> R + Send + 'env,
    {
        let (reply_tx, reply_rx) = mpsc::channel::<R>();
        self.submit(move |daemon| {
            let _ = reply_tx.send(f(daemon));
        })?;
        reply_rx.recv().map_err(|_| RuntimeError::DaemonStopped {
            name: self.info.name().to_string(),
        })
    }

    /// Cumulative statistics of the daemon (a blocking round-trip).
    pub fn stats(&self) -> Result<DaemonStats, RuntimeError> {
        self.call(|daemon| daemon.stats())
    }

    /// Closes the job queue and joins the worker, returning the daemon, or
    /// the panic payload of the job that killed the worker.
    pub fn join(self) -> std::thread::Result<Daemon> {
        let DaemonHandle { jobs, worker, .. } = self;
        drop(jobs);
        worker.join()
    }
}

/// What a share job sends back: the daemon's pooled message buffer (always
/// returned, so its capacity survives failed iterations) plus the number of
/// blocks launched or the error that aborted the share.
type ShareReply<M> = (Vec<AddressedMessage<M>>, Result<usize, RuntimeError>);

/// The reusable per-daemon reply channel pair of a [`ThreadedAgent`].
type ReplyChannel<M> = (mpsc::Sender<ShareReply<M>>, mpsc::Receiver<ShareReply<M>>);

/// Guarantees a share job *always* replies, even if it unwinds: the reply
/// channels are long-lived (the agent keeps a sender for the next
/// iteration), so a dead worker would otherwise leave the agent blocked on
/// `recv` forever.  A panicking job drops the guard, which reports
/// [`RuntimeError::DaemonStopped`]; the agent turns that into the documented
/// "daemon died while computing its share" panic, and the worker's own panic
/// payload resurfaces at join.
struct ReplyGuard<M> {
    tx: Option<mpsc::Sender<ShareReply<M>>>,
    daemon: String,
}

impl<M> ReplyGuard<M> {
    fn new(tx: mpsc::Sender<ShareReply<M>>, daemon: String) -> Self {
        Self {
            tx: Some(tx),
            daemon,
        }
    }

    fn reply(mut self, reply: ShareReply<M>) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(reply);
        }
    }
}

impl<M> Drop for ReplyGuard<M> {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send((
                Vec::new(),
                Err(RuntimeError::DaemonStopped {
                    name: std::mem::take(&mut self.daemon),
                }),
            ));
        }
    }
}

/// The threaded front-end of an agent: same planning and bookkeeping as the
/// serial [`Agent`](crate::Agent), with every daemon behind a
/// [`DaemonHandle`] so capacity shares execute concurrently.
///
/// Like the serial agent it is generic over the message type `M` of the
/// algorithm it serves, which lets it pool the per-daemon reply buffers and
/// reply channels across iterations.
#[derive(Debug)]
pub struct ThreadedAgent<'scope, 'env, V, E, M> {
    core: AgentCore<V>,
    handles: Vec<DaemonHandle<'scope, 'env>>,
    /// Capacity factors of the daemons, captured once (they are static).
    capacities: Vec<f64>,
    scratch: AgentScratch<V, E, M>,
    /// One long-lived reply channel per daemon, reused every iteration.
    replies: Vec<ReplyChannel<M>>,
}

impl<'scope, 'env, V, E, M> ThreadedAgent<'scope, 'env, V, E, M>
where
    V: Clone + PartialEq + Send + Sync + 'env,
    E: Clone + Send + Sync + 'env,
    M: Clone + Send + Sync + 'env,
{
    /// Creates the agent for distributed node `node_id` and spawns one worker
    /// thread per daemon on `scope`.
    pub fn spawn(
        scope: &'scope Scope<'scope, 'env>,
        node_id: PartitionId,
        daemons: Vec<Daemon>,
        profile: RuntimeProfile,
        config: MiddlewareConfig,
        local_vertices: usize,
    ) -> Self {
        assert!(!daemons.is_empty(), "an agent needs at least one daemon");
        let handles: Vec<DaemonHandle<'scope, 'env>> = daemons
            .into_iter()
            .map(|daemon| DaemonHandle::spawn(scope, daemon))
            .collect();
        let capacities: Vec<f64> = handles
            .iter()
            .map(|handle| handle.info().capacity_factor())
            .collect();
        let scratch = AgentScratch::new(handles.len());
        let replies = (0..handles.len()).map(|_| mpsc::channel()).collect();
        Self {
            core: AgentCore::new(node_id, profile, config, local_vertices),
            handles,
            capacities,
            scratch,
            replies,
        }
    }

    /// The distributed node this agent serves.
    pub fn node_id(&self) -> PartitionId {
        self.core.node_id()
    }

    /// Number of attached daemons.
    pub fn num_daemons(&self) -> usize {
        self.handles.len()
    }

    /// Planning metadata of the attached daemons.
    pub fn daemon_infos(&self) -> Vec<&DaemonInfo> {
        self.handles.iter().map(DaemonHandle::info).collect()
    }

    /// Total computation capacity factor of the attached daemons.
    pub fn capacity_factor(&self) -> f64 {
        self.capacities.iter().sum()
    }

    /// The middleware configuration in force.
    pub fn config(&self) -> &MiddlewareConfig {
        self.core.config()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> AgentStats {
        self.core.stats()
    }

    /// Installs a pooled triplet arena (e.g. the session's, so a reused
    /// session keeps one warm buffer per node across runs).
    pub fn install_triplet_buffer(&mut self, buffer: Arc<TripletBuffer<V, E>>) {
        self.scratch.install_triplets(buffer);
    }

    /// Takes the triplet arena back (returning a fresh empty one to the
    /// agent), so the session can pool it for the next run.
    pub fn take_triplet_buffer(&mut self) -> Arc<TripletBuffer<V, E>> {
        self.scratch
            .install_triplets(Arc::new(TripletBuffer::new()))
    }

    /// `connect()`: initialises every daemon's device context, concurrently
    /// across the worker threads, once per run (runtime isolation).  Returns
    /// the summed initialisation time.
    pub fn connect(&mut self) -> SimDuration {
        let replies: Vec<_> = self
            .handles
            .iter()
            .map(|handle| {
                let (tx, rx) = mpsc::channel::<SimDuration>();
                handle
                    .submit(move |daemon| {
                        let _ = tx.send(daemon.start());
                    })
                    .expect("daemon worker alive during connect");
                rx
            })
            .collect();
        let mut total = SimDuration::ZERO;
        for (handle, reply) in self.handles.iter().zip(replies) {
            total += reply.recv().unwrap_or_else(|_| {
                panic!("daemon '{}' died during connect", handle.info().name())
            });
        }
        self.core.record_init_time(total);
        total
    }

    /// `disconnect()`: shuts every daemon down (device contexts torn down on
    /// the worker threads; the workers stay alive until [`Self::join`]).
    pub fn disconnect(&mut self) {
        for handle in &self.handles {
            let _ = handle.call(|daemon| daemon.shutdown());
        }
    }

    /// Executes one middleware iteration for this agent's node: plans the
    /// download and the capacity shares, dispatches every share — a borrowed
    /// view into the iteration's triplet buffer — to its daemon's worker
    /// thread, then collects the results in daemon order and finishes the
    /// merge/upload/timing phases.
    ///
    /// # Errors
    /// [`RuntimeError::Kernel`] if a device rejects a block, or
    /// [`RuntimeError::DaemonStopped`] if a worker is gone at dispatch time.
    /// Every dispatched share is still collected before the error is
    /// returned, so the pooled buffers stay consistent.
    ///
    /// # Panics
    /// Panics if a daemon worker dies (panics) while computing its share (the
    /// panic then propagates to the run through the cluster driver's join).
    pub fn process_iteration<A>(
        &mut self,
        node: &mut NodeState<V, E>,
        algorithm: &'env A,
        iteration: usize,
    ) -> Result<NodeComputeOutput<V, M>, RuntimeError>
    where
        A: GraphAlgorithm<V, E, Msg = M>,
    {
        let plan = match self.core.begin_iteration(node) {
            Some(plan) => plan,
            None => return Ok(NodeComputeOutput::idle()),
        };

        // ---- compute phase: dispatch every share, then collect -----------
        let buffer = Arc::get_mut(&mut self.scratch.triplets)
            .expect("no triplet share views outstanding between iterations");
        node.fill_triplets(self.core.active_edge_ids(), buffer);
        let d = self.scratch.triplets.len();
        split_by_capacity_into(d, &self.capacities, &mut self.scratch.shares);
        self.scratch.share_runs.clear();
        self.scratch.dispatched.clear();
        let mut dispatch_failure: Option<RuntimeError> = None;
        for (daemon_index, range) in self.scratch.shares.iter().enumerate() {
            if range.is_empty() {
                continue;
            }
            let handle = &self.handles[daemon_index];
            let coefficients = handle.info().coefficients(self.core.profile());
            let share_len = range.len();
            let block_size = self.core.block_size_for(
                &coefficients,
                share_len,
                handle.info().memory_capacity_items(),
            );
            let view = Arc::clone(&self.scratch.triplets);
            let range = range.clone();
            let mut out = std::mem::take(&mut self.scratch.msg_bufs[daemon_index]);
            let reply_tx = self.replies[daemon_index].0.clone();
            let submitted = handle.submit(move |daemon| {
                let guard = ReplyGuard::new(reply_tx, daemon.name().to_string());
                out.clear();
                let result = execute_share(
                    daemon,
                    algorithm,
                    view.share(range),
                    block_size,
                    iteration,
                    &mut out,
                );
                // Release the share view BEFORE replying: the agent treats
                // the reply as "this share is done" and may refill the
                // triplet arena for the next iteration immediately, which
                // requires the arena to be uniquely held again.
                drop(view);
                guard.reply((out, result));
            });
            match submitted {
                Ok(()) => {
                    self.scratch.dispatched.push(daemon_index);
                    self.scratch.share_runs.push(ShareRun {
                        coefficients,
                        share_len,
                        block_size,
                        blocks: 0,
                    });
                }
                Err(error) => {
                    // The worker is gone; stop dispatching, but still collect
                    // what is already in flight below.
                    dispatch_failure = Some(error);
                    break;
                }
            }
        }
        // Collect in daemon-index order (the dispatch order), which keeps the
        // raw message order — and therefore the merge — identical to the
        // serial agent's.  Every dispatched share is collected even when one
        // of them fails, so the buffer pool and the triplet arena come back.
        let mut first_error: Option<RuntimeError> = dispatch_failure;
        for slot in 0..self.scratch.dispatched.len() {
            let daemon_index = self.scratch.dispatched[slot];
            let died = || {
                panic!(
                    "daemon '{}' died while computing its share",
                    self.handles[daemon_index].info().name()
                )
            };
            match self.replies[daemon_index].1.recv() {
                Ok((out, result)) => {
                    // The pooled buffer always comes back, so its capacity
                    // survives even a failed iteration.
                    self.scratch.msg_bufs[daemon_index] = out;
                    match result {
                        Ok(blocks) => self.scratch.share_runs[slot].blocks = blocks,
                        // A DaemonStopped reply from inside a job is the
                        // ReplyGuard reporting that the job unwound.
                        Err(RuntimeError::DaemonStopped { .. }) => died(),
                        Err(error) => {
                            if first_error.is_none() {
                                first_error = Some(error);
                            }
                        }
                    }
                }
                Err(_) => died(),
            }
        }
        if let Some(error) = first_error {
            for buf in &mut self.scratch.msg_bufs {
                buf.clear();
            }
            return Err(error);
        }

        // ---- merge phase (MSGMerge, into pooled dense slots) ----------------
        let AgentScratch {
            msg_bufs,
            merge,
            overflow,
            ..
        } = &mut self.scratch;
        let raw = msg_bufs.iter_mut().flat_map(|buf| buf.drain(..));
        let merged = dense_merge(node, algorithm, raw, merge, overflow);
        Ok(self
            .core
            .finish_iteration(node, &plan, merged, &self.scratch.share_runs))
    }

    /// Joins every daemon worker, returning the daemons.  Re-raises the panic
    /// of any worker that died from a panicking job.
    pub fn join(self) -> Vec<Daemon> {
        self.handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(daemon) => daemon,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

/// Cluster-level compute phase running one scoped thread per distributed
/// node, each driving that node's [`ThreadedAgent`].
///
/// Outputs are joined in node order, so the global synchronisation sees the
/// same message order as with the serial driver.  A per-node error (e.g. a
/// rejected kernel block) aborts the superstep: every node is still joined,
/// then the first error in node order is reported.
pub struct ThreadedNodes<'agents, 'scope, 'env, V, E, A>
where
    A: GraphAlgorithm<V, E>,
{
    /// One threaded agent per node, in node order.
    pub agents: &'agents mut [ThreadedAgent<'scope, 'env, V, E, A::Msg>],
    /// The algorithm being executed.
    pub algorithm: &'env A,
}

impl<'agents, 'scope, 'env, V, E, A> ComputePhase<V, E, A::Msg>
    for ThreadedNodes<'agents, 'scope, 'env, V, E, A>
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
        assert_eq!(
            nodes.len(),
            self.agents.len(),
            "one threaded agent per node is required"
        );
        let algorithm = self.algorithm;
        std::thread::scope(|scope| {
            let handles: Vec<_> = nodes
                .iter_mut()
                .zip(self.agents.iter_mut())
                .map(|(node, agent)| {
                    scope.spawn(move || agent.process_iteration(node, algorithm, iteration))
                })
                .collect();
            // Join every node before reporting, so an error does not leave
            // stragglers computing into the next superstep.
            let results: Vec<Result<NodeComputeOutput<V, A::Msg>, RuntimeError>> = handles
                .into_iter()
                .map(|handle| match handle.join() {
                    Ok(result) => result,
                    Err(payload) => resume_unwind(payload),
                })
                .collect();
            results.into_iter().collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gxplug_accel::presets;
    use gxplug_ipc::key::KeyGenerator;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    fn daemon(index: usize) -> Daemon {
        let key = KeyGenerator::new(9).key_for(0, index);
        Daemon::new(
            format!("d{index}"),
            presets::cpu_xeon_20c(format!("c{index}")),
            key,
        )
    }

    #[test]
    fn spawn_submit_join_lifecycle() {
        let counter = AtomicUsize::new(0);
        let returned = thread::scope(|scope| {
            let handle = DaemonHandle::spawn(scope, daemon(0));
            assert_eq!(handle.info().name(), "d0");
            for _ in 0..10 {
                handle
                    .submit(|_daemon| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    })
                    .unwrap();
            }
            let started = handle.call(|daemon| daemon.start()).unwrap();
            assert!(started > SimDuration::ZERO);
            handle.join().expect("no job panicked")
        });
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert!(returned.is_started());
    }

    #[test]
    fn jobs_run_on_a_different_thread_and_borrow_locals() {
        let main_thread = thread::current().id();
        // Declared outside the scope, borrowed by jobs inside it — the scoped
        // runtime needs no 'static bounds.
        let data = [1u64, 2, 3];
        let mut observed = Vec::new();
        thread::scope(|scope| {
            let handle = DaemonHandle::spawn(scope, daemon(0));
            let worker_thread = handle.call(|_d| thread::current().id()).unwrap();
            assert_ne!(worker_thread, main_thread);
            let sum = handle.call(|_d| data.iter().sum::<u64>()).unwrap();
            observed.push(sum);
            handle.join().unwrap();
        });
        assert_eq!(observed, vec![6]);
    }

    #[test]
    fn panicking_job_surfaces_through_join_and_stops_the_worker() {
        thread::scope(|scope| {
            let handle = DaemonHandle::spawn(scope, daemon(0));
            handle
                .submit(|_daemon| panic!("kernel exploded"))
                .expect("worker was alive at submit time");
            // The worker dies; a blocking call must error, not hang.
            let mut saw_stop = false;
            for _ in 0..50 {
                match handle.call(|d| d.stats()) {
                    Err(RuntimeError::DaemonStopped { name }) => {
                        assert_eq!(name, "d0");
                        saw_stop = true;
                        break;
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                    Ok(_) => thread::sleep(Duration::from_millis(5)),
                }
            }
            assert!(saw_stop, "worker kept accepting work after a panic");
            let payload = handle.join().expect_err("join must surface the panic");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert_eq!(message, "kernel exploded");
        });
    }

    #[test]
    fn kernel_errors_propagate_across_the_worker_boundary() {
        use gxplug_engine::template::AddressedMessage;
        use gxplug_graph::types::{Triplet, VertexId};

        struct Echo;
        impl GraphAlgorithm<f64, f64> for Echo {
            type Msg = f64;
            fn init_vertex(&self, _v: VertexId, _d: usize) -> f64 {
                0.0
            }
            fn msg_gen(&self, t: &Triplet<f64, f64>, _i: usize) -> Vec<AddressedMessage<f64>> {
                vec![AddressedMessage::new(t.dst, t.src_attr)]
            }
            fn msg_merge(&self, a: f64, _b: f64) -> f64 {
                a
            }
            fn msg_apply(&self, _v: VertexId, _c: &f64, m: &f64, _i: usize) -> Option<f64> {
                Some(*m)
            }
            fn name(&self) -> &'static str {
                "echo"
            }
        }

        let key = KeyGenerator::new(9).key_for(1, 0);
        let gpu = Daemon::new("g0", presets::gpu_v100("g0"), key);
        thread::scope(|scope| {
            let handle = DaemonHandle::spawn(scope, gpu);
            let result = handle
                .call(|daemon| {
                    daemon.start();
                    let triplets = vec![
                        Triplet::new(0u32, 1u32, 0.0f64, 0.0f64, 1.0f64);
                        presets::GPU_MEMORY_ITEMS + 1
                    ];
                    let mut out = Vec::new();
                    execute_share(daemon, &Echo, &triplets, triplets.len(), 0, &mut out)
                })
                .expect("worker alive");
            // The device error crossed the thread boundary as a typed value,
            // not a panic: the worker is still serving jobs afterwards.
            match result {
                Err(RuntimeError::Kernel { daemon, error }) => {
                    assert_eq!(daemon, "g0");
                    assert!(matches!(error, AccelError::OutOfMemory { .. }));
                }
                other => panic!("expected a kernel error, got {other:?}"),
            }
            assert!(handle.stats().is_ok());
            handle.join().expect("worker survived the kernel error");
        });
    }

    #[test]
    fn panicking_kernel_job_panics_the_agent_instead_of_hanging() {
        use gxplug_engine::template::AddressedMessage;
        use gxplug_graph::edge_list::EdgeList;
        use gxplug_graph::graph::PropertyGraph;
        use gxplug_graph::partition::{HashEdgePartitioner, Partitioner};
        use gxplug_graph::types::{Triplet, VertexId};
        use std::panic::AssertUnwindSafe;

        struct Bomb;
        impl GraphAlgorithm<f64, f64> for Bomb {
            type Msg = f64;
            fn init_vertex(&self, _v: VertexId, _d: usize) -> f64 {
                0.0
            }
            fn msg_gen(&self, _t: &Triplet<f64, f64>, _i: usize) -> Vec<AddressedMessage<f64>> {
                panic!("user kernel exploded")
            }
            fn msg_merge(&self, a: f64, _b: f64) -> f64 {
                a
            }
            fn msg_apply(&self, _v: VertexId, _c: &f64, m: &f64, _i: usize) -> Option<f64> {
                Some(*m)
            }
            fn name(&self) -> &'static str {
                "bomb"
            }
        }
        static BOMB: Bomb = Bomb;

        let list: EdgeList<f64> = [(0u32, 1u32, 1.0f64), (1, 2, 1.0)].into_iter().collect();
        let graph = PropertyGraph::from_edge_list(list, 0.0).unwrap();
        let partitioning = HashEdgePartitioner::new(0).partition(&graph, 1).unwrap();
        // The reply channels are long-lived, so without the ReplyGuard a
        // worker that unwinds mid-share would leave the agent blocked on
        // recv forever; this must surface as a panic instead.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            thread::scope(|scope| {
                let mut agent: ThreadedAgent<'_, '_, f64, f64, f64> = ThreadedAgent::spawn(
                    scope,
                    0,
                    vec![daemon(0)],
                    RuntimeProfile::powergraph(),
                    MiddlewareConfig::default(),
                    8,
                );
                agent.connect();
                let mut node = NodeState::build(0, &graph, &partitioning, &BOMB);
                let _ = agent.process_iteration(&mut node, &BOMB, 0);
            });
        }));
        assert!(result.is_err(), "the dead worker must panic the run");
    }

    #[test]
    fn kernel_errors_render_their_daemon_and_cause() {
        let error = RuntimeError::Kernel {
            daemon: "node0-daemon1".to_string(),
            error: AccelError::OutOfMemory {
                requested: 10,
                capacity: 5,
                device: "g".to_string(),
            },
        };
        let rendered = error.to_string();
        assert!(rendered.contains("node0-daemon1"));
        assert!(rendered.contains("out of device memory"));
    }

    #[test]
    fn threaded_agent_requires_a_daemon() {
        let result = std::panic::catch_unwind(|| {
            thread::scope(|scope| {
                let agent: ThreadedAgent<'_, '_, f64, f64, f64> = ThreadedAgent::spawn(
                    scope,
                    0,
                    Vec::new(),
                    RuntimeProfile::powergraph(),
                    MiddlewareConfig::default(),
                    8,
                );
                drop(agent);
            });
        });
        assert!(result.is_err());
    }
}
