//! `sssp_socket`: open-loop, seeded Poisson arrivals over one WebSocket
//! connection (`/v1/stream`: a writer thread and a reader thread) to the
//! stock serving deployment (`standard_service` + `standard_registry`).
//! About 70% of requests reuse one of 8 hot source lists warmed before
//! timing (result-cache hits); the rest are fresh random sources (misses).
//! Each request is timed from its due time to its pushed `Result` frame.

use crate::report::{all_close, Report};
use crate::stats::{ms, percentile, poisson_schedule, us, Rng, Summary};
use gxplug_algos::reference::multi_source_sssp_reference;
use gxplug_core::{CachePolicy, JobOptions};
use gxplug_graph::PropertyGraph;
use gxplug_ipc::wire::{self, Frame, JobResultFrame, JobSpec, WireJobOptions};
use gxplug_server::{
    standard_registry, standard_service, ws, ServeReach, ServeVertex, Server, ServerConfig, Tenant,
    TenantQuota, TenantRegistry,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Arrival rate, requests per second.
const RATE: f64 = 20.0;
/// Share of requests drawn from the hot set.
const HOT_SHARE: f64 = 0.7;
/// Hot source lists, warmed before timing.
const HOT_LISTS: usize = 8;
/// Sources per request.
const SOURCES: usize = 4;
/// Worker sessions and queue depth of the stock deployment.
const WORKERS: usize = 2;
const QUEUE_DEPTH: usize = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// How long results may keep arriving after the window closes.
const DRAIN: Duration = Duration::from_secs(60);
const TOKEN: &str = "bench-token";

/// One request of the open loop.
#[derive(Debug, Clone)]
pub struct Request {
    /// Its source list (the result-cache key).
    pub sources: Vec<u32>,
    /// When it was due, from the start of the timed window.
    pub due: Duration,
}

/// The seeded request stream: hot set and arrivals both come from `seed`.
pub fn requests(seed: u64, num_vertices: u32, window: Duration) -> (Vec<Vec<u32>>, Vec<Request>) {
    let mut rng = Rng::new(seed, 1);
    let draw = |rng: &mut Rng| -> Vec<u32> {
        (0..SOURCES)
            .map(|_| rng.below(num_vertices as u64) as u32)
            .collect()
    };
    let hot: Vec<Vec<u32>> = (0..HOT_LISTS).map(|_| draw(&mut rng)).collect();
    let schedule = poisson_schedule(&mut Rng::new(seed, 2), RATE, window);
    let requests = schedule
        .into_iter()
        .map(|due| {
            let sources = if rng.unit() < HOT_SHARE {
                hot[rng.below(HOT_LISTS as u64) as usize].clone()
            } else {
                draw(&mut rng)
            };
            Request { sources, due }
        })
        .collect();
    (hot, requests)
}

/// Hit/miss classification: a request is a hit when its source list is in
/// the hot set, whose results were cached before the timed window, so the
/// service resolves it at submit with no run.
pub fn classify(hot: &[Vec<u32>], requests: &[Request]) -> Vec<bool> {
    requests.iter().map(|r| hot.contains(&r.sources)).collect()
}

/// The client side of `/v1/stream`.
struct WsClient {
    reader: io::BufReader<TcpStream>,
    writer: TcpStream,
}

impl WsClient {
    fn connect(addr: std::net::SocketAddr) -> io::Result<Self> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let key = "cGVyZmJlbmNoLWNsaWVudA==";
        write!(
            writer,
            "GET /v1/stream HTTP/1.1\r\nHost: localhost\r\nAuthorization: Bearer {TOKEN}\r\n\
             Upgrade: websocket\r\nConnection: Upgrade\r\n\
             Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
        )?;
        let mut reader = io::BufReader::new(writer.try_clone()?);
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            reader.read_exact(&mut byte)?;
            head.push(byte[0]);
        }
        if !head.starts_with(b"HTTP/1.1 101") {
            return Err(io::Error::other(
                String::from_utf8_lossy(&head).into_owned(),
            ));
        }
        Ok(Self { reader, writer })
    }
}

fn submit(writer: &mut TcpStream, sources: &[u32]) -> io::Result<()> {
    let frame = Frame::Submit {
        spec: JobSpec::new("sssp").with_ids("sources", sources.to_vec()),
        options: WireJobOptions::default(),
    };
    writer.write_all(&ws::client_frame(0x2, &wire::encode(&frame), [7, 1, 8, 2]))
}

/// Reads one server frame: `(opcode, payload)`.
fn read_frame(reader: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut head = [0u8; 2];
    reader.read_exact(&mut head)?;
    let mut len = (head[1] & 0x7F) as u64;
    if len == 126 {
        let mut ext = [0u8; 2];
        reader.read_exact(&mut ext)?;
        len = u16::from_be_bytes(ext) as u64;
    } else if len == 127 {
        let mut ext = [0u8; 8];
        reader.read_exact(&mut ext)?;
        len = u64::from_be_bytes(ext);
    }
    if len > 64 << 20 {
        return Err(io::Error::other("oversized server frame"));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok((head[0] & 0x0F, payload))
}

/// What came back for one submission, in submission order.
#[derive(Debug, Default)]
struct Reply {
    done: Option<Instant>,
    result: Option<JobResultFrame>,
    /// The `Result` frame as received.
    payload: Vec<u8>,
    error: Option<String>,
}

/// Reads frames until `count` submissions have a terminal frame, the
/// connection fails or `deadline` passes (server heartbeats keep the socket
/// alive, so its read timeout alone cannot end a stalled wait).  The k-th
/// `Accepted` belongs to the k-th submission: the server answers one
/// connection's frames in order.
fn collect(reader: &mut impl Read, count: usize, deadline: Instant) -> Vec<Reply> {
    let mut replies: Vec<Reply> = (0..count).map(|_| Reply::default()).collect();
    let mut by_job: HashMap<u64, usize> = HashMap::new();
    let mut accepted = 0;
    let mut finished = 0;
    while finished < count {
        let frame = if Instant::now() < deadline {
            read_frame(reader)
        } else {
            Err(io::Error::other("no result before the deadline"))
        };
        let (opcode, payload) = match frame {
            Ok(frame) => frame,
            Err(e) => {
                for reply in replies.iter_mut().filter(|r| r.done.is_none()) {
                    reply.error = Some(format!("connection: {e}"));
                }
                break;
            }
        };
        let at = Instant::now();
        if opcode != 0x2 {
            continue;
        }
        let index = match wire::decode(&payload) {
            Ok((Frame::Accepted { job }, _)) => {
                by_job.insert(job, accepted);
                accepted += 1;
                continue;
            }
            Ok((Frame::Result(result), _)) => {
                let index = by_job.get(&result.job).copied();
                if let Some(i) = index {
                    replies[i].result = Some(result);
                }
                index
            }
            Ok((Frame::Error { job, error }, _)) => {
                let index = match job {
                    Some(job) => by_job.get(&job).copied(),
                    // A refused submission has no job id; it is the next one.
                    None => {
                        accepted += 1;
                        Some(accepted - 1)
                    }
                };
                if let Some(i) = index.filter(|&i| i < count) {
                    replies[i].error = Some(error.to_string());
                }
                index
            }
            Ok(_) => continue,
            Err(e) => {
                eprintln!("undecodable frame: {e}");
                continue;
            }
        };
        if let Some(i) = index.filter(|&i| i < count && replies[i].done.is_none()) {
            replies[i].done = Some(at);
            if replies[i].result.is_some() {
                replies[i].payload = payload;
            }
            finished += 1;
        }
    }
    replies
}

/// A booted server with a connected stream client and a warm hot set.
struct Deployment {
    server: Server<ServeVertex, f64>,
    client: WsClient,
}

fn boot(
    hot: &[Vec<u32>],
    report: &mut Report,
    check: &mut Checker,
) -> io::Result<(Deployment, f64)> {
    // `standard_service` generates the graph itself.  Generation is input,
    // not set-up, so the same generation timed on its own is taken out.
    let start = Instant::now();
    drop(std::hint::black_box(crate::deploy::rmat_graph(
        ServeVertex::default(),
    )));
    let generation = start.elapsed();
    let start = Instant::now();
    let service = standard_service(
        crate::deploy::SCALE,
        crate::deploy::GRAPH_SEED,
        WORKERS,
        QUEUE_DEPTH,
    );
    let tenants = TenantRegistry::new().register(
        TOKEN,
        Tenant::new("bench").with_quota(TenantQuota {
            max_in_flight: 64,
            queue_share: 1.0,
        }),
    );
    let server = Server::serve(
        service,
        standard_registry(),
        tenants,
        ServerConfig {
            queue_depth: QUEUE_DEPTH,
            ..ServerConfig::default()
        },
    )?;
    let client = WsClient::connect(server.local_addr())?;
    // The hot set is warmed in-process: over the stream each warm-up result
    // would wait for the server's next 100 ms poll, which set-up time
    // should not be quantised by.
    let tickets: Vec<_> = hot
        .iter()
        .map(|sources| {
            server.service().submit(ServeReach {
                sources: sources.clone(),
            })
        })
        .collect();
    let outcomes: Vec<_> = tickets
        .into_iter()
        .map(|ticket| ticket.and_then(|t| t.wait()))
        .collect();
    let setup = start.elapsed().saturating_sub(generation).as_secs_f64();
    for (sources, outcome) in hot.iter().zip(&outcomes) {
        if !matches!(outcome, Ok(o) if check.values_ok(sources, &dists(&o.values))) {
            report.problem(format!("warm-up sssp {sources:?} wrong or failed"));
        }
    }
    Ok((Deployment { server, client }, setup))
}

impl Deployment {
    fn shutdown(mut self) {
        let _ = self.client.writer.write_all(&ws::client_frame(
            0x8,
            &1000u16.to_be_bytes(),
            [1, 2, 3, 4],
        ));
        let _ = self.client.writer.shutdown(std::net::Shutdown::Both);
        self.server.shutdown();
    }
}

/// Checks results against `multi_source_sssp_reference` (nearest source).
struct Checker {
    graph: PropertyGraph<f64, f64>,
    references: HashMap<Vec<u32>, Vec<f64>>,
}

impl Checker {
    fn new() -> Self {
        Self {
            graph: crate::deploy::rmat_graph(0.0),
            references: HashMap::new(),
        }
    }

    fn want(&mut self, sources: &[u32]) -> &[f64] {
        let graph = &self.graph;
        self.references.entry(sources.to_vec()).or_insert_with(|| {
            multi_source_sssp_reference(graph, sources)
                .into_iter()
                .map(|row| row.into_iter().fold(f64::INFINITY, f64::min))
                .collect()
        })
    }

    fn values_ok(&mut self, sources: &[u32], values: &[f64]) -> bool {
        all_close(values.iter().copied(), self.want(sources))
    }

    /// Counts one reply as an operation: right when it carries the
    /// reference values.
    fn reply(&mut self, sources: &[u32], reply: &Reply, report: &mut Report) {
        let ok = match (&reply.result, &reply.error) {
            (Some(result), None) => self.values_ok(sources, &result.values),
            _ => false,
        };
        report.operation(ok, || {
            let error = reply.error.as_deref().unwrap_or("wrong or missing result");
            format!("sssp {sources:?}: {error}")
        });
    }
}

/// The measured traffic of one timed window.
pub struct Traffic {
    /// Hit latencies from the due time, ms.
    pub hits: Vec<f64>,
    /// Miss latencies from the due time, ms.
    pub misses: Vec<f64>,
    /// Sources of the timed misses.
    pub miss_sources: Vec<Vec<u32>>,
    /// Supersteps the misses ran.
    pub miss_supersteps: Vec<f64>,
    /// How late each request was sent, ms.
    pub lag: Vec<f64>,
    /// Result frames as received (payload bytes), for the wire layer.
    pub result_frames: Vec<Vec<u8>>,
    /// The service's cache-hit count over the window.
    pub service_hits: u64,
    /// Set-up times, s.
    pub setups: Vec<f64>,
}

/// Boots the deployment `SETUPS` times, then drives the open loop for
/// `window`.  `after` gets the live server once the window closes (the
/// traced sweep measures the in-process layers on it).
fn drive(
    seed: u64,
    window: Duration,
    report: &mut Report,
    after: impl FnOnce(&Server<ServeVertex, f64>, &Traffic, &mut Report),
) -> Option<Traffic> {
    let mut check = Checker::new();
    let num_vertices = check.graph.num_vertices() as u32;
    let (hot, requests) = requests(seed, num_vertices, window);
    let mut setups = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUPS {
        if let Some(old) = deployment.take() {
            Deployment::shutdown(old);
        }
        match boot(&hot, report, &mut check) {
            Ok((d, setup)) => {
                setups.push(setup);
                deployment = Some(d);
            }
            Err(e) => {
                report.problem(format!("server boot: {e}"));
                return None;
            }
        }
    }
    let Deployment { server, client } = deployment.expect("booted");
    let hits_before = server.service().stats().cache_hits;
    let WsClient {
        mut reader,
        mut writer,
    } = client;

    let start = Instant::now();
    let (sent, writer, replies) = std::thread::scope(|scope| {
        let requests = &requests;
        let writer_thread = scope.spawn(move || {
            let mut sent = Vec::with_capacity(requests.len());
            for request in requests {
                let due = start + request.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let at = Instant::now();
                if submit(&mut writer, &request.sources).is_err() {
                    break;
                }
                sent.push(at);
            }
            (sent, writer)
        });
        let replies = collect(&mut reader, requests.len(), start + window + DRAIN);
        let (sent, writer) = writer_thread.join().expect("writer thread");
        (sent, writer, replies)
    });
    let service_hits = server.service().stats().cache_hits - hits_before;

    let is_hit = classify(&hot, &requests);

    let mut traffic = Traffic {
        hits: Vec::new(),
        misses: Vec::new(),
        miss_sources: Vec::new(),
        miss_supersteps: Vec::new(),
        lag: Vec::new(),
        result_frames: Vec::new(),
        service_hits,
        setups,
    };
    for (i, (request, reply)) in requests.iter().zip(&replies).enumerate() {
        check.reply(&request.sources, reply, report);
        if let Some(at) = sent.get(i) {
            traffic
                .lag
                .push(ms(at.saturating_duration_since(start + request.due)));
        }
        let (Some(done), Some(result)) = (reply.done, &reply.result) else {
            continue;
        };
        let latency = ms(done.saturating_duration_since(start + request.due));
        if is_hit[i] {
            traffic.hits.push(latency);
        } else {
            traffic.misses.push(latency);
            traffic.miss_sources.push(request.sources.clone());
            traffic.miss_supersteps.push(result.iterations as f64);
        }
        if traffic.result_frames.len() < 200 {
            traffic.result_frames.push(reply.payload.clone());
        }
    }
    if service_hits != traffic.hits.len() as u64 {
        report.problem(format!(
            "service counted {service_hits} cache hits, the benchmark classified {}",
            traffic.hits.len()
        ));
    }
    after(&server, &traffic, report);
    Deployment::shutdown(Deployment {
        server,
        client: WsClient { reader, writer },
    });
    Some(traffic)
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: Duration, report: &mut Report) {
    let Some(traffic) = drive(seed, seconds, report, |_, _, _| {}) else {
        return;
    };
    let hits = Summary::of(&traffic.hits);
    let misses = Summary::of(&traffic.misses);
    report.latency_line("miss (p50_ms/p90_ms)", misses);
    report.latency_line("hit (side_p50_ms)", hits);
    report.line(format!(
        "loadgen: {:.1} req/s offered, {} hits, {} misses, lag p90 {:.3} ms",
        RATE,
        traffic.hits.len(),
        traffic.misses.len(),
        percentile(&traffic.lag, 0.9).unwrap_or(f64::NAN)
    ));
    let (Some(hits), Some(misses)) = (hits, misses) else {
        report.problem("no hit or no miss completed".into());
        return;
    };
    report.metric(
        "setup_s",
        "s",
        percentile(&traffic.setups, 0.5).unwrap_or(f64::NAN),
    );
    report.metric("p50_ms", "ms", misses.p50);
    report.metric("p90_ms", "ms", misses.p90);
    report.metric("side_p50_ms", "ms", hits.p50);
}

/// The traced probe: the same open loop, then the in-process layers under
/// it measured on the live deployment — a cached key submitted directly,
/// the window's misses rerun with the cache bypassed, and the wire codec
/// on the received `Result` frames.
pub fn trace(seed: u64, window: Duration, report: &mut Report) {
    let mut hit_us = Vec::new();
    let mut miss_run_ms = Vec::new();
    let mut queue_wait_ms = f64::NAN;
    let traffic = drive(seed, window, report, |server, traffic, report| {
        let service = server.service();
        // The oldest waits belong to the hot-set warm-up, queued all at once.
        let stats = service.stats();
        let waits: Vec<f64> = stats.recent_wait_samples().iter().map(|&w| ms(w)).collect();
        queue_wait_ms = percentile(&waits[HOT_LISTS.min(waits.len())..], 0.9).unwrap_or(f64::NAN);
        let mut check = Checker::new();
        let hot = requests(seed, check.graph.num_vertices() as u32, window).0;
        for i in 0..200 {
            let sources = &hot[i % hot.len()];
            let t = Instant::now();
            let outcome = service
                .submit(ServeReach {
                    sources: sources.clone(),
                })
                .and_then(|ticket| ticket.wait());
            hit_us.push(us(t.elapsed()));
            let ok = matches!(&outcome, Ok(o) if check.values_ok(sources, &dists(&o.values)));
            report.operation(ok, || format!("in-process hit {sources:?} wrong"));
        }
        for sources in traffic.miss_sources.iter().take(40) {
            let t = Instant::now();
            let outcome = service
                .submit_with(
                    ServeReach {
                        sources: sources.clone(),
                    },
                    JobOptions::new().with_cache(CachePolicy::Bypass),
                )
                .and_then(|ticket| ticket.wait());
            miss_run_ms.push(ms(t.elapsed()));
            let ok = matches!(&outcome, Ok(o) if check.values_ok(sources, &dists(&o.values)));
            report.operation(ok, || format!("in-process rerun {sources:?} wrong"));
        }
    });
    let Some(traffic) = traffic else {
        return;
    };
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    for payload in &traffic.result_frames {
        let t = Instant::now();
        let decoded = wire::decode(std::hint::black_box(payload));
        decode_us.push(us(t.elapsed()));
        let Ok((frame, _)) = decoded else {
            report.problem("received Result frame does not decode".into());
            continue;
        };
        let t = Instant::now();
        let encoded = wire::encode(std::hint::black_box(&frame));
        encode_us.push(us(t.elapsed()));
        if &encoded != payload {
            report.problem("Result frame does not re-encode to the same bytes".into());
        }
    }
    let p50 = |samples: &[f64]| percentile(samples, 0.5).unwrap_or(f64::NAN);
    let hit_us_p50 = p50(&hit_us);
    let miss_run_p50 = p50(&miss_run_ms);
    report.metric("service.hit_us", "us", hit_us_p50);
    report.metric("service.miss_run_ms", "ms", miss_run_p50);
    report.metric("service.queue_wait_ms", "ms", queue_wait_ms);
    report.metric("service.cache_hits", "count", traffic.service_hits as f64);
    report.metric(
        "server.overhead_us",
        "us",
        p50(&traffic.hits) * 1e3 - hit_us_p50,
    );
    report.metric(
        "server.push_wait_ms",
        "ms",
        p50(&traffic.misses) - miss_run_p50,
    );
    report.metric(
        "server.hit_p90_ms",
        "ms",
        percentile(&traffic.hits, 0.9).unwrap_or(f64::NAN),
    );
    let bytes: Vec<f64> = traffic
        .result_frames
        .iter()
        .map(|f| f.len() as f64)
        .collect();
    report.metric("wire.result_bytes", "bytes", p50(&bytes));
    report.metric("wire.encode_us", "us", p50(&encode_us));
    report.metric("wire.decode_us", "us", p50(&decode_us));
    report.metric(
        "loadgen.lag_p90_ms",
        "ms",
        percentile(&traffic.lag, 0.9).unwrap_or(f64::NAN),
    );
    report.metric(
        "engine.miss_supersteps",
        "count",
        p50(&traffic.miss_supersteps),
    );
    report.line(format!(
        "sssp_socket traced: hit {:.3} ms over the socket vs {hit_us_p50:.1} us in-process; \
         miss {:.3} ms over the socket vs {miss_run_p50:.3} ms in-process rerun",
        p50(&traffic.hits),
        p50(&traffic.misses)
    ));
}

fn dists(values: &[ServeVertex]) -> Vec<f64> {
    values.iter().map(|v| v.dist).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_lists_are_hits_and_fresh_lists_misses() {
        let request = |sources: &[u32]| Request {
            sources: sources.to_vec(),
            due: Duration::ZERO,
        };
        let hot = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]];
        let requests = [
            request(&[1, 2, 3, 4]),
            request(&[9, 9, 9, 9]),
            request(&[5, 6, 7, 8]),
            // Same vertices as a hot list in another order: another key.
            request(&[4, 3, 2, 1]),
            request(&[1, 2, 3, 4]),
        ];
        assert_eq!(classify(&hot, &requests), [true, false, true, false, true]);
    }

    #[test]
    fn same_seed_gives_the_same_requests() {
        let window = Duration::from_secs(30);
        let (hot_a, a) = requests(9, 4096, window);
        let (hot_b, b) = requests(9, 4096, window);
        assert_eq!(hot_a, hot_b);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.sources == y.sources && x.due == y.due));
        let (hot_c, _) = requests(10, 4096, window);
        assert_ne!(hot_a, hot_c);
        let hot = a.iter().filter(|r| hot_a.contains(&r.sources)).count();
        let share = hot as f64 / a.len() as f64;
        assert!((share - HOT_SHARE).abs() < 0.08, "hot share {share}");
        assert!(a
            .iter()
            .all(|r| r.sources.len() == SOURCES && r.sources.iter().all(|&s| s < 4096)));
    }
}
