//! The serving workload: `node-mixed`.
//!
//! A shared-nothing node ([`NodeServerBuilder::serve_sharded`], one
//! shard worker, SieveStore-C, write-through over [`MemBacking`]) on
//! loopback. Closed-loop connections — one per core the shard worker
//! leaves free, one client thread each, each a [`PipelinedClient`] with
//! a fixed window — send a 70/30 read/write mix over Zipf(0.9) keys
//! drawn from a key space four times the cache's capacity. Every write stores the payload stamped with its
//! key, so every read can be verified.
//!
//! A round spawns a fresh server, prefills every key (set-up), warms the
//! cache over one connection, then times a fixed number of operations
//! across all connections. Rounds repeat while `--seconds` lasts.

use std::net::SocketAddr;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sievestore::PolicySpec;
use sievestore_node::protocol::split_frame;
use sievestore_node::{
    ClientConfig, Completion, DataCache, Incoming, MemBacking, NodeServerBuilder, OpResult,
    PipedReply, PipedRequest, PipelinedClient, Reply, Request, WritePolicy,
};
use sievestore_sieve::TwoTierConfig;
use sievestore_trace::Zipf;
use sievestore_types::{mix64, Micros, BLOCK_SIZE};

use crate::clock;
use crate::spans::{Layer, SpanId, Spans};
use crate::stats::{median, Samples};
use crate::{another_round, peak_rss_mib, Metrics, Outcome, RunArgs};

/// Cache capacity of the node, in 512-byte frames.
const CAPACITY: usize = 16 * 1024;
/// Distinct keys addressed: four times the capacity.
const KEYS: u64 = 4 * CAPACITY as u64;
/// Requests in flight per connection.
const WINDOW: usize = 16;
/// Share of reads in the mix, percent.
const READ_PCT: u32 = 70;
/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 0.9;
/// Operations that warm the cache before each timed phase.
const WARMUP_OPS: usize = 100_000;
/// Timed operations per round, over all connections.
const TIMED_OPS: usize = 400_000;
/// Operations whose frames the traced run encodes and parses in process.
const PROTOCOL_OPS: usize = 50_000;
/// Shard workers of the node.
const SHARD_WORKERS: usize = 1;
/// Client connections: one per core the node's shard worker leaves free
/// (at least one). More client threads than free cores put scheduler
/// time slices into the latency tail: with `nproc` connections on a
/// 2-vCPU host the p99 of a round ranged from 0.2 to 1.8 ms.
fn connections(args: &RunArgs) -> usize {
    args.nproc.saturating_sub(SHARD_WORKERS).max(1)
}

fn policy() -> PolicySpec {
    PolicySpec::SieveStoreC(TwoTierConfig::paper_default())
}

/// The payload every write of `key` stores: the key's bytes, repeated.
pub fn stamp(key: u64) -> [u8; BLOCK_SIZE] {
    let mut block = [0u8; BLOCK_SIZE];
    for chunk in block.chunks_exact_mut(8) {
        chunk.copy_from_slice(&key.to_le_bytes());
    }
    block
}

/// One operation of the generated mix.
#[derive(Debug, Clone, Copy)]
struct Op {
    key: u64,
    write: bool,
}

/// The seed's operation sequences: one warm-up sequence and one timed
/// sequence per connection.
struct Mix {
    warmup: Vec<Op>,
    timed: Vec<Vec<Op>>,
}

fn generate(seed: u64, connections: usize) -> Result<Mix, String> {
    let zipf = Zipf::new(KEYS, ZIPF_S)?;
    let ops = |stream: u64, n: usize| -> Vec<Op> {
        let mut rng = SmallRng::seed_from_u64(mix64(seed ^ stream.wrapping_mul(0x9E37_79B9)));
        (0..n)
            .map(|_| Op {
                key: zipf.sample(&mut rng) - 1,
                write: rng.random_range(0..100u32) >= READ_PCT,
            })
            .collect()
    };
    let per_conn = TIMED_OPS / connections;
    Ok(Mix {
        warmup: ops(u64::MAX, WARMUP_OPS),
        timed: (0..connections).map(|c| ops(c as u64, per_conn)).collect(),
    })
}

/// Outcome of checking one completion: the payload of a read must be
/// its key's stamp, and every operation must succeed.
pub fn verify_completion(c: &Completion) -> Result<(), String> {
    match &c.result {
        Ok(OpResult::Read { data, .. }) if **data == stamp(c.key) => Ok(()),
        Ok(OpResult::Read { .. }) => {
            Err(format!("read of key {} returned a foreign payload", c.key))
        }
        Ok(OpResult::Write { .. }) => Ok(()),
        Err(e) => Err(format!("operation on key {} failed: {e}", c.key)),
    }
}

/// What one connection's timed phase produced.
#[derive(Default)]
struct ConnResult {
    read: Samples,
    write: Samples,
    completed: u64,
    hits: u64,
    failed: u64,
    first_failure: Option<String>,
    /// Client-call spans, in the traced round.
    spans: Option<Spans>,
    retries: u64,
}

impl ConnResult {
    fn settle(&mut self, done: Vec<Completion>) {
        for c in done {
            self.completed += 1;
            let ns = c.latency.as_nanos() as u64;
            match verify_completion(&c) {
                Ok(()) => {
                    let (hit, write) = match &c.result {
                        Ok(OpResult::Read { hit, .. }) => (*hit, false),
                        Ok(OpResult::Write { hit }) => (*hit, true),
                        Err(_) => unreachable!("verified"),
                    };
                    self.hits += u64::from(hit);
                    if write {
                        self.write.push(ns);
                    } else {
                        self.read.push(ns);
                    }
                }
                Err(why) => {
                    self.failed += 1;
                    self.first_failure.get_or_insert(why);
                }
            }
        }
    }
}

/// Submits `ops` through `client` and drains it. With `traced`, each
/// client call is spanned.
fn drive(client: &mut PipelinedClient, ops: &[Op], traced: bool) -> Result<ConnResult, String> {
    let mut result = ConnResult {
        read: Samples::with_capacity(ops.len()),
        write: Samples::with_capacity(ops.len()),
        spans: traced.then(|| Spans::new(clock::ticks())),
        ..ConnResult::default()
    };
    for op in ops {
        let started = clock::ticks();
        let done = if op.write {
            client.write(op.key, &stamp(op.key))
        } else {
            client.read(op.key)
        }
        .map_err(|e| format!("submitting key {}: {e}", op.key))?;
        if let Some(spans) = &mut result.spans {
            let id = spans.root();
            spans.record(Layer::ClientCall, id, SpanId::NONE, started, clock::ticks());
        }
        result.settle(done);
    }
    let started = clock::ticks();
    let done = client.drain().map_err(|e| format!("draining: {e}"))?;
    if let Some(spans) = &mut result.spans {
        let id = spans.root();
        spans.record(Layer::ClientCall, id, SpanId::NONE, started, clock::ticks());
    }
    result.settle(done);
    result.retries = client.retries();
    Ok(result)
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    wall_s: f64,
    conns: Vec<ConnResult>,
    submitted: u64,
    allocation_writes: u64,
}

fn connect(addr: SocketAddr, window: usize) -> Result<PipelinedClient, String> {
    PipelinedClient::connect_with(addr, ClientConfig::default(), window)
        .map_err(|e| format!("connecting to {addr}: {e}"))
}

/// Spawns a node, prefills and warms it, then times `mix.timed` across
/// one connection per sequence.
fn round(mix: &Mix, traced: bool) -> Result<Round, String> {
    let started = Instant::now();
    let server = NodeServerBuilder::new("127.0.0.1:0")
        .workers(SHARD_WORKERS)
        .serve_sharded(
            MemBacking::new(),
            policy(),
            CAPACITY,
            WritePolicy::WriteThrough,
        )
        .map_err(|e| format!("spawning the node: {e}"))?;
    let addr = server.addr();
    let mut prefill = connect(addr, 64)?;
    for key in 0..KEYS {
        let done = prefill
            .write(key, &stamp(key))
            .map_err(|e| format!("prefill: {e}"))?;
        check_all_ok(done)?;
    }
    check_all_ok(prefill.quit().map_err(|e| format!("prefill: {e}"))?)?;
    let setup_s = started.elapsed().as_secs_f64();

    let mut warm = connect(addr, WINDOW)?;
    let warmed = drive(&mut warm, &mix.warmup, false)?;
    if warmed.failed > 0 || warmed.completed != mix.warmup.len() as u64 {
        return Err(format!(
            "warm-up: {} of {} operations completed, {} failed",
            warmed.completed,
            mix.warmup.len(),
            warmed.failed
        ));
    }
    warm.quit().map_err(|e| format!("warm-up quit: {e}"))?;

    // Every connection is established before any load starts: a failed
    // connect aborts the round instead of leaving threads waiting.
    let clients = mix
        .timed
        .iter()
        .map(|_| connect(addr, WINDOW))
        .collect::<Result<Vec<_>, _>>()?;
    let allocs_before = server.stats().allocation_writes;
    let started = Instant::now();
    let conns = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&mix.timed)
            .map(|(mut client, ops)| {
                scope.spawn(move || {
                    let result = drive(&mut client, ops, traced);
                    let _ = client.quit();
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall_s = started.elapsed().as_secs_f64();
    let allocation_writes = server.stats().allocation_writes - allocs_before;
    if server.worker_panics() > 0 {
        return Err(format!(
            "node worker panicked: {}",
            server.first_panic_message().unwrap_or_default()
        ));
    }
    server.shutdown();
    Ok(Round {
        setup_s,
        wall_s,
        conns,
        submitted: mix.timed.iter().map(|ops| ops.len() as u64).sum(),
        allocation_writes,
    })
}

fn check_all_ok(done: Vec<Completion>) -> Result<(), String> {
    for c in &done {
        verify_completion(c).map_err(|why| format!("prefill: {why}"))?;
    }
    Ok(())
}

/// Counts a round's operations into `outcome`: every submitted operation
/// must complete and verify.
fn verify_round(outcome: &mut Outcome, round: &Round, index: usize) {
    let completed: u64 = round.conns.iter().map(|c| c.completed).sum();
    let failed: u64 = round.conns.iter().map(|c| c.failed).sum();
    let lost = round.submitted.saturating_sub(completed);
    outcome.attempted += round.submitted;
    outcome.failed += failed + lost;
    if lost > 0 {
        outcome.failures.push(format!(
            "round {index}: {lost} submitted operations never completed"
        ));
    }
    if let Some(why) = round.conns.iter().find_map(|c| c.first_failure.clone()) {
        outcome.failures.push(format!(
            "round {index}: {failed} operations failed, first: {why}"
        ));
    }
}

fn note_sizes(outcome: &mut Outcome, connections: usize) {
    outcome.note("policy", policy().name());
    outcome.note("shard_workers", SHARD_WORKERS);
    outcome.note("capacity_blocks", CAPACITY);
    outcome.note("keys", KEYS);
    outcome.note("connections", connections);
    outcome.note("window", WINDOW);
    outcome.note("read_pct", READ_PCT);
    outcome.note("zipf_s", ZIPF_S);
    outcome.note("warmup_ops", WARMUP_OPS);
    outcome.note("timed_ops_per_round", TIMED_OPS / connections * connections);
    outcome.note("loop", "closed");
    outcome.note("write_policy", "write-through, MemBacking");
}

/// The untraced run: rounds while `--seconds` lasts (at least one). Latency percentiles are exact per round; every
/// figure is the median over rounds, except peak RSS, read after the
/// first round.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let connections = connections(args);
    let mix = generate(args.seed, connections)?;
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let mut m: Vec<Metrics> = Vec::new();
    let mut samples = [0usize; 2];
    while another_round(m.len(), started.elapsed().as_secs_f64(), args.seconds) {
        let r = round(&mix, false)?;
        let rate = r.submitted as f64 / r.wall_s;
        println!(
            "node round {}: setup {:.3} s, {rate:.0} ops/s",
            m.len(),
            r.setup_s
        );
        verify_round(&mut outcome, &r, m.len());
        let (mut read, mut write) = (Samples::default(), Samples::default());
        let (mut hits, mut completed) = (0u64, 0u64);
        for c in &r.conns {
            read.extend(&c.read);
            write.extend(&c.write);
            hits += c.hits;
            completed += c.completed - c.failed;
        }
        let reads = read
            .percentiles_us(&[0.5, 0.99])
            .ok_or("no reads completed")?;
        let writes = write
            .percentiles_us(&[0.5, 0.99])
            .ok_or("no writes completed")?;
        samples[0] += read.len();
        samples[1] += write.len();
        m.push(Metrics::from([
            ("setup_s", r.setup_s),
            ("events_per_s", rate),
            ("ops_per_s", rate),
            ("read_p50_us", reads[0]),
            ("read_p99_us", reads[1]),
            ("write_p50_us", writes[0]),
            ("write_p99_us", writes[1]),
            ("hit_ratio", hits as f64 / completed.max(1) as f64),
            (
                "alloc_write_frac",
                r.allocation_writes as f64 / completed.max(1) as f64,
            ),
        ]));
        // One round in a fresh process: its high-water mark is the
        // round's footprint (node, clients and their samples).
        if m.len() == 1 {
            outcome.set("peak_rss_mib", peak_rss_mib());
        }
    }
    outcome.set_medians(&m);
    outcome.set(
        "verified_frac",
        1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    note_sizes(&mut outcome, connections);
    outcome.note("rounds", m.len());
    let series = |name: &str| format!("{:.1?}", m.iter().map(|r| r[name]).collect::<Vec<_>>());
    outcome.note("ops_per_s_rounds", series("ops_per_s"));
    outcome.note("read_p99_us_rounds", series("read_p99_us"));
    outcome.note("setup_rounds_s", series("setup_s"));
    outcome.note("read_samples", samples[0]);
    outcome.note("write_samples", samples[1]);
    outcome.note(
        "latency_is",
        "client-observed, submit to completion; exact p50/p99 per round, median over rounds",
    );
    Ok(outcome)
}

/// Mean nanoseconds per element of `f` over `n` elements, median of
/// three repetitions.
fn time_per_item(n: usize, mut f: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    median(&reps).unwrap_or(0.0)
}

/// Protocol costs per operation over `ops`: request encode/parse and
/// reply encode/parse, each timed in bulk (the buffers are warm after the
/// first of the three repetitions).
fn protocol_costs(ops: &[Op]) -> Result<[f64; 4], String> {
    let requests: Vec<PipedRequest> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| PipedRequest {
            corr: i as u32,
            request: if op.write {
                Request::Write {
                    key: op.key,
                    data: Box::new(stamp(op.key)),
                }
            } else {
                Request::Read { key: op.key }
            },
        })
        .collect();
    let replies: Vec<PipedReply> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| PipedReply {
            corr: i as u32,
            reply: if op.write {
                Reply::Write { hit: true }
            } else {
                Reply::Read {
                    hit: true,
                    data: Box::new(stamp(op.key)),
                }
            },
        })
        .collect();
    let mut req_buf = Vec::new();
    let req_encode = time_per_item(ops.len(), || {
        req_buf.clear();
        for r in &requests {
            r.encode_into(&mut req_buf);
        }
    });
    let mut parsed = 0usize;
    let req_parse = time_per_item(ops.len(), || {
        let mut at = 0;
        while let Ok(Some((used, range))) = split_frame(&req_buf[at..]) {
            let frame = &req_buf[at..][range];
            parsed += usize::from(Incoming::parse(frame).is_ok());
            at += used;
        }
    });
    let mut reply_buf = Vec::new();
    let reply_encode = time_per_item(ops.len(), || {
        reply_buf.clear();
        for r in &replies {
            r.encode_into(&mut reply_buf);
        }
    });
    let reply_parse = time_per_item(ops.len(), || {
        let mut at = 0;
        while let Ok(Some((used, range))) = split_frame(&reply_buf[at..]) {
            let frame = &reply_buf[at..][range];
            parsed += usize::from(PipedReply::parse(frame).is_ok());
            at += used;
        }
    });
    if parsed != 6 * ops.len() {
        return Err(format!(
            "protocol round trip parsed {parsed} of {} frames",
            6 * ops.len()
        ));
    }
    Ok([req_encode, req_parse, reply_encode, reply_parse])
}

/// In-process service time: the same prefill, warm-up and operations
/// through a [`DataCache`] on [`MemBacking`] with the node's policy,
/// each call timed (less the clock's own cost). Returns per-op read and
/// write samples in nanoseconds; every read is verified.
fn store_service(mix: &Mix, outcome: &mut Outcome) -> Result<(Samples, Samples), String> {
    let mut cache = DataCache::new(MemBacking::new(), policy(), CAPACITY)
        .map_err(|e| e.to_string())?
        .with_write_policy(WritePolicy::WriteThrough);
    let mut clock = 0u64;
    let mut tick = || {
        clock += 1_000;
        Micros::new(clock)
    };
    for key in 0..KEYS {
        cache
            .write(key, &stamp(key), tick())
            .map_err(|e| format!("in-process prefill: {e}"))?;
    }
    // Interleave the connections' sequences the way the node sees them.
    let longest = mix.timed.iter().map(Vec::len).max().unwrap_or(0);
    let timed = (0..longest).flat_map(|i| mix.timed.iter().filter_map(move |ops| ops.get(i)));
    let (mut read, mut write) = (Samples::default(), Samples::default());
    let mut bad = 0u64;
    let mut ops = 0u64;
    for (timed_op, op) in mix
        .warmup
        .iter()
        .map(|op| (false, op))
        .chain(timed.map(|op| (true, op)))
    {
        let now = tick();
        let started = clock::ticks();
        let ok = if op.write {
            cache.write(op.key, &stamp(op.key), now).is_ok()
        } else {
            matches!(cache.read(op.key, now), Ok((data, _)) if data == stamp(op.key))
        };
        let ns = clock::ns_between(started, clock::ticks());
        bad += u64::from(!ok);
        if timed_op {
            ops += 1;
            if op.write {
                write.push(ns);
            } else {
                read.push(ns);
            }
        }
    }
    outcome.verify(ops, bad == 0, || {
        format!("in-process store: {bad} operations failed or returned a foreign payload")
    });
    Ok((read, write))
}

fn p50_us(samples: &Samples) -> f64 {
    samples.percentiles_us(&[0.5]).map(|p| p[0]).unwrap_or(0.0)
}

/// The traced run: pairs of an untraced and a traced round (client
/// calls spanned) while `--seconds` lasts, each followed by the protocol
/// and in-process store costs of the same operations. Each per-layer
/// metric is the median over pairs.
pub fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let connections = connections(args);
    let mix = generate(args.seed, connections)?;
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let mut rounds = Vec::new();
    while another_round(rounds.len(), started.elapsed().as_secs_f64(), args.seconds) {
        rounds.push(traced_pair(&mix, args, rounds.len(), &mut outcome)?);
    }
    outcome.set_medians(&rounds);
    note_sizes(&mut outcome, connections);
    outcome.note("traced_rounds", rounds.len());
    Ok(outcome)
}

fn traced_pair(
    mix: &Mix,
    args: &RunArgs,
    index: usize,
    outcome: &mut Outcome,
) -> Result<Metrics, String> {
    let plain = round(mix, false)?;
    verify_round(outcome, &plain, 2 * index);
    let traced = round(mix, true)?;
    verify_round(outcome, &traced, 2 * index + 1);
    println!(
        "node traced round {index}: traced {:.3} s, untraced {:.3} s",
        traced.wall_s, plain.wall_s
    );

    let (mut all, mut read) = (Samples::default(), Samples::default());
    for c in &plain.conns {
        all.extend(&c.read);
        all.extend(&c.write);
        read.extend(&c.read);
    }
    let read_p999 = read
        .percentiles_us(&[0.999])
        .map(|p| p[0])
        .ok_or("no reads completed")?;
    let [req_encode, req_parse, reply_encode, reply_parse] =
        protocol_costs(&mix.timed[0][..PROTOCOL_OPS.min(mix.timed[0].len())])?;
    let (store_read, store_write) = store_service(mix, outcome)?;
    // Median per-call time, less what the clock itself adds to a span.
    let clock_ns = clock::empty_span_ns();
    let service_ns = |s: &Samples| (p50_us(s) * 1000.0 - clock_ns).max(0.0);
    let mut store_all = Samples::default();
    store_all.extend(&store_read);
    store_all.extend(&store_write);

    let spans: Vec<&Spans> = traced
        .conns
        .iter()
        .filter_map(|c| c.spans.as_ref())
        .collect();
    if index == 0 {
        for (conn, s) in spans.iter().enumerate() {
            let path = args.out_dir.join(format!(
                "node-mixed-seed{}-part{}-conn{conn}-spans.jsonl",
                args.seed, args.part
            ));
            s.write_jsonl(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    let mut m = Metrics::new();
    m.insert(
        "client.wait_s",
        spans.iter().map(|s| s.busy_s(Layer::ClientCall)).sum(),
    );
    m.insert(
        "client.retries",
        traced.conns.iter().map(|c| c.retries).sum::<u64>() as f64,
    );
    m.insert("protocol.req_encode_ns", req_encode);
    m.insert("protocol.req_parse_ns", req_parse);
    m.insert("protocol.reply_encode_ns", reply_encode);
    m.insert("protocol.reply_parse_ns", reply_parse);
    m.insert("store.read_ns", service_ns(&store_read));
    m.insert("store.write_ns", service_ns(&store_write));
    m.insert(
        "node.service_gap_us",
        p50_us(&all) - service_ns(&store_all) / 1000.0,
    );
    m.insert("node.read_p999_us", read_p999);
    m.insert("trace_overhead_frac", traced.wall_s / plain.wall_s);
    outcome.note("read_samples_per_round", read.len());
    outcome.note("read_p999_beyond", read.beyond(0.999));
    outcome.note("store_read_samples", store_read.len());
    outcome.note("store_write_samples", store_write.len());
    outcome.note("clock_empty_span_ns", format!("{clock_ns:.1}"));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(key: u64, result: Result<OpResult, sievestore_types::NodeError>) -> Completion {
        Completion {
            key,
            result,
            latency: std::time::Duration::from_micros(5),
        }
    }

    #[test]
    fn payload_check_fires_on_an_injected_foreign_payload() {
        let good = completion(
            7,
            Ok(OpResult::Read {
                hit: true,
                data: Box::new(stamp(7)),
            }),
        );
        assert!(verify_completion(&good).is_ok());
        let foreign = completion(
            7,
            Ok(OpResult::Read {
                hit: true,
                data: Box::new(stamp(8)),
            }),
        );
        assert!(verify_completion(&foreign).is_err());

        let mut conn = ConnResult::default();
        conn.settle(vec![good, foreign]);
        assert_eq!((conn.completed, conn.failed), (2, 1));
        assert!(conn.first_failure.unwrap().contains("foreign payload"));
    }

    #[test]
    fn lost_operations_count_as_failed() {
        let conn = ConnResult {
            completed: 9,
            ..ConnResult::default()
        };
        let round = Round {
            setup_s: 0.1,
            wall_s: 1.0,
            conns: vec![conn],
            submitted: 10,
            allocation_writes: 0,
        };
        let mut outcome = Outcome::default();
        verify_round(&mut outcome, &round, 0);
        assert_eq!((outcome.attempted, outcome.failed), (10, 1));
        assert!(outcome.failures[0].contains("never completed"));
    }

    #[test]
    fn stamps_differ_per_key() {
        assert_ne!(stamp(1), stamp(2));
        assert_eq!(&stamp(3)[..8], &3u64.to_le_bytes());
    }
}
