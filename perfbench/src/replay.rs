//! The replay workloads: `replay-d-spill` and `replay-c`.
//!
//! The untraced run times whole replays through the simulator's public
//! entry points ([`simulate_sharded`] for SieveStore-D, [`simulate`] for
//! SieveStore-C), then replays the trace once more request by request
//! through [`SieveStore::access`] to measure the appliance's per-request
//! service time. Every replay's day metrics are checked against a
//! reference.
//!
//! The traced run composes the appliance from its layers — epoch counter
//! and batch cache for D, two-tier sieve and LRU for C — and spans each
//! call into them. It must reproduce [`simulate`]'s day metrics exactly,
//! so the split covers the same work the end-to-end figure does.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sievestore::{PolicySpec, SieveStore, SieveStoreBuilder};
use sievestore_cache::{BatchCache, LruCache, SieveCache};
use sievestore_extsort::{AccessCounter, CountingConfig, EpochCounter, DEFAULT_SPILL_BUDGET};
use sievestore_sieve::{TwoTierConfig, TwoTierSieve};
use sievestore_sim::{simulate, simulate_sharded, DayMetrics, SimConfig};
use sievestore_ssd::OccupancyTracker;
use sievestore_trace::{EnsembleConfig, Scale, StreamMsg, SyntheticTrace, TraceStreamConfig};
use sievestore_types::{mix64, Day, Request, BLOCKS_PER_PAGE};

use crate::clock;
use crate::spans::{Layer, SpanId, Spans};
use crate::stats::{median, Samples};
use crate::{another_round, peak_rss_mib, Metrics, Outcome, RunArgs};

/// SieveStore-D's per-epoch allocation threshold (the paper's `t`).
const D_THRESHOLD: u64 = 10;
/// Set-up trials per run; `setup_s` is their median.
const SETUP_TRIALS: usize = 9;
/// Distinct traces per run, generated from the seed and shared out among
/// the run's processes: the figures aggregate over them, so one draw of
/// the ensemble's random parameters does not dominate a run.
const TRACES: usize = 8;
/// Trace scale denominator: one replay takes 0.5–1.5 s on a 2-vCPU host,
/// so every process replays its trace several times.
const SCALE: u32 = 4096;
/// Cache calls recorded by the traced SieveStore-C driver for the
/// LRU/SIEVE comparison (a prefix of the replay's call sequence).
const CACHE_CALLS_MAX: usize = 1 << 23;

/// Which replay workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// SieveStore-D (t = 10), sharded over `nproc` workers, trace stream
    /// and epoch counter both spilling to disk.
    DSpill,
    /// SieveStore-C (two-tier sieve, LRU), sequential, in memory.
    C,
}

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::DSpill => "replay-d-spill",
            Family::C => "replay-c",
        }
    }

    fn policy(self) -> PolicySpec {
        match self {
            Family::DSpill => PolicySpec::SieveStoreD {
                threshold: D_THRESHOLD,
            },
            Family::C => PolicySpec::SieveStoreC(two_tier_config()),
        }
    }

    /// The engine configuration; D spills trace runs and epoch counts
    /// under `dir`.
    fn sim_config(self, dir: Option<&Path>) -> SimConfig {
        let cfg = SimConfig::paper_16gb(SCALE);
        match (self, dir) {
            (Family::DSpill, Some(dir)) => cfg
                .with_trace_stream(TraceStreamConfig::default().with_spill_dir(dir.join("trace")))
                .with_counting(self.counting(dir)),
            _ => cfg,
        }
    }

    /// Spill counting with the default hot-map budget shrunk by the
    /// trace scale, so the miniature spills as often per epoch as the
    /// full-scale run does.
    fn counting(self, dir: &Path) -> CountingConfig {
        CountingConfig::spill(dir.join("counts"))
            .with_budget((DEFAULT_SPILL_BUDGET / SCALE as usize).max(256))
    }
}

/// Replay shards for SieveStore-D: one per core, at least two.
fn shards(args: &RunArgs) -> usize {
    args.nproc.max(2)
}

/// The paper's two-tier sieve (t1 = 9, t2 = 4, W = 8 h, k = 4) with the
/// IMCT sized for the trace scale.
fn two_tier_config() -> TwoTierConfig {
    TwoTierConfig::paper_default()
        .with_imct_entries(sievestore_bench::imct_entries_for_scale(SCALE))
}

/// The seed's trace number `index`: the 13-server, 8-day MSR-like
/// ensemble at [`SCALE`].
fn trace_for(seed: u64, index: usize) -> Result<SyntheticTrace, String> {
    let scale = Scale::new(SCALE).map_err(|e| e.to_string())?;
    SyntheticTrace::new(
        EnsembleConfig::msr_like()
            .with_scale(scale)
            .with_seed(mix64(mix64(seed) ^ index as u64)),
    )
    .map_err(|e| e.to_string())
}

/// A fresh, empty scratch directory for one replay.
fn scratch(args: &RunArgs, name: &str) -> Result<PathBuf, String> {
    let dir = args.tmp_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Set-up as a user of the replay pays it: build the trace model and
/// wait for the stream's first chunk of requests.
fn setup_once(family: Family, args: &RunArgs, trial: usize) -> Result<f64, String> {
    let dir = scratch(args, &format!("setup-{trial}"))?;
    let started = Instant::now();
    let mine = args.share(TRACES);
    let trace = trace_for(args.seed, mine[trial % mine.len()])?;
    let cfg = family.sim_config(Some(&dir));
    let mut stream = trace.stream(cfg.trace_stream.clone());
    loop {
        match stream.next_msg() {
            Some(StreamMsg::Chunk(_)) => break,
            Some(StreamMsg::StartDay(_)) => {}
            Some(StreamMsg::Failed(e)) => return Err(format!("trace stream failed: {e}")),
            None => return Err("trace stream ended before its first chunk".into()),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    drop(stream);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(elapsed)
}

/// One timed replay through the simulator's public entry point.
fn replay_once(
    family: Family,
    trace: &SyntheticTrace,
    args: &RunArgs,
    round: usize,
) -> Result<(Vec<DayMetrics>, f64, Option<sievestore_sim::ReplayStats>), String> {
    let dir = scratch(args, &format!("round-{round}"))?;
    let cfg = family.sim_config(Some(&dir));
    let started = Instant::now();
    let (result, stats) = match family {
        Family::DSpill => {
            let (r, s) = simulate_sharded(trace, family.policy(), &cfg, shards(args))
                .map_err(|e| e.to_string())?;
            (r, Some(s))
        }
        Family::C => (
            simulate(trace, family.policy(), &cfg).map_err(|e| e.to_string())?,
            None,
        ),
    };
    let wall = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    Ok((result.days, wall, stats))
}

fn totals(days: &[DayMetrics]) -> DayMetrics {
    let mut t = DayMetrics::default();
    for d in days {
        t.merge(d);
    }
    t
}

/// Names the first day whose metrics differ, for the failure message.
fn describe_mismatch(what: &str, got: &[DayMetrics], want: &[DayMetrics]) -> String {
    if got.len() != want.len() {
        return format!("{what}: {} days, reference has {}", got.len(), want.len());
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        Some(day) => format!(
            "{what}: day {day} differs: {:?} vs reference {:?}",
            got[day], want[day]
        ),
        None => format!("{what}: day metrics differ"),
    }
}

/// Checks `got` against `want`, counting `got`'s accesses as attempted
/// (and all of them as failed on a mismatch — a replay is verified as a
/// whole).
pub fn check_days(outcome: &mut Outcome, what: &str, got: &[DayMetrics], want: &[DayMetrics]) {
    let ok = got == want;
    outcome.verify(totals(got).accesses().max(1), ok, || {
        describe_mismatch(what, got, want)
    });
}

/// The untraced run: set-up trials, then timed replays cycling over this
/// process's share of the seed's [`TRACES`] traces (each at least once),
/// then, per trace, the checks and the per-request latency pass. The
/// replays stop early enough to leave the checks their share of
/// `--seconds`. Peak RSS is the high-water mark when the replays end, so
/// it covers every timed replay and nothing the checks allocate.
pub fn run(family: Family, args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let setups = (0..SETUP_TRIALS)
        .map(|trial| setup_once(family, args, trial))
        .collect::<Result<Vec<_>, _>>()?;

    let mine = args.share(TRACES);
    let started = Instant::now();
    // Per round: slot in `mine`, wall seconds, block accesses.
    let mut rounds: Vec<(usize, f64, u64)> = Vec::new();
    let mut first_days: Vec<Vec<DayMetrics>> = Vec::new();
    loop {
        let (round, slot) = (rounds.len(), rounds.len() % mine.len());
        // The checks cost about two replays per trace.
        let reserve = 2.0 * rounds.first().map_or(0.0, |r| r.1) * mine.len() as f64;
        if round >= mine.len() && started.elapsed().as_secs_f64() + reserve >= args.seconds {
            break;
        }
        let index = mine[slot];
        let trace = trace_for(args.seed, index)?;
        let (days, wall, stats) = replay_once(family, &trace, args, round)?;
        println!(
            "{family:?} replay {round} (trace {index}): {wall:.3} s{}",
            stats
                .map(|s| format!(", imbalance {:.3}, steals {}", s.imbalance(), s.steals))
                .unwrap_or_default()
        );
        rounds.push((slot, wall, totals(&days).accesses()));
        match first_days.get(slot) {
            Some(first) => {
                let what = format!("replay {round} vs first replay of trace {index}");
                check_days(&mut outcome, &what, &days, first);
            }
            None => first_days.push(days),
        }
    }
    let peak_rss = peak_rss_mib();

    let mut requests = Vec::new();
    // Per trace: read p50, read p99, write p50, write p99 (µs).
    let mut latency: [Vec<f64>; 4] = Default::default();
    let mut samples = [0usize; 2];
    for (&index, days) in mine.iter().zip(&first_days) {
        let trace = trace_for(args.seed, index)?;
        // The sharded spill replay must equal the plain sequential engine
        // (in-memory trace and counting) on the same trace.
        if family == Family::DSpill {
            let reference = simulate(&trace, family.policy(), &family.sim_config(None))
                .map_err(|e| e.to_string())?;
            let what = format!("trace {index}: sharded spill replay vs sequential");
            check_days(&mut outcome, &what, days, &reference.days);
        }
        // The per-request pass replays the trace through the appliance;
        // its accounting must match the simulator's.
        let dir = scratch(args, "latency")?;
        let pass = latency_pass(family, &trace, &family.sim_config(Some(&dir)))?;
        let _ = std::fs::remove_dir_all(&dir);
        let what = format!("trace {index}: per-request pass vs replay");
        check_days(&mut outcome, &what, &pass.days, days);
        let reads = pass
            .read
            .percentiles_us(&[0.5, 0.99])
            .ok_or("no read requests")?;
        let writes = pass
            .write
            .percentiles_us(&[0.5, 0.99])
            .ok_or("no write requests")?;
        for (series, value) in latency.iter_mut().zip(reads.into_iter().chain(writes)) {
            series.push(value);
        }
        samples[0] += pass.read.len();
        samples[1] += pass.write.len();
        requests.push(pass.requests);
    }

    let mut t = DayMetrics::default();
    for days in &first_days {
        t.merge(&totals(days));
    }
    let events_rates: Vec<f64> = rounds.iter().map(|&(_, wall, n)| n as f64 / wall).collect();
    let ops_rates: Vec<f64> = rounds
        .iter()
        .map(|&(slot, wall, _)| requests[slot] as f64 / wall)
        .collect();
    let med = |v: &[f64]| median(v).expect("rounds ran");
    outcome.set("setup_s", med(&setups));
    outcome.set("events_per_s", med(&events_rates));
    outcome.set("ops_per_s", med(&ops_rates));
    outcome.set("read_p50_us", med(&latency[0]));
    outcome.set("read_p99_us", med(&latency[1]));
    outcome.set("write_p50_us", med(&latency[2]));
    outcome.set("write_p99_us", med(&latency[3]));
    outcome.set("hit_ratio", t.hits() as f64 / t.accesses() as f64);
    outcome.set(
        "alloc_write_frac",
        t.total_allocation_writes() as f64 / t.accesses() as f64,
    );
    outcome.set("peak_rss_mib", peak_rss);
    outcome.set(
        "verified_frac",
        1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    note_sizes(&mut outcome, family, args);
    outcome.note("traces", format!("{mine:?}"));
    outcome.note("replays", rounds.len());
    outcome.note("events_per_s_rounds", format!("{events_rates:.0?}"));
    outcome.note("setup_trials_s", format!("{setups:.4?}"));
    outcome.note("trace_requests", requests.iter().sum::<u64>());
    outcome.note("trace_blocks", t.accesses());
    outcome.note("read_samples", samples[0]);
    outcome.note("write_samples", samples[1]);
    outcome.note(
        "latency_is",
        "appliance service time per trace request; exact p50/p99 per trace",
    );
    Ok(outcome)
}

fn note_sizes(outcome: &mut Outcome, family: Family, args: &RunArgs) {
    let cfg = family.sim_config(None);
    outcome.note("policy", family.policy().name());
    outcome.note("scale", format!("1/{SCALE}"));
    outcome.note("ensemble", "msr_like, 13 servers, 8 days");
    outcome.note("capacity_blocks", cfg.capacity_blocks);
    match family {
        Family::DSpill => {
            outcome.note("shards", shards(args));
            outcome.note("threshold", D_THRESHOLD);
            outcome.note("spill", "trace stream + epoch counting");
            if let CountingConfig::Spill { budget, .. } = family.counting(Path::new("")) {
                outcome.note("spill_budget_keys", budget);
            }
        }
        Family::C => {
            let tt = two_tier_config();
            outcome.note("shards", 1);
            outcome.note("eviction", "LRU");
            outcome.note(
                "two_tier",
                format!("t1={} t2={} imct={}", tt.t1, tt.t2, tt.imct_entries),
            );
        }
    }
}

/// The per-request replay's results.
struct LatencyPass {
    days: Vec<DayMetrics>,
    read: Samples,
    write: Samples,
    requests: u64,
}

/// Day metrics and SSD occupancy bookkeeping, mirroring the simulator's
/// per-policy run state.
struct Accounting {
    days: Vec<DayMetrics>,
    occupancy: OccupancyTracker,
}

impl Accounting {
    fn new(cfg: &SimConfig, trace: &SyntheticTrace) -> Self {
        assert!(!cfg.charge_batch_moves, "batch moves are not charged");
        Accounting {
            days: Vec::new(),
            occupancy: OccupancyTracker::new(cfg.ssd.clone(), trace.days() as usize * 24 * 60)
                .with_load_multiplier(cfg.load_multiplier),
        }
    }

    fn day_mut(&mut self, day: Day) -> &mut DayMetrics {
        let idx = day.as_usize();
        if idx >= self.days.len() {
            self.days.resize(idx + 1, DayMetrics::default());
        }
        &mut self.days[idx]
    }

    /// Device accounting at 4 KiB granularity: hits at issue time,
    /// allocation fills once the underlying fetch completed.
    fn record_pages(&mut self, req: &Request, read_hits: u64, write_hits: u64, allocs: u64) {
        let pages = |blocks: u64| blocks.div_ceil(BLOCKS_PER_PAGE as u64);
        let minute = req.timestamp.minute();
        if read_hits > 0 {
            self.occupancy.record_read_pages(minute, pages(read_hits));
        }
        if write_hits > 0 {
            self.occupancy.record_write_pages(minute, pages(write_hits));
        }
        if allocs > 0 {
            self.occupancy
                .record_write_pages(req.completion_time().minute(), pages(allocs));
        }
    }

    fn drives_needed_max(&self) -> u32 {
        self.occupancy
            .drives_needed_sorted()
            .last()
            .copied()
            .unwrap_or(0)
    }
}

/// Replays the trace request by request through [`SieveStore::access`],
/// timing each request's block accesses.
fn latency_pass(
    family: Family,
    trace: &SyntheticTrace,
    cfg: &SimConfig,
) -> Result<LatencyPass, String> {
    let mut store: SieveStore = SieveStoreBuilder::new()
        .capacity_blocks(cfg.capacity_blocks)
        .policy(family.policy())
        .eviction(cfg.eviction)
        .counting(cfg.counting.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let mut acct = Accounting::new(cfg, trace);
    let mut read = Samples::with_capacity(1 << 20);
    let mut write = Samples::with_capacity(1 << 20);
    let mut requests = 0u64;
    let mut stream = trace.stream(cfg.trace_stream.clone());
    while let Some(msg) = stream.next_msg() {
        match msg {
            StreamMsg::StartDay(day) => {
                if let Some(transition) = store.day_boundary(day) {
                    acct.day_mut(day).batch_allocations = transition.allocated.len() as u64;
                }
            }
            StreamMsg::Chunk(chunk) => {
                for req in &chunk {
                    let day = req.timestamp.day();
                    let (mut read_hits, mut write_hits, mut allocs) = (0, 0, 0);
                    let started = clock::ticks();
                    for (i, key) in req.blocks().enumerate() {
                        let t = req.block_completion_time(i as u32);
                        let outcome = store.access(key.raw(), req.kind, t);
                        let (hit, allocated) = (outcome.is_hit(), outcome.is_allocation());
                        acct.day_mut(day).record_access(req.kind, hit, allocated);
                        match (hit, req.kind.is_read()) {
                            (true, true) => read_hits += 1,
                            (true, false) => write_hits += 1,
                            _ => {}
                        }
                        allocs += u64::from(allocated);
                    }
                    let ns = clock::ns_between(started, clock::ticks());
                    if req.kind.is_read() {
                        read.push(ns);
                    } else {
                        write.push(ns);
                    }
                    acct.record_pages(req, read_hits, write_hits, allocs);
                    requests += 1;
                }
                stream.recycle(chunk);
            }
            StreamMsg::Failed(e) => return Err(format!("trace stream failed: {e}")),
        }
    }
    Ok(LatencyPass {
        days: acct.days,
        read,
        write,
        requests,
    })
}

/// The composed appliance the traced driver runs: each variant holds
/// the layers the policy family uses, so every call can be spanned.
enum Layers {
    D {
        counting: CountingConfig,
        counter: Option<EpochCounter>,
        batch: BatchCache,
        spills: u64,
        selected: u64,
    },
    C {
        sieve: TwoTierSieve,
        lru: LruCache,
        mct_len_max: usize,
        calls: CacheCalls,
        evictions: u64,
    },
}

/// The traced driver's results.
struct Traced {
    days: Vec<DayMetrics>,
    wall_s: f64,
    spans: Spans,
    layers: Layers,
    requests: u64,
    blocks: u64,
    batch_allocations: u64,
    drives_needed_max: u32,
}

/// Replays the trace through the composed layers, spanning each call.
fn traced_replay(
    family: Family,
    trace: &SyntheticTrace,
    cfg: &SimConfig,
) -> Result<Traced, String> {
    let mut layers = match family {
        Family::DSpill => Layers::D {
            counter: Some(cfg.counting.counter().map_err(|e| e.to_string())?),
            counting: cfg.counting.clone(),
            batch: BatchCache::new(cfg.capacity_blocks),
            spills: 0,
            selected: 0,
        },
        Family::C => Layers::C {
            sieve: TwoTierSieve::new(two_tier_config()).map_err(|e| e.to_string())?,
            lru: LruCache::new(cfg.capacity_blocks),
            mct_len_max: 0,
            calls: CacheCalls::default(),
            evictions: 0,
        },
    };
    let mut acct = Accounting::new(cfg, trace);
    let (mut requests, mut blocks, mut batch_allocations) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    let mut spans = Spans::new(clock::ticks());
    let mut stream = trace.stream(cfg.trace_stream.clone());
    loop {
        let wait = spans.root();
        let t0 = clock::ticks();
        let msg = stream.next_msg();
        spans.record(Layer::TraceWait, wait, SpanId::NONE, t0, clock::ticks());
        let Some(msg) = msg else { break };
        match msg {
            StreamMsg::StartDay(day) => {
                let root = spans.root();
                let t0 = clock::ticks();
                if let Layers::D {
                    counting,
                    counter,
                    batch,
                    spills,
                    selected,
                } = &mut layers
                {
                    let next = counting.counter().map_err(|e| e.to_string())?;
                    let done = counter.replace(next).expect("counter between epochs");
                    if let EpochCounter::Spill(c) = &done {
                        *spills += c.spills();
                    }
                    let child = spans.child(root);
                    let t1 = clock::ticks();
                    let selection = done
                        .finish_selection(D_THRESHOLD)
                        .map_err(|e| e.to_string())?;
                    spans.record(Layer::ExtsortFinish, child, root, t1, clock::ticks());
                    *selected += selection.len() as u64;
                    let moved = batch.install_epoch(selection).allocated.len() as u64;
                    acct.day_mut(day).batch_allocations = moved;
                    batch_allocations += moved;
                }
                spans.record(
                    Layer::CoreDayBoundary,
                    root,
                    SpanId::NONE,
                    t0,
                    clock::ticks(),
                );
            }
            StreamMsg::Chunk(chunk) => {
                for req in &chunk {
                    let day = req.timestamp.day();
                    let (mut read_hits, mut write_hits, mut allocs) = (0, 0, 0);
                    for (i, key) in req.blocks().enumerate() {
                        let key = key.raw();
                        let root = spans.root();
                        let t0 = clock::ticks();
                        let (hit, allocated) = match &mut layers {
                            Layers::D { counter, batch, .. } => {
                                let child = spans.child(root);
                                counter.as_mut().expect("counter").record(key);
                                let t1 = clock::ticks();
                                spans.record(Layer::ExtsortRecord, child, root, t0, t1);
                                (batch.contains(key), false)
                            }
                            Layers::C {
                                sieve,
                                lru,
                                mct_len_max,
                                calls,
                                evictions,
                            } => {
                                let hit = lru.touch(key);
                                calls.push(key, false);
                                let mut granted = false;
                                if !hit {
                                    let child = spans.child(root);
                                    let t1 = clock::ticks();
                                    granted =
                                        sieve.on_miss(key, req.block_completion_time(i as u32));
                                    spans.record(
                                        Layer::SieveOnMiss,
                                        child,
                                        root,
                                        t1,
                                        clock::ticks(),
                                    );
                                    *mct_len_max = (*mct_len_max).max(sieve.mct_len());
                                    if granted {
                                        *evictions += u64::from(lru.insert(key).is_some());
                                        calls.push(key, true);
                                    }
                                }
                                (hit, granted)
                            }
                        };
                        spans.record(Layer::CoreAccess, root, SpanId::NONE, t0, clock::ticks());
                        acct.day_mut(day).record_access(req.kind, hit, allocated);
                        match (hit, req.kind.is_read()) {
                            (true, true) => read_hits += 1,
                            (true, false) => write_hits += 1,
                            _ => {}
                        }
                        allocs += u64::from(allocated);
                        blocks += 1;
                    }
                    let root = spans.root();
                    let t0 = clock::ticks();
                    acct.record_pages(req, read_hits, write_hits, allocs);
                    spans.record(Layer::SsdRecord, root, SpanId::NONE, t0, clock::ticks());
                    requests += 1;
                }
                stream.recycle(chunk);
            }
            StreamMsg::Failed(e) => return Err(format!("trace stream failed: {e}")),
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Traced {
        drives_needed_max: acct.drives_needed_max(),
        days: acct.days,
        wall_s,
        spans,
        layers,
        requests,
        blocks,
        batch_allocations,
    })
}

/// The cache-call sequence of a replay: keys, and which calls were
/// inserts (the rest are touches). Recording stops at
/// [`CACHE_CALLS_MAX`] calls.
#[derive(Debug, Default)]
struct CacheCalls {
    keys: Vec<u64>,
    inserts: Vec<u64>,
}

impl CacheCalls {
    fn push(&mut self, key: u64, insert: bool) {
        let i = self.keys.len();
        if i >= CACHE_CALLS_MAX {
            return;
        }
        if i.is_multiple_of(64) {
            self.inserts.push(0);
        }
        self.keys.push(key);
        if insert {
            self.inserts[i / 64] |= 1 << (i % 64);
        }
    }

    fn is_insert(&self, i: usize) -> bool {
        self.inserts[i / 64] >> (i % 64) & 1 == 1
    }
}

/// Mean nanoseconds per touch and per insert of one cache structure
/// replaying `calls`. Runs of consecutive touches are timed as one span
/// (their timer cost amortizes); each insert is timed alone, less the
/// measured cost of reading the clock.
struct CacheTiming {
    touch_ns: f64,
    insert_ns: f64,
}

trait CacheUnderTest {
    fn touch(&mut self, key: u64) -> bool;
    fn insert(&mut self, key: u64) -> Option<u64>;
}

impl CacheUnderTest for LruCache {
    fn touch(&mut self, key: u64) -> bool {
        LruCache::touch(self, key)
    }
    fn insert(&mut self, key: u64) -> Option<u64> {
        LruCache::insert(self, key)
    }
}

impl CacheUnderTest for SieveCache {
    fn touch(&mut self, key: u64) -> bool {
        SieveCache::touch(self, key)
    }
    fn insert(&mut self, key: u64) -> Option<u64> {
        SieveCache::insert(self, key)
    }
}

fn time_cache_calls<C: CacheUnderTest>(
    cache: &mut C,
    calls: &CacheCalls,
    clock_ns: f64,
) -> CacheTiming {
    let (mut touch_ns, mut touches, mut insert_ns, mut inserts) = (0u64, 0u64, 0f64, 0u64);
    let mut i = 0;
    let n = calls.keys.len();
    while i < n {
        if calls.is_insert(i) {
            let t0 = clock::ticks();
            std::hint::black_box(cache.insert(calls.keys[i]));
            insert_ns += (clock::ns_between(t0, clock::ticks()) as f64 - clock_ns).max(0.0);
            inserts += 1;
            i += 1;
        } else {
            let t0 = clock::ticks();
            let start = i;
            while i < n && !calls.is_insert(i) {
                std::hint::black_box(cache.touch(calls.keys[i]));
                i += 1;
            }
            touch_ns += clock::ns_between(t0, clock::ticks());
            touches += (i - start) as u64;
        }
    }
    CacheTiming {
        touch_ns: touch_ns as f64 / touches.max(1) as f64,
        insert_ns: insert_ns / inserts.max(1) as f64,
    }
}

/// Drains the trace stream alone: the generator's cost without replay.
fn drain_stream(trace: &SyntheticTrace, cfg: &SimConfig) -> Result<f64, String> {
    let started = Instant::now();
    let mut stream = trace.stream(cfg.trace_stream.clone());
    while let Some(msg) = stream.next_msg() {
        match msg {
            StreamMsg::Chunk(chunk) => stream.recycle(chunk),
            StreamMsg::StartDay(_) => {}
            StreamMsg::Failed(e) => return Err(format!("trace stream failed: {e}")),
        }
    }
    Ok(started.elapsed().as_secs_f64())
}

/// The traced run: traced rounds, each over the next of the seed's
/// traces, while `--seconds` lasts (at least one); each per-layer metric
/// is the median over rounds.
pub fn run_traced(family: Family, args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let mut rounds = Vec::new();
    while another_round(rounds.len(), started.elapsed().as_secs_f64(), args.seconds) {
        let mine = args.share(TRACES);
        let trace = trace_for(args.seed, mine[rounds.len() % mine.len()])?;
        rounds.push(traced_round(
            family,
            &trace,
            args,
            rounds.len(),
            &mut outcome,
        )?);
    }
    outcome.set_medians(&rounds);
    note_sizes(&mut outcome, family, args);
    outcome.note("traced_rounds", rounds.len());
    Ok(outcome)
}

/// One traced round: drains the stream alone, times the untraced
/// sequential (and, for D, sharded) replay, runs the traced driver and
/// checks it against `simulate`, and splits its wall time by layer.
fn traced_round(
    family: Family,
    trace: &SyntheticTrace,
    args: &RunArgs,
    index: usize,
    outcome: &mut Outcome,
) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let dir = scratch(args, "gen")?;
    m.insert(
        "trace.gen_s",
        drain_stream(trace, &family.sim_config(Some(&dir)))?,
    );
    let _ = std::fs::remove_dir_all(&dir);

    // The untraced reference: the sequential engine over the same
    // configuration the traced driver runs (spill included for D).
    let dir = scratch(args, "sequential")?;
    let started = Instant::now();
    let reference = simulate(trace, family.policy(), &family.sim_config(Some(&dir)))
        .map_err(|e| e.to_string())?;
    let sequential_s = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch(args, "traced")?;
    let traced = traced_replay(family, trace, &family.sim_config(Some(&dir)))?;
    let _ = std::fs::remove_dir_all(&dir);
    check_days(
        outcome,
        "traced driver vs simulate",
        &traced.days,
        &reference.days,
    );
    println!(
        "{family:?} traced round {index}: traced {:.3} s, untraced sequential {sequential_s:.3} s",
        traced.wall_s
    );

    let spans = &traced.spans;
    let covered = spans.busy_s(Layer::TraceWait)
        + spans.busy_s(Layer::CoreAccess)
        + spans.busy_s(Layer::CoreDayBoundary)
        + spans.busy_s(Layer::SsdRecord);
    m.insert("trace.wait_s", spans.busy_s(Layer::TraceWait));
    m.insert("trace.requests", traced.requests as f64);
    m.insert("trace.blocks", traced.blocks as f64);
    m.insert("sim.residual_s", traced.wall_s - covered);
    m.insert("core.access_s", spans.busy_s(Layer::CoreAccess));
    m.insert("core.access_calls", spans.calls(Layer::CoreAccess) as f64);
    m.insert("core.day_boundary_s", spans.busy_s(Layer::CoreDayBoundary));
    m.insert("core.batch_allocations", traced.batch_allocations as f64);
    m.insert("ssd.record_s", spans.busy_s(Layer::SsdRecord));
    m.insert("ssd.drives_needed_max", f64::from(traced.drives_needed_max));
    m.insert("trace_overhead_frac", traced.wall_s / sequential_s);

    match &traced.layers {
        Layers::D {
            spills, selected, ..
        } => {
            let dir = scratch(args, "sharded")?;
            let started = Instant::now();
            let (sharded, stats) = simulate_sharded(
                trace,
                family.policy(),
                &family.sim_config(Some(&dir)),
                shards(args),
            )
            .map_err(|e| e.to_string())?;
            let sharded_s = started.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(&dir);
            check_days(
                outcome,
                "sharded vs sequential",
                &sharded.days,
                &reference.days,
            );
            m.insert("sim.replay.imbalance", stats.imbalance());
            m.insert("sim.replay.steals", stats.steals as f64);
            m.insert("sim.sharded_speedup", sequential_s / sharded_s);
            m.insert("extsort.record_s", spans.busy_s(Layer::ExtsortRecord));
            m.insert("extsort.finish_s", spans.busy_s(Layer::ExtsortFinish));
            m.insert("extsort.spills", *spills as f64);
            m.insert("extsort.selected", *selected as f64);
        }
        Layers::C {
            sieve,
            mct_len_max,
            calls,
            evictions,
            ..
        } => {
            m.insert("sieve.on_miss_s", spans.busy_s(Layer::SieveOnMiss));
            m.insert(
                "sieve.on_miss_calls",
                spans.calls(Layer::SieveOnMiss) as f64,
            );
            m.insert(
                "sieve.grant_ratio",
                sieve.granted() as f64 / sieve.misses_seen().max(1) as f64,
            );
            m.insert("sieve.graduated", sieve.graduated() as f64);
            m.insert("sieve.mct_len_max", *mct_len_max as f64);
            m.insert("sieve.memory_bytes", sieve.memory_bytes() as f64);
            let clock_ns = clock::empty_span_ns();
            let capacity = family.sim_config(None).capacity_blocks;
            let lru = time_cache_calls(&mut LruCache::new(capacity), calls, clock_ns);
            let sieve_cache = time_cache_calls(&mut SieveCache::new(capacity), calls, clock_ns);
            m.insert("cache.lru.touch_ns", lru.touch_ns);
            m.insert("cache.lru.insert_ns", lru.insert_ns);
            m.insert("cache.sieve.touch_ns", sieve_cache.touch_ns);
            m.insert("cache.sieve.insert_ns", sieve_cache.insert_ns);
            m.insert("cache.evictions", *evictions as f64);
            outcome.note("cache_calls_replayed", calls.keys.len());
            outcome.note("clock_empty_span_ns", format!("{clock_ns:.1}"));
        }
    }
    if index == 0 {
        let path = args.out_dir.join(format!(
            "{}-seed{}-part{}-spans.jsonl",
            family.name(),
            args.seed,
            args.part
        ));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome.note("spans", path.display());
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day(hits: u64) -> DayMetrics {
        DayMetrics {
            read_hits: hits,
            read_misses: 10,
            ..DayMetrics::default()
        }
    }

    #[test]
    fn day_check_fires_on_an_injected_mismatch() {
        let reference = vec![day(1), day(2)];
        let mut outcome = Outcome::default();
        check_days(&mut outcome, "same", &reference.clone(), &reference);
        assert_eq!((outcome.attempted, outcome.failed), (23, 0));

        let mut injected = reference.clone();
        injected[1].read_hits += 1;
        check_days(&mut outcome, "injected", &injected, &reference);
        assert_eq!(outcome.failed, 24);
        assert!(
            outcome.failures[0].contains("day 1 differs"),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn cache_calls_remember_inserts() {
        let mut calls = CacheCalls::default();
        for i in 0..200u64 {
            calls.push(i, i % 3 == 0);
        }
        assert!(calls.is_insert(0) && !calls.is_insert(1) && calls.is_insert(129));
        let timing = time_cache_calls(&mut LruCache::new(16), &calls, 0.0);
        assert!(timing.touch_ns >= 0.0 && timing.insert_ns >= 0.0);
    }
}
