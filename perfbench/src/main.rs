//! The repository benchmark: one workload per process.
//!
//! ```sh
//! perfbench --workload replay-c --seed 1 --seconds 10 --trace 0 \
//!     --tmp-dir .bench_tmp/run1 --out-dir .bench_out
//! ```
//!
//! Prints progress lines, one `{"provenance": ...}` line with the
//! workload's size parameters and sample counts, and — as the last line —
//! the result object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced drivers and reports the per-layer metrics instead. See
//! `perfbench/README.md` for what each workload and metric means.

mod clock;
mod node;
mod replay;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("hit_ratio", "fraction"),
    ("alloc_write_frac", "fraction"),
    ("peak_rss_mib", "MiB"),
    ("verified_frac", "fraction"),
];

/// Per-layer metrics of the traced run. A layer a workload does not run
/// reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("trace.gen_s", "s"),
    ("trace.wait_s", "s"),
    ("trace.requests", "count"),
    ("trace.blocks", "count"),
    ("sim.replay.imbalance", "ratio"),
    ("sim.replay.steals", "count"),
    ("sim.sharded_speedup", "ratio"),
    ("sim.residual_s", "s"),
    ("core.access_s", "s"),
    ("core.access_calls", "count"),
    ("core.day_boundary_s", "s"),
    ("core.batch_allocations", "count"),
    ("sieve.on_miss_s", "s"),
    ("sieve.on_miss_calls", "count"),
    ("sieve.grant_ratio", "ratio"),
    ("sieve.graduated", "count"),
    ("sieve.mct_len_max", "count"),
    ("sieve.memory_bytes", "bytes"),
    ("cache.lru.touch_ns", "ns"),
    ("cache.lru.insert_ns", "ns"),
    ("cache.sieve.touch_ns", "ns"),
    ("cache.sieve.insert_ns", "ns"),
    ("cache.evictions", "count"),
    ("extsort.record_s", "s"),
    ("extsort.finish_s", "s"),
    ("extsort.spills", "count"),
    ("extsort.selected", "count"),
    ("ssd.record_s", "s"),
    ("ssd.drives_needed_max", "count"),
    ("client.wait_s", "s"),
    ("client.retries", "count"),
    ("protocol.req_encode_ns", "ns"),
    ("protocol.req_parse_ns", "ns"),
    ("protocol.reply_encode_ns", "ns"),
    ("protocol.reply_parse_ns", "ns"),
    ("store.read_ns", "ns"),
    ("store.write_ns", "ns"),
    ("node.service_gap_us", "us"),
    ("node.read_p999_us", "us"),
    ("trace_overhead_frac", "ratio"),
];

/// Workload names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["replay-d-spill", "replay-c", "node-mixed"];

/// What one run needs to know.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Input seed; the same seed generates the same inputs.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Unique scratch directory of this run (spill files), removed by
    /// the caller on exit.
    pub tmp_dir: PathBuf,
    /// Where the traced run writes its span log.
    pub out_dir: PathBuf,
    /// Worker count for the parallel parts (replay shards, client
    /// connections).
    pub nproc: usize,
    /// This process's index among the run's `parts` processes.
    pub part: usize,
    /// Processes the run is split into (see `run.py`).
    pub parts: usize,
}

impl RunArgs {
    /// This process's share of `n` inputs: every `parts`-th index from
    /// `part` on (never empty: extra processes share index `part % n`).
    pub fn share(&self, n: usize) -> Vec<usize> {
        let mine: Vec<usize> = (self.part..n).step_by(self.parts).collect();
        if mine.is_empty() {
            vec![self.part % n]
        } else {
            mine
        }
    }
}

/// Metric values of one round, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload reports back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: Metrics,
    /// Operations attempted (block accesses replayed, requests sent).
    pub attempted: u64,
    /// Attempted operations that failed or could not be verified.
    pub failed: u64,
    /// Why verification failed, one line per failed check.
    pub failures: Vec<String>,
    /// Size parameters and sample counts, for the provenance record.
    pub provenance: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets every metric measured in `rounds` to its median over them.
    pub fn set_medians(&mut self, rounds: &[Metrics]) {
        let names: std::collections::BTreeSet<&'static str> =
            rounds.iter().flat_map(|r| r.keys().copied()).collect();
        for name in names {
            let values: Vec<f64> = rounds.iter().filter_map(|r| r.get(name).copied()).collect();
            if let Some(m) = stats::median(&values) {
                self.set(name, m);
            }
        }
    }

    /// Records a provenance field.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.insert(key, value.to_string());
    }

    /// Counts `ops` operations, all of which failed verification when
    /// `ok` is false (with `why` as the reason).
    pub fn verify(&mut self, ops: u64, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.failures.push(why());
        }
    }
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     --tmp-dir DIR --out-dir DIR [--deadline-s S] [--part I --parts P]";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perfbench: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tmp_dir = None;
    let mut out_dir = None;
    let mut deadline_s = 160.0;
    let (mut part, mut parts) = (0usize, 1usize);
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(parse::<u64>(&value()?, "--seed")?),
            "--seconds" => seconds = Some(parse::<f64>(&value()?, "--seconds")?),
            "--trace" => trace = Some(parse::<u8>(&value()?, "--trace")?),
            "--tmp-dir" => tmp_dir = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--deadline-s" => deadline_s = parse::<f64>(&value()?, "--deadline-s")?,
            "--part" => part = parse::<usize>(&value()?, "--part")?,
            "--parts" => parts = parse::<usize>(&value()?, "--parts")?,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{USAGE}");
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let traced = match trace.ok_or_else(|| missing("--trace"))? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if parts == 0 || part >= parts {
        return Err(format!("--part {part} must be below --parts {parts}"));
    }
    let args = RunArgs {
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        tmp_dir: tmp_dir.ok_or_else(|| missing("--tmp-dir"))?,
        out_dir: out_dir.ok_or_else(|| missing("--out-dir"))?,
        nproc: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        part,
        parts,
    };
    std::fs::create_dir_all(&args.tmp_dir).map_err(|e| format!("creating tmp dir: {e}"))?;
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("creating out dir: {e}"))?;
    arm_deadline(Duration::from_secs_f64(deadline_s), &workload);

    let started = Instant::now();
    let mut outcome = match (workload.as_str(), traced) {
        ("replay-d-spill", false) => replay::run(replay::Family::DSpill, &args)?,
        ("replay-c", false) => replay::run(replay::Family::C, &args)?,
        ("replay-d-spill", true) => replay::run_traced(replay::Family::DSpill, &args)?,
        ("replay-c", true) => replay::run_traced(replay::Family::C, &args)?,
        ("node-mixed", false) => node::run(&args)?,
        ("node-mixed", true) => node::run_traced(&args)?,
        _ => unreachable!("workload validated above"),
    };
    outcome.note("workload", &workload);
    outcome.note("seed", args.seed);
    outcome.note("part", format!("{part}/{parts}"));
    outcome.note("trace", u8::from(traced));
    outcome.note("nproc", args.nproc);
    outcome.note("cpu_model", cpu_model());
    outcome.note("wall_s", format!("{:.3}", started.elapsed().as_secs_f64()));

    let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for (name, _) in names {
        if traced {
            outcome.metrics.entry(name).or_insert(0.0);
        } else if !outcome.metrics.contains_key(name) {
            return Err(format!("workload {workload} did not measure {name}"));
        }
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", provenance_json(&outcome));
    println!("{}", result_json(&outcome, names));
    Ok(if outcome.failed == 0 && outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse '{text}'"))
}

/// Kills the process with a reason once `limit` has passed: no phase of a
/// run may hang, whatever it waits on.
fn arm_deadline(limit: Duration, workload: &str) {
    let workload = workload.to_string();
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "perfbench: error: {workload} exceeded its {:.0} s deadline",
            limit.as_secs_f64()
        );
        std::process::exit(3);
    });
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Whether another round fits: `done` rounds took `elapsed` seconds, and
/// one more of their mean length must end within `seconds`. The first
/// round always runs.
pub fn another_round(done: usize, elapsed: f64, seconds: f64) -> bool {
    done == 0 || elapsed + elapsed / done as f64 <= seconds
}

/// Peak resident set of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    sievestore_types::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values cannot occur in a valid
/// result and are written as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn provenance_json(outcome: &Outcome) -> String {
    let fields: Vec<String> = outcome
        .provenance
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    format!("{{\"provenance\":{{{}}}}}", fields.join(","))
}

fn result_json(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                json_number(outcome.metrics[name]),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        outcome.verify(10, true, String::new);
        let line = result_json(&outcome, &END_TO_END);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
    }

    #[test]
    fn a_failed_check_marks_the_result_incorrect() {
        let mut outcome = Outcome::default();
        for (name, _) in END_TO_END {
            outcome.set(name, 1.0);
        }
        outcome.verify(7, false, || "mismatch".into());
        let line = result_json(&outcome, &END_TO_END);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":7,\"failed\":7,"));
    }

    #[test]
    fn rounds_stop_before_overrunning() {
        assert!(another_round(0, 0.0, 1.0));
        assert!(another_round(0, 5.0, 1.0));
        assert!(another_round(2, 2.0, 3.0));
        assert!(!another_round(2, 2.0, 2.9));
    }

    #[test]
    fn processes_share_the_inputs_out() {
        let args = |part, parts| RunArgs {
            seed: 0,
            seconds: 1.0,
            tmp_dir: PathBuf::new(),
            out_dir: PathBuf::new(),
            nproc: 1,
            part,
            parts,
        };
        assert_eq!(args(1, 4).share(8), vec![1, 5]);
        assert_eq!(args(0, 1).share(3), vec![0, 1, 2]);
        assert_eq!(args(3, 4).share(2), vec![1]);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
