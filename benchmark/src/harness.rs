//! Command line, clocks, percentiles, host facts and result printing —
//! everything the workloads share that is not a workload.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::metrics::{END_TO_END, PER_LAYER};

/// Parsed command line of one run (one process = one workload).
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tooling run (`check.sh`): one set-up, short warm-up, small checks.
    pub smoke: bool,
}

pub const USAGE: &str = "usage: stopss-benchmark --workload <name> [--seed N] [--seconds S] \
                         [--trace 0|1 | --traced] [--smoke]";

impl Args {
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args =
            Args { workload: String::new(), seed: 1, seconds: 12.0, trace: false, smoke: false };
        let mut argv = argv.skip(1);
        while let Some(flag) = argv.next() {
            let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => args.workload = value("a name")?,
                "--seed" => {
                    args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    args.seconds =
                        value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--traced" => args.trace = true,
                "--smoke" => args.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if !(args.seconds > 0.0 && args.seconds <= 600.0) {
            return Err("--seconds must lie in (0, 600]".into());
        }
        if args.smoke {
            args.seconds = args.seconds.min(0.2);
        }
        Ok(args)
    }

    /// Timed set-ups per run; `setup_s` is their median.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            3
        }
    }

    /// `full` scaled down for tooling runs.
    pub fn scaled(&self, full: usize) -> usize {
        if self.smoke {
            (full / 20).max(8)
        } else {
            full
        }
    }
}

/// A deadline the timed loops poll with timestamps they take anyway.
#[derive(Clone, Copy)]
pub struct Deadline {
    pub start: Instant,
    pub end: Instant,
}

impl Deadline {
    pub fn after(seconds: f64) -> Deadline {
        let start = Instant::now();
        Deadline { start, end: start + Duration::from_secs_f64(seconds) }
    }

    pub fn passed(&self, now: Instant) -> bool {
        now >= self.end
    }
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Latency samples in constant memory: a log-linear histogram (256
/// buckets per power of two, so a bucket is at most 0.4 % wide) with
/// percentiles interpolated inside the bucket. A plain `Vec` of samples
/// would grow with the number of operations a run completes — millions of
/// notifications on `serve-fanout` — and so make `peak_rss_mb` rise
/// whenever the program under test gets faster. An octave's buckets are
/// allocated when the first sample lands in it (a run's latencies span a
/// handful), so the forty histograms of a run cost kilobytes, not the
/// megabytes that would show in a 7 MiB workload's peak RSS.
#[derive(Clone, Default)]
pub struct Latencies {
    /// `octaves[k]` holds the `SUB` buckets of indices `k * SUB ..`;
    /// empty until touched.
    octaves: Vec<Vec<u64>>,
    len: u64,
}

const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;

impl Latencies {
    fn bucket(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let shift = 63 - value.leading_zeros() - SUB_BITS;
        ((((shift + 1) as u64) << SUB_BITS) + ((value >> shift) & (SUB - 1))) as usize
    }

    /// Lower bound and width of bucket `index`.
    fn bounds(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < SUB {
            return (index, 1);
        }
        let shift = (index >> SUB_BITS) - 1;
        ((SUB + (index & (SUB - 1))) << shift, 1 << shift)
    }

    fn add(&mut self, index: usize, count: u64) {
        let (octave, slot) = (index >> SUB_BITS, index & (SUB as usize - 1));
        if self.octaves.len() <= octave {
            self.octaves.resize(octave + 1, Vec::new());
        }
        if self.octaves[octave].is_empty() {
            self.octaves[octave] = vec![0; SUB as usize];
        }
        self.octaves[octave][slot] += count;
        self.len += count;
    }

    pub fn push(&mut self, ns: u64) {
        self.add(Self::bucket(ns), 1);
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Non-empty buckets as `(index, count)`, ascending.
    fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.octaves.iter().enumerate().flat_map(|(octave, slots)| {
            slots
                .iter()
                .enumerate()
                .filter(|(_, count)| **count > 0)
                .map(move |(slot, count)| ((octave << SUB_BITS) + slot, *count))
        })
    }

    /// The `p`-quantile (0 when empty), interpolated by rank inside its
    /// bucket so equal-looking runs do not print equal digits.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let rank = (self.len - 1) as f64 * p;
        let mut below = 0u64;
        for (index, count) in self.buckets() {
            if rank < (below + count) as f64 {
                let (low, width) = Self::bounds(index);
                let within = (rank - below as f64 + 0.5) / count as f64;
                return low as f64 + width as f64 * within.clamp(0.0, 1.0);
            }
            below += count;
        }
        0.0
    }

    fn merge(&mut self, other: &Latencies) {
        for (index, count) in other.buckets() {
            self.add(index, count);
        }
    }
}

/// Windows a timed section is cut into.
const WINDOWS: usize = 20;

/// Where in the windows, ordered best to worst, a run's value is read.
const BEST_SHARE: f64 = 0.15;

/// The timed section cut into equal windows, each with its own event
/// count and latency histogram; a run's value is read at the
/// [`BEST_SHARE`] quantile of the windows ordered from best to worst
/// (the 4th best of 20). The shared two-vCPU hosts this runs on flip
/// between a fast and a slow state every few seconds — the two-thread
/// workloads lose 25–30 % in the slow one — and a run spends anything
/// from none to most of its windows there. Whole-run means and medians
/// over windows therefore read the host's mood (run-to-run spreads of
/// 10–35 %); the undisturbed windows read the program. Taking the 4th
/// best rather than the best keeps a lucky window or two from setting
/// the value.
pub struct Windows {
    start: Instant,
    width: Duration,
    events: Vec<u64>,
    latencies: Vec<Latencies>,
}

impl Windows {
    pub fn new(start: Instant, seconds: f64) -> Windows {
        Windows {
            start,
            width: Duration::from_secs_f64(seconds / WINDOWS as f64),
            events: vec![0; WINDOWS],
            latencies: vec![Latencies::default(); WINDOWS],
        }
    }

    /// The window `at` falls in; what finishes after the deadline counts
    /// into the last window.
    fn index(&self, at: Instant) -> usize {
        let elapsed = at.saturating_duration_since(self.start).as_nanos();
        ((elapsed / self.width.as_nanos().max(1)) as usize).min(WINDOWS - 1)
    }

    /// Counts `n` publications completed at `at`.
    pub fn events(&mut self, at: Instant, n: u64) {
        let index = self.index(at);
        self.events[index] += n;
    }

    /// Records one latency of the gated operation, completed at `at`.
    pub fn latency(&mut self, at: Instant, ns: u64) {
        let index = self.index(at);
        self.latencies[index].push(ns);
    }

    /// Publications per second of every window, in order (diagnostics:
    /// shows whether a run was disturbed, and for how long).
    pub fn rates(&self) -> Vec<f64> {
        self.events.iter().map(|n| *n as f64 / self.width.as_secs_f64()).collect()
    }

    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    pub fn samples(&self) -> usize {
        self.latencies.iter().map(Latencies::len).sum()
    }

    /// `values` ordered best first, read at [`BEST_SHARE`].
    fn near_best(mut values: Vec<f64>, higher_is_better: bool) -> f64 {
        values.sort_by(f64::total_cmp);
        if higher_is_better {
            values.reverse();
        }
        values[(values.len() as f64 * BEST_SHARE) as usize]
    }

    /// Publications per second of the undisturbed windows.
    pub fn events_per_sec(&self) -> f64 {
        Self::near_best(self.rates(), true)
    }

    /// The `p`-quantile of the undisturbed window groups. Adjacent
    /// windows are merged (1, 2, 4, … at a time) until every group holds
    /// the samples its percentile needs; with fewer than three such
    /// groups the whole run is one group. Returns the value and the
    /// number of groups it was read from.
    pub fn percentile(&self, p: f64) -> (f64, usize) {
        for size in [1, 2, 4, WINDOWS] {
            let groups: Vec<Latencies> = self
                .latencies
                .chunks(size)
                .map(|chunk| {
                    let mut merged = Latencies::default();
                    chunk.iter().for_each(|w| merged.merge(w));
                    merged
                })
                .collect();
            if size == WINDOWS || groups.iter().all(|g| g.len() >= 20 && supported(g.len(), p)) {
                let values: Vec<f64> = groups.iter().map(|g| g.percentile(p)).collect();
                let groups = values.len();
                return (Self::near_best(values, false), groups);
            }
        }
        unreachable!("the last group size always returns")
    }
}

/// Windows of a pass that is not measured (warm-up, check passes).
impl Default for Windows {
    fn default() -> Self {
        Windows::new(Instant::now(), 1.0)
    }
}

/// A percentile is supported only when ten samples lie beyond it.
pub fn supported(samples: usize, p: f64) -> bool {
    samples as f64 * (1.0 - p) >= 10.0
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of unsorted nanosecond samples (0 when empty).
pub fn median_ns(mut values: Vec<u64>) -> f64 {
    values.sort_unstable();
    percentile(&values, 0.5) as f64
}

/// Runs `setup` `repeats` times, tearing the previous instance down first
/// so only one is alive at a time (peak RSS stays one workload's). Returns
/// the last instance and the seconds each set-up reported.
pub fn timed_setups<T>(
    repeats: usize,
    mut setup: impl FnMut() -> (T, f64),
    teardown: impl Fn(T),
) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(repeats);
    let mut built: Option<T> = None;
    for _ in 0..repeats.max(1) {
        if let Some(previous) = built.take() {
            teardown(previous);
        }
        let (instance, took) = setup();
        seconds.push(took);
        built = Some(instance);
    }
    (built.expect("at least one set-up ran"), seconds)
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Correctness-check ledger: every check counts one attempted op, every
/// mismatch one failed op and one printed reason.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Ledger {
    /// Counts `n` operations that ran on the real path.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 20 {
            self.reasons.push(reason);
        }
    }
}

/// One workload's end-to-end result (tracing off).
pub struct EndToEnd {
    /// Seconds of each timed set-up repetition.
    pub setup_s: Vec<f64>,
    /// Publications completed and latencies of the workload's gated
    /// operation, by window of the timed section.
    pub windows: Windows,
    /// Which operation the latencies time (printed, not parsed).
    pub latency_of: &'static str,
    /// `VmHWM` when the timed section ended (before the checks build
    /// their reference instances).
    pub peak_rss_mb: f64,
    /// Deterministic facts and secondary latencies, printed by name.
    pub facts: Vec<(String, String)>,
}

/// What a run hands back to `main` for printing.
pub enum Outcome {
    EndToEnd(EndToEnd),
    /// Per-layer metric values by name (traced run).
    Layers(Vec<(&'static str, f64)>),
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit the measurement has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_object(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the human-readable metric table, the self-describing `record`
/// line (host fingerprint, seed, sample counts — what `compare.sh`
/// reads) and, last, the result object the benchmark contract asks for.
pub fn print_result(args: &Args, outcome: &Outcome, ledger: &Ledger) {
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut samples: Vec<(&str, usize)> = Vec::new();
    match outcome {
        Outcome::EndToEnd(e) => {
            let (p50, p50_groups) = e.windows.percentile(0.50);
            let (p99, p99_groups) = e.windows.percentile(0.99);
            let values =
                [median_f64(&e.setup_s), e.windows.events_per_sec(), p50, p99, e.peak_rss_mb];
            for ((name, unit), value) in END_TO_END.iter().zip(values) {
                metrics.push((name, value, unit));
            }
            samples.push(("setup_s", e.setup_s.len()));
            samples.push(("events_per_sec", e.windows.total_events() as usize));
            samples.push(("p50_latency_ns", e.windows.samples()));
            samples.push(("p99_latency_ns", e.windows.samples()));
            println!("latency_of {}", e.latency_of);
            let rates: Vec<String> = e.windows.rates().iter().map(|r| format!("{r:.0}")).collect();
            println!("window_events_per_sec {}", rates.join(" "));
            println!(
                "read_from events_per_sec {WINDOWS} windows, p50_latency_ns {p50_groups} \
                 window groups, p99_latency_ns {p99_groups} window groups"
            );
            if !supported(e.windows.samples(), 0.99) {
                println!(
                    "undersampled p99_latency_ns: {} samples, fewer than ten beyond the \
                     percentile — lengthen the run before reading it",
                    e.windows.samples()
                );
            }
            for (name, value) in &e.facts {
                println!("fact {name} {value}");
            }
        }
        Outcome::Layers(values) => {
            for (name, unit) in &PER_LAYER {
                let value = values.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
                metrics.push((name, value, unit));
            }
        }
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} {} {unit}", json_number(*value));
    }
    println!("ops_attempted {}", ledger.attempted);
    println!("ops_failed {}", ledger.failed);
    for reason in &ledger.reasons {
        println!("FAILED {reason}");
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    let pinned = std::env::var("BENCH_PINNED_CPU").unwrap_or_else(|_| "none".into());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let samples_json: Vec<String> =
        samples.iter().map(|(n, c)| format!("{}: {c}", json_string(n))).collect();
    let metrics_json = metrics_object(&metrics);
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"smoke\": {}, \"host\": {{\"nproc\": {nproc}, \"pinned_cpu\": {}, \"rustc\": {}, \"profile\": {}}}, \
         \"samples\": {{{}}}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}}}",
        json_string(&args.workload),
        args.seed,
        json_number(args.seconds),
        args.trace,
        args.smoke,
        json_string(&pinned),
        json_string(&rustc),
        json_string(profile),
        samples_json.join(", "),
        ledger.attempted,
        ledger.failed,
        metrics_json,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        ledger.failed == 0,
        ledger.attempted.max(1),
        ledger.failed,
    );
}
