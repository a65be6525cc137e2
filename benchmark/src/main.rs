//! The repository benchmark.
//!
//! ```text
//! dls-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! dls-benchmark --smoke
//! ```
//!
//! One process runs one workload from a single closed-loop client (the
//! program's own `par_map` uses at most `available_parallelism` threads).
//! `--trace 0` measures the end-to-end metrics; `--trace 1` records the
//! benchmark's own spans around every layer call and prints the per-layer
//! metrics instead, after running the same workload untraced in a child
//! process for the overhead ratios. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the process
//! exits nonzero when a check fails other than a recorded known failure.
//! `--smoke` alone runs a tiny pass of every workload, in both modes, each
//! in its own process. See README.md for the workloads and metrics.

mod lp_scaling;
mod paper;
mod registry;
mod spans;
mod sys;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use spans::Recorder;

/// Workload names, in the order `--smoke` runs them and `BENCHMARK.json`
/// lists them.
const WORKLOADS: [&str; 4] = [
    "paper_repro",
    "lp_scaling",
    "registry_revisit",
    "paper_traced",
];

/// End-to-end metrics (untraced run) with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("pass_s", "s"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics every workload measures, with their units; each
/// workload adds its own (`Workload::layer_table`).
const COMMON_LAYER: [(&str, &str); 5] = [
    ("core.warm_start_ratio", "ratio"),
    ("obs.rss_growth_mb_per_pass", "MB"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.span_overhead_ratio", "ratio"),
    ("bench.machine_ref_ms", "ms"),
];

/// Set-ups per run; `setup_s` is their trimmed mean.
const SETUP_REPS: u64 = 21;

/// Fewest passes a run measures.
const MIN_PASSES: usize = 3;

/// A run that has taken this many times its seconds stops before its last
/// pass; at the usual speeds of the reference machine (0.5x to 1x) it never
/// does.
const SLOW_CAP: f64 = 4.0;

/// Share of the samples dropped at each end before averaging the passes,
/// their latency quantiles and the set-ups (see the end-to-end metrics).
const TRIM: f64 = 0.2;

/// Nominal pass time per reference-kernel run beside a pass.
const KERNEL_EVERY_S: f64 = 0.1;

/// Passes after which `peak_rss_mb` is read. Memory grows with every pass
/// (the thread-local `BasisCache` is unbounded; `paper_traced` keeps its
/// trace buffers), so reading it at a fixed pass keeps it independent of
/// how many passes a run makes.
const RSS_PASSES: usize = 10;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order: the
/// common ones, then each workload's own. A traced run prints all of them;
/// one its workload does not measure reads 0.
fn per_layer_table() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = COMMON_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for w in WORKLOADS {
        let workload = make_workload(w, false).expect("listed workloads exist");
        for metric in workload.layer_table() {
            if !out.contains(&metric) {
                out.push(metric);
            }
        }
    }
    out
}

/// Op accounting: every benchmark-issued op with its checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed ops matching a recorded known defect (see README.md).
    pub known: u64,
    /// Strategies that refused a platform (applicability), not attempted.
    pub refusals: u64,
    /// Failed checks other than known defects (first few kept).
    pub problems: Vec<String>,
    pub unexpected: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// One op whose checks gave `problems` (none = passed).
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.unexpected += 1;
            for p in problems {
                if self.problems.len() < 20 {
                    self.problems.push(p);
                }
            }
        }
    }

    pub fn known_failure(&mut self) {
        self.attempted += 1;
        self.failed += 1;
        self.known += 1;
    }
}

/// Everything a workload reads and writes while it runs.
pub struct Ctx {
    pub seed: u64,
    pub rec: Recorder,
    pub tally: Tally,
    /// Latency of each benchmark-issued solve op, in ms, one list per pass
    /// (the last is the current pass's).
    pub latencies_ms: Vec<Vec<f64>>,
    /// Scratch directory for artefacts, inside the benchmark's directory.
    pub scratch: PathBuf,
}

pub trait Workload {
    /// Working set of the reference kernel, in 64-bit words: about the
    /// workload's own, so that the kernel feels the cache contention from
    /// other tenants that the workload feels. The default, 256 KiB, fits in
    /// L2 like the LPs of p <= 48.
    fn kernel_words(&self) -> usize {
        1 << 15
    }
    /// Wall time of one pass on the reference machine; a run of `s`
    /// seconds measures `s / nominal_pass_s` passes.
    fn nominal_pass_s(&self) -> f64;
    /// One set-up: provider installs, generation of the inputs of `passes`
    /// passes, and one untimed warm-up op on inputs of its own (`rep`).
    fn setup(&mut self, ctx: &mut Ctx, passes: usize, rep: u64);
    /// One timed pass over the inputs drawn for pass `index`.
    fn pass(&mut self, ctx: &mut Ctx, index: usize);
    /// Untimed work after a pass (latency probes, deferred strategies).
    fn after_pass(&mut self, _ctx: &mut Ctx, _index: usize) {}
    /// The per-layer metrics this workload measures, with their units.
    fn layer_table(&self) -> Vec<(String, &'static str)>;
    /// Per-layer metrics from the recorded spans.
    fn layer_metrics(&self, ctx: &Ctx, out: &mut BTreeMap<String, f64>);
}

fn make_workload(name: &str, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_repro" => Box::new(paper::Paper::new(false, smoke)),
        "paper_traced" => Box::new(paper::Paper::new(true, smoke)),
        "lp_scaling" => Box::new(lp_scaling::LpScaling::new(smoke)),
        "registry_revisit" => Box::new(registry::RegistryRevisit::new(smoke)),
        _ => return None,
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    sys::retain_heap();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dls-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload.clone() else {
        if args.smoke {
            return smoke_all();
        }
        eprintln!("dls-benchmark: --workload is required (one of {WORKLOADS:?})");
        return ExitCode::from(2);
    };
    let Some(workload) = make_workload(&name, args.smoke) else {
        eprintln!("dls-benchmark: unknown workload {name} (one of {WORKLOADS:?})");
        return ExitCode::from(2);
    };
    run(&name, workload, &args)
}

/// Runs every workload tiny, in both modes, each in its own process.
fn smoke_all() -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let res = child(w, 1, 1.0, trace, true);
            let good = res
                .as_ref()
                .is_ok_and(|out| out.contains("\"correct\":true"));
            println!(
                "smoke {w} --trace {trace}: {}",
                if good { "ok" } else { "FAILED" }
            );
            if let Err(e) = &res {
                println!("  {e}");
            }
            ok &= good;
        }
    }
    println!("smoke: {}", if ok { "OK" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs this benchmark on `workload` in a child process and returns its
/// standard output; errors on a nonzero exit.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: &str,
    smoke: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", trace]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(stdout)
    } else {
        Err(format!(
            "{workload} exited with {}: {}{}",
            out.status,
            stdout.lines().last().unwrap_or(""),
            String::from_utf8_lossy(&out.stderr)
        ))
    }
}

/// `pass_s` from a child's result line.
fn child_pass_s(stdout: &str) -> Option<f64> {
    let line = stdout.lines().last()?;
    let rest = &line[line.find("\"pass_s\":{\"value\":")? + 18..];
    rest[..rest.find(',')?].parse().ok()
}

fn run(name: &str, mut workload: Box<dyn Workload>, args: &Args) -> ExitCode {
    let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("run-{}", std::process::id()));
    let mut ctx = Ctx {
        seed: args.seed,
        rec: Recorder::new(args.trace),
        tally: Tally::default(),
        latencies_ms: Vec::new(),
        scratch: scratch.clone(),
    };

    // The traced run first measures the same workload untraced in a child
    // (and, for paper_traced, paper_repro too), so the overhead ratios
    // compare the same inputs; the parent's own passes get the other half
    // of the time.
    let mut references: Vec<(&str, f64)> = Vec::new();
    let mut seconds = args.seconds;
    if args.trace {
        let mut names = vec![name];
        if name == "paper_traced" {
            names.push("paper_repro");
        }
        let share = args.seconds / 2.0 / names.len() as f64;
        for n in names {
            match child(n, args.seed, share, "0", args.smoke) {
                Ok(out) => match child_pass_s(&out) {
                    Some(v) => references.push((n, v)),
                    None => ctx
                        .tally
                        .record(vec![format!("untraced {n} run printed no pass_s")]),
                },
                Err(e) => ctx
                    .tally
                    .record(vec![format!("untraced {n} run failed: {e}")]),
            }
        }
        seconds = args.seconds / 2.0;
    }

    let passes = ((seconds / workload.nominal_pass_s()).round() as usize).max(MIN_PASSES);
    let mut kernel = sys::ReferenceKernel::new(workload.kernel_words());
    // Kernel runs beside each pass, one per KERNEL_EVERY_S of nominal pass
    // time, so that a run of long passes samples the machine as often as a
    // run of short ones; half of them just before the pass and half just
    // after, so that they bracket the moments the pass ran in.
    let kernel_runs = (workload.nominal_pass_s() / KERNEL_EVERY_S)
        .round()
        .max(1.0) as usize;
    // Each set-up is timed beside a kernel run of its own, so `setup_s` is
    // normalized by the machine's speed while setting up.
    let mut setup_s = Vec::new();
    let mut setup_kernel_s = Vec::new();
    for rep in 0..SETUP_REPS {
        setup_kernel_s.push(kernel.run());
        let t = Instant::now();
        workload.setup(&mut ctx, passes, rep);
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let warm0 = dls_core::lp_model::warm_start_stats();
    let started = Instant::now();
    let mut pass_s = Vec::new();
    let mut rss_after = Vec::new();
    let mut kernel_s = Vec::new();
    let mut peak_rss = None;
    for i in 0..passes {
        ctx.rec.set_pass(i);
        ctx.latencies_ms.push(Vec::new());
        for _ in 0..kernel_runs / 2 {
            kernel_s.push(kernel.run());
        }
        let open = ctx.rec.enter("bench.pass", "");
        let t = Instant::now();
        workload.pass(&mut ctx, i);
        pass_s.push(t.elapsed().as_secs_f64());
        ctx.rec.exit(open);
        rss_after.push(sys::rss_mb());
        for _ in kernel_runs / 2..kernel_runs {
            kernel_s.push(kernel.run());
        }
        workload.after_pass(&mut ctx, i);
        if i + 1 == RSS_PASSES {
            peak_rss = Some(sys::peak_rss_mb());
        }
        // The pass count is fixed, so that a seed's inputs, attempted ops
        // and known failures are the same in every run. Only a machine
        // slower than SLOW_CAP times nominal stops early, which keeps the
        // run within its time limit.
        if i + 1 < passes && started.elapsed().as_secs_f64() > SLOW_CAP * seconds {
            eprintln!(
                "dls-benchmark: stopped after {} of {passes} passes: machine over {SLOW_CAP}x slower than nominal",
                i + 1
            );
            break;
        }
    }
    // Runs shorter than RSS_PASSES (smoke runs) read it at the end.
    let peak_rss = peak_rss.unwrap_or_else(sys::peak_rss_mb);
    let warm1 = dls_core::lp_model::warm_start_stats();
    // Times are reported at the reference machine's speed: the shared
    // machine's speed drifts by up to +-40 % within minutes, and the
    // reference kernel, timed beside every pass, tracks that drift (see
    // README.md). Its mean, not its median: a kernel run catches the
    // machine in a fast or a slow state (times cluster at 8.5 and 12.5 ms),
    // and the median jumps between them where the mean follows the share of
    // time spent in each, as a pass that lasts many kernel runs does.
    let machine_s = sys::mean(&kernel_s);
    let speed = sys::REFERENCE_KERNEL_S / machine_s;

    let mut metrics: Vec<(String, f64, &'static str, String)> = Vec::new();
    if args.trace {
        let mut layer = BTreeMap::new();
        workload.layer_metrics(&ctx, &mut layer);
        let solves = (warm1.1 - warm0.1) as f64;
        if solves > 0.0 {
            layer.insert(
                "core.warm_start_ratio".into(),
                (warm1.0 - warm0.0) as f64 / solves,
            );
        }
        if rss_after.len() > 1 {
            let growth =
                (rss_after[rss_after.len() - 1] - rss_after[0]) / (rss_after.len() - 1) as f64;
            layer.insert("obs.rss_growth_mb_per_pass".into(), growth);
        }
        layer.insert(
            "bench.unattributed_frac".into(),
            ctx.rec.unattributed_frac(),
        );
        layer.insert("bench.machine_ref_ms".into(), machine_s * 1e3);
        let traced = sys::trimmed_mean(&pass_s, TRIM) * speed;
        for (n, v) in &references {
            let key = if *n == name {
                "bench.span_overhead_ratio"
            } else {
                "obs.trace_overhead_ratio"
            };
            layer.insert(key.into(), traced / v);
        }
        for (metric, unit) in per_layer_table() {
            let v = layer.get(&metric).copied().unwrap_or(0.0);
            metrics.push((metric, v, unit, String::new()));
        }
        write_spans(&ctx, name);
    } else {
        let mut e2e: BTreeMap<&str, (f64, String)> = BTreeMap::new();
        // Trimmed means over the passes, not medians: the machine runs in a
        // fast or a slow state (the kernel's 8.5 and 12.5 ms), so pass times
        // are bimodal too, and a median jumps between the modes where a mean
        // follows the share of time spent in each. The trim drops the rare
        // pass that a stall of the machine hit.
        let n = pass_s.len();
        let raw = sys::trimmed_mean(&pass_s, TRIM);
        e2e.insert(
            "pass_s",
            (
                raw * speed,
                format!(
                    "{TRIM}-trimmed mean of {n} passes; raw {raw:.4} (p25 {:.4}, median {:.4}, p75 {:.4}) x machine speed {speed:.4}",
                    sys::quantile(&pass_s, 0.25),
                    sys::median(&pass_s),
                    sys::quantile(&pass_s, 0.75)
                ),
            ),
        );
        // Latency quantiles are taken per pass, then their trimmed mean over
        // the passes: a few slow inputs in one pass move one sample, not the
        // run's tail, and a pass whose probes a stall hit is dropped.
        let m: usize = ctx.latencies_ms.iter().map(Vec::len).sum();
        for (metric, q) in [("solve_ms_p50", 0.5), ("solve_ms_p99", 0.99)] {
            let per_pass: Vec<f64> = ctx
                .latencies_ms
                .iter()
                .filter(|lat| !lat.is_empty())
                .map(|lat| sys::quantile(lat, q))
                .collect();
            let raw = sys::trimmed_mean(&per_pass, TRIM);
            e2e.insert(
                metric,
                (
                    raw * speed,
                    format!(
                        "{TRIM}-trimmed mean over {} passes of the per-pass quantile, {m} solve ops; raw {raw:.4}",
                        per_pass.len()
                    ),
                ),
            );
        }
        e2e.insert(
            "peak_rss_mb",
            (
                peak_rss,
                format!("VmHWM after set-up and {RSS_PASSES} passes"),
            ),
        );
        let raw = sys::trimmed_mean(&setup_s, TRIM);
        let setup_speed = sys::REFERENCE_KERNEL_S / sys::mean(&setup_kernel_s);
        e2e.insert(
            "setup_s",
            (
                raw * setup_speed,
                format!(
                    "{TRIM}-trimmed mean of {} set-ups; raw {raw:.4} x machine speed {setup_speed:.4}",
                    setup_s.len()
                ),
            ),
        );
        for (metric, unit) in END_TO_END {
            let (v, note) = e2e
                .remove(metric)
                .expect("every end-to-end metric is measured");
            metrics.push((metric.into(), v, unit, note));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    for (metric, v, _, _) in &metrics {
        if !v.is_finite() {
            ctx.tally
                .record(vec![format!("metric {metric} is not finite")]);
        }
    }
    let t = &ctx.tally;
    println!(
        "workload {name}, seed {}, {} passes, trace {}",
        args.seed,
        pass_s.len(),
        u8::from(args.trace)
    );
    for (metric, v, unit, note) in &metrics {
        println!(
            "  {metric} = {v} {unit}{}",
            if note.is_empty() {
                String::new()
            } else {
                format!("  [{note}]")
            }
        );
    }
    println!(
        "  ops: {} attempted, {} failed ({} known defect, {} unexpected), {} refusals not attempted; ops_failed_frac = {}",
        t.attempted,
        t.failed,
        t.known,
        t.unexpected,
        t.refusals,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for p in &t.problems {
        println!("  FAILED CHECK: {p}");
    }
    let correct = t.unexpected == 0;
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        t.attempted.max(1),
        t.failed
    );
    for (k, (metric, v, unit, _)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if k == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\"{metric}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the recorded spans (with self times) next to the scratch runs.
fn write_spans(ctx: &Ctx, name: &str) {
    let dir = ctx.scratch.parent().expect("scratch dir has a parent");
    let path = dir.join(format!("spans-{name}-seed{}.jsonl", ctx.seed));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, ctx.rec.to_jsonl()))
    {
        eprintln!("dls-benchmark: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one list of `BENCHMARK.json` (the
    /// unit empty where the entry has none).
    fn listed(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json beside the benchmark")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        let start = text.find(&format!("\"{key}\":[")).expect("list present");
        let list = &text[start..start + text[start..].find(']').expect("list closes")];
        let field = |entry: &str, name: &str| {
            let at = entry.find(&format!("\"{name}\":\""))? + name.len() + 4;
            let rest = &entry[at..];
            Some(rest[..rest.find('"')?].to_string())
        };
        list.split('{')
            .skip(1)
            .map(|entry| {
                let name = field(entry, "name").expect("every entry has a name");
                (name, field(entry, "unit").unwrap_or_default())
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        let layer: Vec<(String, String)> = per_layer_table()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn child_pass_s_reads_the_result_line() {
        let out = "workload x\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"pass_s\":{\"value\":0.25,\"unit\":\"s\"},\"setup_s\":{\"value\":1.0,\"unit\":\"s\"}}}\n";
        assert_eq!(child_pass_s(out), Some(0.25));
        assert_eq!(child_pass_s("no result"), None);
    }
}
