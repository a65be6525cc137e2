//! `paper_repro` and `paper_traced`: the full paper-scale pipeline that
//! `repro_all` runs, with every seed drawn from `(benchmark seed, pass)`.
//! `paper_traced` runs it with `dls_obs` in folded mode and renders the
//! events in memory after each pass.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dls_bench::figures::interleaved::{run_interleaved_gap, InterleavedGapResult};
use dls_bench::figures::sweep::{
    depth_sweep_variant, r_sweep_variant, run_depth_sweep, run_r_sweep, DepthSweepResult,
    RSweepResult, SkippedStrategy, SweepResult,
};
use dls_bench::figures::{fig08, fig09, fig10_13, fig14};
use dls_bench::SweepConfig;
use dls_core::engine::Scheduler;
use dls_platform::{ClusterModel, MatrixApp, Platform, PlatformSampler};
use dls_report::{multiround_table, tree_table, write_dat, write_text, Series};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{sys, Ctx, Workload};

/// One span per figure call, in pass order.
pub const STEMS: [&str; 13] = [
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13a",
    "fig13b",
    "multiround_rsweep",
    "tree_depth_sweep",
    "interleaved_gap",
    "fig14_x1",
    "fig14_x2",
    "fig14_x3",
];

/// Per-layer metrics of both paper workloads besides the figure calls.
const PAPER_LAYER: [(&str, &str); 3] = [
    ("figures.sweep_cpu_util", "ratio"),
    ("report.table_s", "s"),
    ("report.write_s", "s"),
];

/// Per-layer metrics of `paper_traced` only: the tracing tier.
const TRACED_LAYER: [(&str, &str); 4] = [
    ("obs.trace_events", "count"),
    ("obs.folded_render_s", "s"),
    ("obs.folded_bytes", "bytes"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Paper-scale `inc_c` solves timed after each untraced pass (the
/// `solve_ms_*` samples of this workload).
const PROBES: usize = 512;

const STREAM_PASS: u64 = 1;
const STREAM_SETUP: u64 = 2;
const STREAM_PROBE: u64 = 3;

pub struct Paper {
    traced: bool,
    smoke: bool,
    inc_c: Option<Box<dyn Scheduler>>,
    probes: Vec<Vec<Platform>>,
    /// Process CPU seconds and wall seconds x threads over the fig10-13
    /// calls.
    sweep_cpu: f64,
    sweep_capacity: f64,
    /// Per traced pass: events recorded and folded-stack bytes rendered.
    events: Vec<f64>,
    folded_bytes: Vec<f64>,
}

impl Paper {
    pub fn new(traced: bool, smoke: bool) -> Self {
        Paper {
            traced,
            smoke,
            inc_c: None,
            probes: Vec::new(),
            sweep_cpu: 0.0,
            sweep_capacity: 0.0,
            events: Vec::new(),
            folded_bytes: Vec::new(),
        }
    }

    fn config(&self, seed: u64) -> SweepConfig {
        let base = if self.smoke {
            SweepConfig {
                sizes: vec![40, 200],
                platforms: 2,
                total_units: 100,
                base_seed: 0,
            }
        } else {
            SweepConfig::paper()
        };
        SweepConfig {
            base_seed: seed,
            ..base
        }
    }

    /// Products per fig09/fig14 run (`repro_all`'s full-mode values).
    fn products(&self) -> u64 {
        if self.smoke {
            100
        } else {
            1000
        }
    }
}

impl Workload for Paper {
    fn nominal_pass_s(&self) -> f64 {
        if self.traced {
            1.3
        } else {
            0.45
        }
    }

    fn setup(&mut self, ctx: &mut Ctx, passes: usize, rep: u64) {
        dls_rounds::install();
        dls_tree::install();
        dls_core::interleaved::install();
        dls_core::affine::install();
        if self.traced {
            let sink = ctx.scratch.join("unused.folded");
            dls_obs::set_mode(Some(dls_obs::Mode::Folded(sink)));
        }
        self.inc_c = dls_core::lookup("inc_c");
        let probes = if self.smoke { 4 } else { PROBES };
        self.probes = (0..passes)
            .map(|i| probe_platforms(ctx.seed, i as u64, probes))
            .collect();
        // Warm-up op: the Figure 12 sweep over 10 platforms of its own.
        let warm = SweepConfig {
            platforms: if self.smoke { 2 } else { 10 },
            ..self.config(sys::mix(sys::WARM_UP_SEED, STREAM_SETUP, rep))
        };
        let _ = fig10_13::run(&fig10_13::fig12_variant(), &warm);
        if self.traced {
            dls_obs::reset_events();
        }
    }

    fn pass(&mut self, ctx: &mut Ctx, index: usize) {
        let seed = sys::mix(ctx.seed, STREAM_PASS, index as u64);
        let cfg = self.config(seed);
        let m = self.products();
        let out = ctx.scratch.join("artefacts");
        let sub = |k: u64| sys::mix(seed, 100, k);

        if let Some(f8) = figure(ctx, "fig08", || fig08::run(sub(8))) {
            let ok = ctx.rec.time("report.write", "", || {
                f8.write_dat(&out.join("fig08_linearity.dat"))
                    .and_then(|()| write_text(&out.join("fig08_linearity.txt"), &f8.report()))
            });
            finish(ctx, "fig08", io_problem(ok));
        }

        if let Some(f9) = figure(ctx, "fig09", || fig09::run(200, m, sub(9))) {
            let ok = ctx.rec.time("report.write", "", || {
                write_text(&out.join("fig09_trace.txt"), &f9.report())
                    .and_then(|()| write_text(&out.join("fig09_trace.csv"), &f9.trace_csv))
            });
            finish(ctx, "fig09", io_problem(ok));
        }

        for (stem, v) in [
            ("fig10", fig10_13::fig10_variant()),
            ("fig11", fig10_13::fig11_variant()),
            ("fig12", fig10_13::fig12_variant()),
            ("fig13a", fig10_13::fig13a_variant()),
            ("fig13b", fig10_13::fig13b_variant()),
        ] {
            let cpu0 = sys::process_cpu_s();
            let t = Instant::now();
            let res = figure(ctx, stem, || fig10_13::run(&v, &cfg));
            self.sweep_capacity += t.elapsed().as_secs_f64() * sys::threads() as f64;
            self.sweep_cpu += sys::process_cpu_s() - cpu0;
            if let Some(res) = res {
                let (csv, txt, (xs, series)) = ctx.rec.time("report.table", "", || {
                    let table = res.table();
                    let txt = format!("{}\n\n{}", res.label, table.render());
                    (table.to_csv(), txt, res.series())
                });
                let ok = ctx.rec.time("report.write", "", || {
                    write_dat(
                        &out.join(format!("{stem}.dat")),
                        "matrix_size",
                        &xs,
                        &series,
                    )
                    .and_then(|()| write_text(&out.join(format!("{stem}.txt")), &txt))
                    .and_then(|()| write_text(&out.join(format!("{stem}.csv")), &csv))
                });
                let mut problems = ctx.rec.time("bench.check", "", || check_sweep(&res, &cfg));
                problems.extend(io_problem(ok));
                finish(ctx, stem, problems);
            }
        }

        if let Some(r) = figure(ctx, "multiround_rsweep", || {
            run_r_sweep(&cfg, &r_sweep_variant())
        }) {
            let (txt, csv, xs, series) = ctx.rec.time("report.table", "", || {
                let table = r.table();
                let xs: Vec<f64> = r.rows.iter().map(|row| row.rounds as f64).collect();
                let rows: Vec<&[(String, f64)]> =
                    r.rows.iter().map(|row| row.ratios.as_slice()).collect();
                (
                    format!("{}\n\n{}", r.label, table.render()),
                    table.to_csv(),
                    xs,
                    ratio_series(&rows),
                )
            });
            let platform = sample_paper_platform(sub(10));
            let mr = ctx.rec.time("report.table", "", || {
                multiround_table(&platform, &[1, 2, 4, 8]).render()
            });
            let ok = ctx.rec.time("report.write", "", || {
                write_dat(&out.join("multiround_rsweep.dat"), "rounds", &xs, &series)
                    .and_then(|()| write_text(&out.join("multiround_rsweep.txt"), &txt))
                    .and_then(|()| write_text(&out.join("multiround_rsweep.csv"), &csv))
                    .and_then(|()| write_text(&out.join("multiround_platform.txt"), &mr))
            });
            let mut problems = ctx.rec.time("bench.check", "", || check_r_sweep(&r, &cfg));
            problems.extend(io_problem(ok));
            finish(ctx, "multiround_rsweep", problems);
        }

        if let Some(d) = figure(ctx, "tree_depth_sweep", || {
            run_depth_sweep(&cfg, &depth_sweep_variant())
        }) {
            let (txt, csv, xs, series) = ctx.rec.time("report.table", "", || {
                let table = d.table();
                let xs: Vec<f64> = d.rows.iter().map(|row| row.depth as f64).collect();
                let rows: Vec<&[(String, f64)]> =
                    d.rows.iter().map(|row| row.ratios.as_slice()).collect();
                (
                    format!("{}\n\n{}", d.label, table.render()),
                    table.to_csv(),
                    xs,
                    ratio_series(&rows),
                )
            });
            let platform = sample_paper_platform(sub(11));
            let tt = ctx.rec.time("report.table", "", || {
                tree_table(&platform, &[platform.num_workers(), 3, 2, 1]).render()
            });
            let ok = ctx.rec.time("report.write", "", || {
                write_dat(&out.join("tree_depth_sweep.dat"), "depth", &xs, &series)
                    .and_then(|()| write_text(&out.join("tree_depth_sweep.txt"), &txt))
                    .and_then(|()| write_text(&out.join("tree_depth_sweep.csv"), &csv))
                    .and_then(|()| write_text(&out.join("tree_platform.txt"), &tt))
            });
            let mut problems = ctx
                .rec
                .time("bench.check", "", || check_depth_sweep(&d, &cfg));
            problems.extend(io_problem(ok));
            finish(ctx, "tree_depth_sweep", problems);
        }

        if let Some(g) = figure(ctx, "interleaved_gap", || run_interleaved_gap(&cfg)) {
            let (txt, csv, (xs, series)) = ctx.rec.time("report.table", "", || {
                let table = g.table();
                (
                    format!("{}\n\n{}", g.label, table.render()),
                    table.to_csv(),
                    g.series(),
                )
            });
            let ok = ctx.rec.time("report.write", "", || {
                write_dat(&out.join("interleaved_gap.dat"), "lead", &xs, &series)
                    .and_then(|()| write_text(&out.join("interleaved_gap.txt"), &txt))
                    .and_then(|()| write_text(&out.join("interleaved_gap.csv"), &csv))
            });
            let mut problems = ctx.rec.time("bench.check", "", || check_gap(&g));
            problems.extend(io_problem(ok));
            finish(ctx, "interleaved_gap", problems);
        }

        let mut f14_all = String::new();
        for (stem, x) in [("fig14_x1", 1.0), ("fig14_x2", 2.0), ("fig14_x3", 3.0)] {
            if let Some(f) = figure(ctx, stem, || fig14::run(x, 400, m, sub(14))) {
                ctx.rec.time("report.table", "", || {
                    f14_all.push_str(&f.report());
                    f14_all.push_str("\n\n");
                });
                finish(ctx, stem, Vec::new());
            }
        }
        let ok = ctx.rec.time("report.write", "", || {
            write_text(&out.join("fig14_participation.txt"), &f14_all)
        });
        if let Err(e) = ok {
            ctx.tally.record(vec![format!("fig14 write: {e}")]);
        }

        if self.traced {
            let events = ctx.rec.time("obs.collect", "", dls_obs::trace_events);
            let folded = ctx
                .rec
                .time("obs.folded_render", "", || dls_obs::render_folded(&events));
            self.events.push(events.len() as f64);
            self.folded_bytes.push(folded.len() as f64);
            ctx.rec.time("obs.reset", "", || {
                dls_obs::reset_events();
                drop(events);
                drop(folded);
            });
            if self.folded_bytes.last() == Some(&0.0) {
                ctx.tally
                    .record(vec!["folded trace render is empty".into()]);
            }
        }
    }

    fn after_pass(&mut self, ctx: &mut Ctx, index: usize) {
        let inc_c = self.inc_c.as_ref().expect("set up before passes");
        for platform in &self.probes[index] {
            let t = Instant::now();
            let res = inc_c
                .solve(platform)
                .map(|s| s.verified_timeline(platform, 1e-7).is_ok());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            ctx.latencies_ms
                .last_mut()
                .expect("a pass is open")
                .push(ms);
            match res {
                Ok(true) => ctx.tally.ok(),
                Ok(false) => ctx
                    .tally
                    .record(vec!["probe: inc_c timeline failed verification".into()]),
                Err(e) => ctx.tally.record(vec![format!("probe: inc_c failed: {e}")]),
            }
        }
        if self.traced {
            dls_obs::reset_events();
        }
    }

    fn layer_table(&self) -> Vec<(String, &'static str)> {
        let mut out: Vec<(String, &'static str)> = STEMS
            .iter()
            .map(|stem| (format!("figures.{stem}_s"), "s"))
            .collect();
        let mut named = PAPER_LAYER.to_vec();
        if self.traced {
            named.extend(TRACED_LAYER);
        }
        out.extend(
            named
                .into_iter()
                .map(|(name, unit)| (name.to_string(), unit)),
        );
        out
    }

    fn layer_metrics(&self, ctx: &Ctx, out: &mut BTreeMap<String, f64>) {
        let rec = &ctx.rec;
        for stem in STEMS {
            out.insert(
                format!("figures.{stem}_s"),
                sys::median(&rec.durations("figures", stem)),
            );
        }
        if self.sweep_capacity > 0.0 {
            out.insert(
                "figures.sweep_cpu_util".into(),
                self.sweep_cpu / self.sweep_capacity,
            );
        }
        out.insert(
            "report.table_s".into(),
            sys::median(&rec.per_pass_sums("report.table", "")),
        );
        out.insert(
            "report.write_s".into(),
            sys::median(&rec.per_pass_sums("report.write", "")),
        );
        if self.traced {
            out.insert("obs.trace_events".into(), sys::median(&self.events));
            out.insert("obs.folded_bytes".into(), sys::median(&self.folded_bytes));
            out.insert(
                "obs.folded_render_s".into(),
                sys::median(&rec.per_pass_sums("obs.folded_render", "")),
            );
        }
    }
}

/// Calls one figure as one op inside a `figures` span; a panic fails the op.
fn figure<R>(ctx: &mut Ctx, stem: &'static str, f: impl FnOnce() -> R) -> Option<R> {
    ctx.rec.new_op();
    match ctx
        .rec
        .time("figures", stem, || catch_unwind(AssertUnwindSafe(f)))
    {
        Ok(v) => Some(v),
        Err(_) => {
            ctx.tally
                .record(vec![format!("{stem}: figure call panicked")]);
            None
        }
    }
}

/// Closes one figure op with the problems its checks found.
fn finish(ctx: &mut Ctx, stem: &str, problems: Vec<String>) {
    ctx.tally.record(
        problems
            .into_iter()
            .map(|p| format!("{stem}: {p}"))
            .collect(),
    );
}

fn io_problem(res: std::io::Result<()>) -> Vec<String> {
    res.err()
        .map(|e| format!("writing artefacts: {e}"))
        .into_iter()
        .collect()
}

/// One `.dat` series per ratio column, in row order.
fn ratio_series(rows: &[&[(String, f64)]]) -> Vec<Series> {
    let Some(first) = rows.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(k, (name, _))| Series::new(name.clone(), rows.iter().map(|r| r[k].1).collect()))
        .collect()
}

/// A ratio may be non-finite only when its strategy was skipped on every
/// platform of the row.
fn check_ratios(
    where_: &str,
    ratios: &[(String, f64)],
    skipped: &[SkippedStrategy],
    platforms: usize,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, v) in ratios {
        let legend = name.split_whitespace().next().unwrap_or("");
        let all_skipped = skipped
            .iter()
            .any(|s| s.legend == legend && s.platforms == platforms);
        if !v.is_finite() && !all_skipped {
            problems.push(format!("{where_}: ratio {name} = {v} is not finite"));
        }
    }
    problems
}

/// `INC_W lp / INC_C lp >= 1 - 1e-9` and finite ratios on every row.
fn check_sweep(res: &SweepResult, cfg: &SweepConfig) -> Vec<String> {
    let mut problems = Vec::new();
    for row in &res.rows {
        let at = format!("n = {}", row.size);
        problems.extend(check_ratios(&at, &row.ratios, &row.skipped, cfg.platforms));
        if let Some((_, v)) = row.ratios.iter().find(|(n, _)| n == "INC_W lp/INC_C lp") {
            if *v < 1.0 - 1e-9 {
                problems.push(format!("{at}: INC_W lp/INC_C lp = {v} < 1"));
            }
        }
    }
    if res.rows.len() != cfg.sizes.len() {
        problems.push(format!(
            "{} rows for {} sizes",
            res.rows.len(),
            cfg.sizes.len()
        ));
    }
    problems
}

fn check_r_sweep(res: &RSweepResult, cfg: &SweepConfig) -> Vec<String> {
    res.rows
        .iter()
        .flat_map(|r| {
            check_ratios(
                &format!("R = {}", r.rounds),
                &r.ratios,
                &r.skipped,
                cfg.platforms,
            )
        })
        .collect()
}

fn check_depth_sweep(res: &DepthSweepResult, cfg: &SweepConfig) -> Vec<String> {
    res.rows
        .iter()
        .flat_map(|r| {
            check_ratios(
                &format!("fanout = {}", r.fanout),
                &r.ratios,
                &r.skipped,
                cfg.platforms,
            )
        })
        .collect()
}

fn check_gap(res: &InterleavedGapResult) -> Vec<String> {
    res.rows
        .iter()
        .filter(|r| {
            !(r.lp_ratio.is_finite()
                && r.replay_str_ratio.is_finite()
                && r.replay_int_ratio.is_finite())
        })
        .map(|r| format!("lead {}: non-finite ratio", r.lead))
        .collect()
}

/// One concrete paper-scale platform (gdsdmi cluster, n = 200,
/// heterogeneous star), as `repro_all` draws for its absolute tables.
fn sample_paper_platform(seed: u64) -> Platform {
    let mut rng = StdRng::seed_from_u64(seed);
    PlatformSampler::hetero_star().sample(&MatrixApp::new(200), &ClusterModel::gdsdmi(), &mut rng)
}

/// Paper-scale heterogeneous stars (p = 11, matrix sizes 40..200) for the
/// latency probes of pass `pass`.
fn probe_platforms(seed: u64, pass: u64, count: usize) -> Vec<Platform> {
    let cluster = ClusterModel::gdsdmi();
    (0..count)
        .map(|k| {
            let mut rng =
                StdRng::seed_from_u64(sys::mix(seed, STREAM_PROBE, pass * 1_000 + k as u64));
            let n = 40 + 20 * (k % 9);
            PlatformSampler::hetero_star().sample(&MatrixApp::new(n), &cluster, &mut rng)
        })
        .collect()
}
