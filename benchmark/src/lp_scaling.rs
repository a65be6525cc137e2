//! `lp_scaling`: one cold `inc_c` solve per size on a fresh seeded random
//! star, each followed by `verified_timeline` and an ideal simulator replay.
//! The layers are called one by one so each gets its own span: IR build
//! (`scenario_model`), lowering, a cold revised solve, then the engine's
//! own `Scheduler::solve` of the same star. A pass's `solve_ms_p50` is its
//! p = 256 op and its `solve_ms_p99` is close to its p = 1024 op.

use std::collections::BTreeMap;
use std::time::Instant;

use dls_core::engine::Scheduler;
use dls_core::lp_model::scenario_model;
use dls_core::PortModel;
use dls_lp::{solve_revised_with, SolverOptions};
use dls_platform::{Heterogeneity, Platform, PlatformSampler};
use dls_sim::{simulate, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::Recorder;
use crate::{sys, Ctx, Tally, Workload};

/// Star sizes of one pass: an odd count, so the median op is the middle
/// size. Larger stars are left out: one op allocates 330 MB at p = 2048
/// and 1.3 GB at p = 4096, and the page-fault cost of that memory, which
/// the reference kernel does not track, spread op latencies across runs by
/// 20-28 % on the shared reference machine.
pub const SIZES: [usize; 5] = [64, 128, 256, 512, 1024];

/// Per-size metrics (`<name>.p<N>`) with their units.
const PER_SIZE: [(&str, &str); 8] = [
    ("lp.nnz", "count"),
    ("lp.pivots", "count"),
    ("lp.lower_s", "s"),
    ("lp.solve_cold_s", "s"),
    ("core.scenario_model_s", "s"),
    ("core.solve_overhead_s", "s"),
    ("core.verify_s", "s"),
    ("sim.simulate_s", "s"),
];

const STREAM_PASS: u64 = 11;
const STREAM_SETUP: u64 = 12;

pub struct LpScaling {
    sizes: &'static [usize],
    inc_c: Option<Box<dyn Scheduler>>,
    /// Stars per pass, one per size.
    inputs: Vec<Vec<Platform>>,
    nnz: BTreeMap<usize, f64>,
    pivots: BTreeMap<usize, Vec<f64>>,
}

impl LpScaling {
    pub fn new(smoke: bool) -> Self {
        LpScaling {
            sizes: if smoke { &SIZES[..2] } else { &SIZES },
            inc_c: None,
            inputs: Vec::new(),
            nnz: BTreeMap::new(),
            pivots: BTreeMap::new(),
        }
    }
}

/// A random heterogeneous star of `p` workers (`z = 0.5`, factors 1..10).
fn star(p: usize, seed: u64) -> Platform {
    let sampler = PlatformSampler {
        workers: p,
        comm: Heterogeneity::PerWorker,
        comp: Heterogeneity::PerWorker,
        factor_range: (1.0, 10.0),
    };
    sampler.sample_abstract(5.0, 0.5, &mut StdRng::seed_from_u64(seed))
}

/// What one op measured, beyond its spans.
struct OpOut {
    nnz: usize,
    pivots: usize,
    latency_ms: f64,
}

/// One op: build, lower and cold-solve the `inc_c` scenario LP, then
/// solve, verify and replay it through the engine; checks the results.
fn op(rec: &mut Recorder, tally: &mut Tally, inc_c: &dyn Scheduler, platform: &Platform) -> OpOut {
    let tag = format!("p{}", platform.num_workers());
    let tag = tag.as_str();
    rec.new_op();
    let open = rec.enter("bench.op", tag);
    let mut problems = Vec::new();

    let order = rec.time("platform.order", tag, || platform.order_by_c());
    let (model, _vars) = rec
        .time("core.scenario_model", tag, || {
            scenario_model(platform, &order, &order, PortModel::OnePort)
        })
        .expect("a c-sorted order over every worker is well formed");
    let problem = rec.time("lp.lower", tag, || model.lower());
    rec.time("bench.free", tag, || drop(model));
    let nnz = problem.constraints().iter().map(|c| c.coeffs.len()).sum();
    let opts = SolverOptions::for_size(problem.num_vars(), problem.num_constraints());
    let cold = rec.time("lp.solve_cold", tag, || {
        solve_revised_with::<f64>(&problem, &opts, None)
    });
    rec.time("bench.free", tag, || drop(problem));

    let started = Instant::now();
    let solved = rec.time("core.scheduler_solve", tag, || inc_c.solve(platform));
    let verified = solved
        .as_ref()
        .map(|sol| rec.time("core.verify", tag, || sol.verified_timeline(platform, 1e-7)))
        .map_err(|_| ());
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    let replay = solved.as_ref().ok().map(|sol| {
        rec.time("sim.simulate", tag, || {
            simulate(platform, &sol.schedule, &SimConfig::ideal())
        })
    });

    let pivots = rec.time("bench.check", tag, || {
        match (&cold, &solved) {
            (Ok(cold), Ok(sol)) => {
                if !sys::rel_close(cold.solution.objective, sol.throughput, 1e-9) {
                    problems.push(format!(
                        "{tag}: cold objective {} != engine throughput {}",
                        cold.solution.objective, sol.throughput
                    ));
                }
            }
            (Err(e), _) => problems.push(format!("{tag}: cold revised solve failed: {e}")),
            (_, Err(e)) => problems.push(format!("{tag}: inc_c failed: {e}")),
        }
        if let Ok(Err(violations)) = &verified {
            problems.push(format!(
                "{tag}: timeline verification: {}",
                violations.join("; ")
            ));
        }
        if let Some(r) = &replay {
            if r.makespan > 1.0 + 1e-7 {
                problems.push(format!("{tag}: ideal replay makespan {} > 1", r.makespan));
            }
        }
        cold.as_ref().map_or(0, |c| c.solution.iterations)
    });
    rec.time("bench.free", tag, || drop((cold, solved, verified, replay)));
    rec.exit(open);
    tally.record(problems);
    OpOut {
        nnz,
        pivots,
        latency_ms,
    }
}

impl Workload for LpScaling {
    /// 4 MiB: the p = 1024 LP's buffers do not fit in L2 either.
    fn kernel_words(&self) -> usize {
        1 << 19
    }

    fn nominal_pass_s(&self) -> f64 {
        0.11
    }

    fn setup(&mut self, ctx: &mut Ctx, passes: usize, rep: u64) {
        self.inc_c = dls_core::lookup("inc_c");
        let sizes = self.sizes;
        self.inputs = (0..passes as u64)
            .map(|i| {
                sizes
                    .iter()
                    .map(|&p| star(p, sys::mix(ctx.seed, STREAM_PASS, i * 100_000 + p as u64)))
                    .collect()
            })
            .collect();
        // Warm-up op: the smallest size, on a star of its own.
        let warm = star(sizes[0], sys::mix(sys::WARM_UP_SEED, STREAM_SETUP, rep));
        let inc_c = self.inc_c.as_deref().expect("inc_c is a built-in strategy");
        op(
            &mut Recorder::new(false),
            &mut Tally::default(),
            inc_c,
            &warm,
        );
    }

    fn pass(&mut self, ctx: &mut Ctx, index: usize) {
        let inc_c = self.inc_c.as_deref().expect("set up before passes");
        for platform in &self.inputs[index] {
            let out = op(&mut ctx.rec, &mut ctx.tally, inc_c, platform);
            let p = platform.num_workers();
            ctx.latencies_ms
                .last_mut()
                .expect("a pass is open")
                .push(out.latency_ms);
            self.nnz.insert(p, out.nnz as f64);
            self.pivots.entry(p).or_default().push(out.pivots as f64);
        }
    }

    fn layer_table(&self) -> Vec<(String, &'static str)> {
        let mut out: Vec<(String, &'static str)> = self
            .sizes
            .iter()
            .flat_map(|p| PER_SIZE.map(|(name, unit)| (format!("{name}.p{p}"), unit)))
            .collect();
        out.push(("lp.solve_growth_exp".into(), "ratio"));
        out
    }

    fn layer_metrics(&self, ctx: &Ctx, out: &mut BTreeMap<String, f64>) {
        let rec = &ctx.rec;
        let med = |name: &str, tag: &str| sys::median(&rec.per_pass_sums(name, tag));
        for &p in self.sizes {
            let tag = format!("p{p}");
            out.insert(
                format!("lp.nnz.{tag}"),
                self.nnz.get(&p).copied().unwrap_or(0.0),
            );
            out.insert(
                format!("lp.pivots.{tag}"),
                sys::median(self.pivots.get(&p).map_or(&[][..], |v| v)),
            );
            out.insert(format!("lp.lower_s.{tag}"), med("lp.lower", &tag));
            out.insert(format!("lp.solve_cold_s.{tag}"), med("lp.solve_cold", &tag));
            out.insert(
                format!("core.scenario_model_s.{tag}"),
                med("core.scenario_model", &tag),
            );
            out.insert(format!("core.verify_s.{tag}"), med("core.verify", &tag));
            out.insert(format!("sim.simulate_s.{tag}"), med("sim.simulate", &tag));
            // Engine solve minus the separately timed build, lower and cold
            // solve: routing, cache probe, canonical flush, packaging.
            let engine = rec.per_pass_sums("core.scheduler_solve", &tag);
            let build = rec.per_pass_sums("core.scenario_model", &tag);
            let lower = rec.per_pass_sums("lp.lower", &tag);
            let cold = rec.per_pass_sums("lp.solve_cold", &tag);
            let overhead: Vec<f64> = (0..engine.len())
                .map(|i| engine[i] - build[i] - lower[i] - cold[i])
                .collect();
            out.insert(
                format!("core.solve_overhead_s.{tag}"),
                sys::median(&overhead),
            );
        }
        let (big, half) = (
            self.sizes[self.sizes.len() - 1],
            self.sizes[self.sizes.len() - 2],
        );
        let t_big = med("lp.solve_cold", &format!("p{big}"));
        let t_half = med("lp.solve_cold", &format!("p{half}"));
        if t_half > 0.0 {
            out.insert("lp.solve_growth_exp".into(), t_big / t_half);
        }
    }
}
