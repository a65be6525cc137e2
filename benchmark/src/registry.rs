//! `registry_revisit`: every `dls_core::registry()` strategy (multi-round,
//! tree and interleaved providers installed) on a pool of mid-size stars,
//! each star visited three times in a shuffled order, the way an analyst
//! re-compares strategies on one platform. Revisits read the per-thread
//! `BasisCache` that first visits filled. `interleaved_fifo` is solved
//! after each pass, outside the timed pass (see `DEFERRED`).

use std::collections::BTreeMap;
use std::time::Instant;

use dls_core::engine::Scheduler;
use dls_core::CoreError;
use dls_lp::LpError;
use dls_platform::{Heterogeneity, Platform, PlatformSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spans::Recorder;
use crate::{sys, Ctx, Tally, Workload};

/// Registry strategies whose median solve time is a per-layer metric; a
/// strategy the registry gains later is solved and checked but not reported
/// on its own.
const STRATEGIES: [&str; 17] = [
    "brute_fifo",
    "brute_force",
    "bus_fifo",
    "chain",
    "inc_c",
    "inc_w",
    "interleaved_fifo",
    "multiround_geometric",
    "multiround_lp",
    "multiround_uniform",
    "no_return",
    "optimal_fifo",
    "optimal_lifo",
    "star_lifo",
    "tree_fifo",
    "tree_lifo",
    "tree_lp",
];

/// Strategies solved after each pass, with the same visits and checks but
/// outside `pass_s` and `solve_ms_*`. One `interleaved_fifo` op takes 1 ms
/// to 2 s (the known defect's iteration-limit failures the longest) and
/// was 93 % of a pass, so a pass's time and tail followed how many slow
/// p >= 36 stars it drew: `pass_s` spread 16 % and `solve_ms_p99` 30 %
/// across eight seeds. Its solve time is the per-layer
/// `registry.interleaved_fifo.solve_ms`.
const DEFERRED: [&str; 1] = ["interleaved_fifo"];

/// FIFO heuristics `optimal_fifo` must match or beat.
const FIFO_HEURISTICS: [&str; 3] = ["inc_c", "inc_w", "chain"];

/// Star sizes of one pass's pool; round `r`'s star of the `k`-th size in
/// pass `i` has `z = ZS[(i + k + r) % 2]`.
const SIZES: [usize; 4] = [12, 24, 36, 48];
const SMOKE_SIZES: [usize; 2] = [12, 36];
/// Stars of each size in one pass's pool. Only round 0's stars get the
/// `DEFERRED` strategies, which cost about three times what the other
/// strategies cost on all twelve rounds.
const ROUNDS: u64 = 12;
const ZS: [f64; 2] = [0.5, 2.0];
const VISITS: usize = 3;

const STREAM_PASS: u64 = 21;
const STREAM_SETUP: u64 = 22;
const STREAM_ORDER: u64 = 23;

/// The recorded known defect: on some stars with p >= 24 the
/// `interleaved_fifo` LP is reported unbounded, or runs out of its pivot
/// budget. Counted as a failed op, never filtered out.
fn is_known_defect(id: &str, err: &CoreError) -> bool {
    id == "interleaved_fifo"
        && matches!(
            err,
            CoreError::Lp(LpError::Unbounded) | CoreError::Lp(LpError::IterationLimit { .. })
        )
}

/// A random heterogeneous star of `p` workers with ratio `z`.
fn star(p: usize, z: f64, seed: u64) -> Platform {
    let sampler = PlatformSampler {
        workers: p,
        comm: Heterogeneity::PerWorker,
        comp: Heterogeneity::PerWorker,
        factor_range: (1.0, 10.0),
    };
    sampler.sample_abstract(5.0, z, &mut StdRng::seed_from_u64(seed))
}

/// One pass's inputs: the star pool (round by round, each round one star
/// per size) and the shuffled visit order.
struct PassInput {
    pool: Vec<Platform>,
    visits: Vec<usize>,
}

/// Outcome of one strategy on one star, compared across visits.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Throughput(f64),
    Error(String),
}

pub struct RegistryRevisit {
    sizes: &'static [usize],
    rounds: u64,
    /// Every registry strategy not in `DEFERRED`, solved in the pass.
    schedulers: Vec<Box<dyn Scheduler>>,
    /// The `DEFERRED` strategies, solved after the pass.
    deferred: Vec<Box<dyn Scheduler>>,
    inputs: Vec<PassInput>,
}

impl RegistryRevisit {
    pub fn new(smoke: bool) -> Self {
        RegistryRevisit {
            sizes: if smoke { &SMOKE_SIZES } else { &SIZES },
            rounds: if smoke { 1 } else { ROUNDS },
            schedulers: Vec::new(),
            deferred: Vec::new(),
            inputs: Vec::new(),
        }
    }

    fn pass_input(&self, seed: u64, index: u64) -> PassInput {
        let pool: Vec<Platform> = (0..self.rounds)
            .flat_map(|r| {
                self.sizes.iter().enumerate().map(move |(k, &p)| {
                    let z = ZS[(index + k as u64 + r) as usize % ZS.len()];
                    star(
                        p,
                        z,
                        sys::mix(seed, STREAM_PASS, index * 100_000 + r * 1_000 + p as u64),
                    )
                })
            })
            .collect();
        let mut visits: Vec<usize> = (0..pool.len()).flat_map(|j| [j; VISITS]).collect();
        // Fisher-Yates with a seeded stream.
        for k in (1..visits.len()).rev() {
            let r = sys::mix(seed, STREAM_ORDER, index * 100_000 + k as u64);
            visits.swap(k, (r % (k as u64 + 1)) as usize);
        }
        PassInput { pool, visits }
    }

    /// Every visit of pass `index`: the timed strategies on all its stars,
    /// or (`deferred`) the `DEFERRED` ones on round 0's stars.
    fn visit_all(&self, ctx: &mut Ctx, index: usize, deferred: bool, latencies_ms: &mut Vec<f64>) {
        let input = &self.inputs[index];
        let (schedulers, op_span) = if deferred {
            (&self.deferred, "bench.after_op")
        } else {
            (&self.schedulers, "bench.op")
        };
        let mut first: Vec<Option<Vec<Option<Outcome>>>> = vec![None; input.pool.len()];
        // Round 0's stars come first in the pool.
        let stars = if deferred {
            self.sizes.len()
        } else {
            input.pool.len()
        };
        for &j in input.visits.iter().filter(|&&j| j < stars) {
            let outcomes = visit(
                &mut ctx.rec,
                &mut ctx.tally,
                latencies_ms,
                schedulers,
                &input.pool[j],
                first[j].as_deref(),
                op_span,
            );
            first[j].get_or_insert(outcomes);
        }
    }
}

/// Solves every strategy of `schedulers` on `platform` once (one visit).
/// Each applicable strategy is one op: `Scheduler::solve` plus
/// `verified_timeline`, timed together. Returns the outcomes in strategy
/// order.
fn visit(
    rec: &mut Recorder,
    tally: &mut Tally,
    latencies_ms: &mut Vec<f64>,
    schedulers: &[Box<dyn Scheduler>],
    platform: &Platform,
    first: Option<&[Option<Outcome>]>,
    op_span: &'static str,
) -> Vec<Option<Outcome>> {
    let mut outcomes = Vec::with_capacity(schedulers.len());
    for (k, s) in schedulers.iter().enumerate() {
        let id = s.name();
        rec.new_op();
        let open = rec.enter(op_span, id);
        let started = Instant::now();
        let solved = rec.time("core.scheduler_solve", id, || s.solve(platform));
        let verified = solved
            .as_ref()
            .map(|sol| {
                rec.time("core.verify", id, || {
                    sol.verified_timeline(platform, 1e-7).err()
                })
            })
            .map_err(|_| ());
        let ms = started.elapsed().as_secs_f64() * 1e3;

        let outcome = rec.time("bench.check", id, || match (&solved, &verified) {
            (Err(e), _) if e.is_applicability() => {
                tally.refusals += 1;
                None
            }
            (Err(e), _) => {
                latencies_ms.push(ms);
                let outcome = Outcome::Error(e.to_string());
                let mut problems = Vec::new();
                revisit_problems(id, first.map(|f| &f[k]), &outcome, &mut problems);
                if problems.is_empty() && is_known_defect(id, e) {
                    tally.known_failure();
                } else {
                    problems.push(format!("{id} on p = {}: {e}", platform.num_workers()));
                    tally.record(problems);
                }
                Some(outcome)
            }
            (Ok(sol), Ok(violations)) => {
                latencies_ms.push(ms);
                let mut problems = Vec::new();
                if let Some(v) = violations {
                    problems.push(format!("{id}: timeline verification: {}", v.join("; ")));
                }
                let outcome = Outcome::Throughput(sol.throughput);
                revisit_problems(id, first.map(|f| &f[k]), &outcome, &mut problems);
                tally.record(problems);
                Some(outcome)
            }
            (Ok(_), Err(_)) => unreachable!("verification runs on every solution"),
        });
        rec.time("bench.free", id, || drop((solved, verified)));
        rec.exit(open);
        outcomes.push(outcome);
    }

    // optimal_fifo must match or beat every FIFO heuristic on this visit.
    let tp = |name: &str| {
        let k = schedulers.iter().position(|s| s.name() == name)?;
        match &outcomes[k] {
            Some(Outcome::Throughput(t)) => Some(*t),
            _ => None,
        }
    };
    if let Some(best) = tp("optimal_fifo") {
        for h in FIFO_HEURISTICS {
            if let Some(t) = tp(h) {
                if best < t * (1.0 - 1e-9) {
                    tally.record(vec![format!(
                        "optimal_fifo {best} < {h} {t} on p = {}",
                        platform.num_workers()
                    )]);
                }
            }
        }
    }
    outcomes
}

/// A revisit must reproduce the first visit's outcome (throughput within
/// 1e-9 relative, or the same error).
fn revisit_problems(
    id: &str,
    first: Option<&Option<Outcome>>,
    now: &Outcome,
    problems: &mut Vec<String>,
) {
    let Some(Some(first)) = first else {
        return;
    };
    let same = match (first, now) {
        (Outcome::Throughput(a), Outcome::Throughput(b)) => sys::rel_close(*a, *b, 1e-9),
        (a, b) => a == b,
    };
    if !same {
        problems.push(format!("{id}: revisit gave {now:?}, first visit {first:?}"));
    }
}

impl Workload for RegistryRevisit {
    fn nominal_pass_s(&self) -> f64 {
        // With the deferred strategies, which take most of it. The mean,
        // not the median: a pass whose stars hit the known defect's
        // iteration limit takes several seconds.
        1.5
    }

    fn setup(&mut self, ctx: &mut Ctx, passes: usize, rep: u64) {
        dls_rounds::install();
        dls_tree::install();
        dls_core::interleaved::install();
        (self.deferred, self.schedulers) = dls_core::registry()
            .into_iter()
            .partition(|s| DEFERRED.contains(&s.name()));
        self.inputs = (0..passes as u64)
            .map(|i| self.pass_input(ctx.seed, i))
            .collect();
        // Warm-up op: one visit of a star of its own, every strategy.
        let warm = star(24, 0.5, sys::mix(sys::WARM_UP_SEED, STREAM_SETUP, rep));
        for schedulers in [&self.schedulers, &self.deferred] {
            visit(
                &mut Recorder::new(false),
                &mut Tally::default(),
                &mut Vec::new(),
                schedulers,
                &warm,
                None,
                "bench.op",
            );
        }
    }

    fn pass(&mut self, ctx: &mut Ctx, index: usize) {
        let mut latencies_ms = Vec::new();
        self.visit_all(ctx, index, false, &mut latencies_ms);
        ctx.latencies_ms
            .last_mut()
            .expect("a pass is open")
            .extend(latencies_ms);
    }

    fn after_pass(&mut self, ctx: &mut Ctx, index: usize) {
        self.visit_all(ctx, index, true, &mut Vec::new());
    }

    fn layer_table(&self) -> Vec<(String, &'static str)> {
        STRATEGIES
            .iter()
            .map(|id| (format!("registry.{id}.solve_ms"), "ms"))
            .collect()
    }

    fn layer_metrics(&self, ctx: &Ctx, out: &mut BTreeMap<String, f64>) {
        for id in STRATEGIES {
            let ms: Vec<f64> = ctx
                .rec
                .durations("core.scheduler_solve", id)
                .iter()
                .map(|s| s * 1e3)
                .collect();
            out.insert(format!("registry.{id}.solve_ms"), sys::median(&ms));
        }
    }
}
