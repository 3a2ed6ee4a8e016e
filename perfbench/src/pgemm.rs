//! The library-call workloads, `square` and `cholqr`: `Plan::multiply` on a
//! `PersistentWorld`, one job per op.
//!
//! An op is one job that runs every product of the workload in order
//! (`square`: one multiply; `cholqr`: the Gram product then the apply
//! product). Inputs are generated and split into per-rank blocks before any
//! timer starts. Set-up (world spawn and warm, `Plan::build`) is timed
//! apart from the ops.
//!
//! In a traced run every untraced op is followed by a traced one: the same
//! op decomposed into the public calls `Plan::multiply_in` makes —
//! `Ca3dmm::comms`, `redistribute_planned` for A and B,
//! `Ca3dmm::multiply_native_in`, `redistribute_planned` for C — with a
//! span around each, and with the `dense` kernel profiler on. Its outputs
//! must be bitwise identical to the untraced ones.

use crate::measure::{median, median_secs, quantile, reset_peak_rss, tail_count, time_into, Sheet};
use crate::{Config, Pass, KERNEL_THREADS, P};
use ca3dmm::{Ca3dmmOptions, Dtype, Plan};
use dense::gemm::GemmOp;
use dense::{Mat, Rect, Scalar};
use gridopt::Problem;
use layout::{redistribute_planned, Layout, RedistPlan};
use msgpass::{Comm, PersistentWorld, RunOptions, RunReport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-rank local blocks of one distributed matrix (`[rank][block]`).
type Blocks = Vec<Vec<Mat<f64>>>;

/// Outputs of one op: `[rank][product][block]`.
type OpOut = Vec<Vec<Vec<Mat<f64>>>>;

/// The layer-sum check: the slowest rank's layer spans must cover this
/// share of op wall time. The rest is job dispatch and report assembly,
/// which the layers do not include; more than the whole means the spans
/// double count.
const LAYER_SUM_MIN: f64 = 0.90;
const LAYER_SUM_MAX: f64 = 1.01;

/// The per-op layer readings of a traced op, in `run_traced_op` order: the
/// benchmark's spans (max over ranks) and the `RunReport` phase seconds
/// and waits (max over ranks).
const OP_LAYERS: [&str; 10] = [
    "layout.redist_in_ms",
    "layout.redist_out_ms",
    "layout.redist_wait_ms",
    "ca3dmm.comms_ms",
    "ca3dmm.native_ms",
    "ca3dmm.replicate_ms",
    "ca3dmm.cannon_ms",
    "ca3dmm.cannon_wait_ms",
    "ca3dmm.reduce_ms",
    "ca3dmm.reduce_wait_ms",
];

/// Repetitions of each timed set-up step before the window. One set-up
/// costs well under a millisecond, so the median needs hundreds to rise
/// above timer and scheduler noise.
const SETUP_REPS: usize = 400;
/// Set-ups timed after every op of an untraced window, so `setup_s`, the
/// median of all of them, covers the host conditions of the whole run.
const SETUP_ROUND: usize = 20;

/// One distributed product `C = op(A)·op(B)` of a workload: what its plan
/// is built from.
pub struct ProductSpec {
    pub prob: Problem,
    pub op_a: GemmOp,
    pub a_layout: Layout,
    pub op_b: GemmOp,
    pub b_layout: Layout,
    pub c_layout: Layout,
}

/// The global inputs of one product, as stored (before `op`).
pub struct Inputs {
    pub a: Arc<Mat<f64>>,
    pub b: Arc<Mat<f64>>,
}

/// The products of a workload and their inputs.
pub type Workload = (Vec<ProductSpec>, Vec<Inputs>);

/// A product ready to run: its plan and this rank set's input blocks.
struct Product {
    plan: Arc<Plan>,
    a: Arc<Blocks>,
    b: Arc<Blocks>,
}

/// `square`: 2048³ f64 with 1D-column user layouts for A, B and C.
pub fn square_spec(seed: u64) -> Workload {
    let n = 2048;
    let mut rng = crate::measure::Rng::new(seed, 11);
    let a = dense::random::global_block::<f64>(rng.matrix_seed(), Rect::new(0, 0, n, n));
    let b = dense::random::global_block::<f64>(rng.matrix_seed(), Rect::new(0, 0, n, n));
    let spec = ProductSpec {
        prob: Problem::new(n, n, n, P),
        op_a: GemmOp::NoTrans,
        a_layout: Layout::one_d_col(n, n, P),
        op_b: GemmOp::NoTrans,
        b_layout: Layout::one_d_col(n, n, P),
        c_layout: Layout::one_d_col(n, n, P),
    };
    let inputs = Inputs {
        a: Arc::new(a),
        b: Arc::new(b),
    };
    (vec![spec], vec![inputs])
}

/// `cholqr`: the two PGEMMs of CholeskyQR on a 65536×64 A stored 1D-row:
/// the Gram product `G = AᵀA` (64×64×65536, G 1D-column) and the apply
/// product `Q = A·R⁻¹` (65536×64×64, R⁻¹ on rank 0, Q 1D-row). R⁻¹ comes
/// from a serial Cholesky of the serial Gram matrix, so both products are
/// fixed by the seed.
pub fn cholqr_spec(seed: u64) -> Workload {
    let (m, n) = (65536, 64);
    let a_seed = crate::measure::Rng::new(seed, 12).matrix_seed();
    // Diagonal band shifted up so the Gram matrix is well conditioned
    // (as in examples/cholesky_qr.rs).
    let a = Mat::from_fn(m, n, |i, j| {
        let v: f64 = dense::random::global_entry(a_seed, i, j);
        if i % n == j {
            v + 4.0
        } else {
            v
        }
    });
    let mut g = Mat::<f64>::zeros(n, n);
    dense::gemm(GemmOp::Trans, GemmOp::NoTrans, 1.0, &a, &a, 0.0, &mut g);
    let r_inv = dense::linalg::upper_triangular_inverse(&dense::linalg::cholesky_upper(&g));
    let a = Arc::new(a);
    let a_layout = Layout::one_d_row(m, n, P);
    let specs = vec![
        ProductSpec {
            prob: Problem::new(n, n, m, P),
            op_a: GemmOp::Trans,
            a_layout: a_layout.clone(),
            op_b: GemmOp::NoTrans,
            b_layout: a_layout.clone(),
            c_layout: Layout::one_d_col(n, n, P),
        },
        ProductSpec {
            prob: Problem::new(m, n, n, P),
            op_a: GemmOp::NoTrans,
            a_layout: a_layout.clone(),
            op_b: GemmOp::NoTrans,
            b_layout: Layout::on_single_rank(n, n, P, 0),
            c_layout: a_layout,
        },
    ];
    let inputs = vec![
        Inputs {
            a: Arc::clone(&a),
            b: Arc::clone(&a),
        },
        Inputs {
            a,
            b: Arc::new(r_inv),
        },
    ];
    (specs, inputs)
}

fn run_options() -> RunOptions {
    RunOptions {
        kernel_threads_per_rank: Some(KERNEL_THREADS),
        ..RunOptions::default()
    }
}

fn build_plan(s: &ProductSpec) -> Plan {
    Plan::build(
        s.prob,
        &Ca3dmmOptions::default(),
        Dtype::F64,
        s.op_a,
        &s.a_layout,
        s.op_b,
        &s.b_layout,
        &s.c_layout,
    )
}

/// Spawns and warms a world: one tiny GEMM per rank, so the kernel pool
/// and the rank threads are up before the first op.
pub fn spawn_warm_world() -> PersistentWorld {
    let world = PersistentWorld::new(P);
    world
        .run_job(run_options(), |_ctx| {
            let a = Mat::<f64>::zeros(8, 8);
            let mut c = Mat::<f64>::zeros(8, 8);
            dense::gemm(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &a, 0.0, &mut c);
        })
        .expect("warm-up job on an empty world");
    world
}

/// Median round trip of an empty job, microseconds.
pub fn job_round_trip_us(world: &PersistentWorld) -> f64 {
    let (_, ()) = median_secs(50, || {
        world.run_job(run_options(), |_ctx| ()).expect("empty job");
    });
    let (secs, ()) = median_secs(400, || {
        world.run_job(run_options(), |_ctx| ()).expect("empty job");
    });
    secs * 1e6
}

/// Runs one untraced op.
fn run_op(world: &PersistentWorld, products: &Arc<Vec<Product>>) -> (OpOut, f64) {
    let prods = Arc::clone(products);
    let t = Instant::now();
    let (out, _report) = world
        .run_job(run_options(), move |ctx| {
            let comm = Comm::world(ctx);
            let me = comm.rank();
            prods
                .iter()
                .map(|p| p.plan.multiply(ctx, &comm, &p.a[me], &p.b[me]))
                .collect::<Vec<_>>()
        })
        .expect("op job");
    (out, t.elapsed().as_secs_f64())
}

/// One rank's layer spans for one op, seconds, summed over the products.
#[derive(Clone, Copy, Default)]
struct RankLayers {
    comms: f64,
    redist_in: f64,
    native: f64,
    redist_out: f64,
}

impl RankLayers {
    fn sum(&self) -> f64 {
        self.comms + self.redist_in + self.native + self.redist_out
    }
}

/// The three redistribution programs of one product.
pub struct Redists {
    a: RedistPlan,
    b: RedistPlan,
    c: RedistPlan,
}

pub fn build_redists(plan: &Plan) -> Redists {
    let gc = plan.ca3dmm().grid_context();
    Redists {
        a: RedistPlan::new(plan.a_layout(), &gc.layout_a(), plan.op_a()),
        b: RedistPlan::new(plan.b_layout(), &gc.layout_b(), plan.op_b()),
        c: RedistPlan::new(&gc.layout_c(), plan.c_layout(), GemmOp::NoTrans),
    }
}

/// Runs one op decomposed into the calls `Plan::multiply_in` makes, with a
/// span around each.
fn run_traced_op(
    world: &PersistentWorld,
    products: &Arc<Vec<Product>>,
    redists: &Arc<Vec<Redists>>,
) -> (OpOut, Vec<RankLayers>, RunReport, f64) {
    let prods = Arc::clone(products);
    let reds = Arc::clone(redists);
    let t = Instant::now();
    let (out, report) = world
        .run_job(run_options(), move |ctx| {
            let comm = Comm::world(ctx);
            let me = comm.rank();
            let mut spans = RankLayers::default();
            let mut outs = Vec::with_capacity(prods.len());
            for (p, r) in prods.iter().zip(reds.iter()) {
                let mm = p.plan.ca3dmm();
                let t0 = Instant::now();
                let comms = mm.comms(ctx, &comm);
                let t1 = Instant::now();
                ctx.set_phase("redist");
                let a_local = redistribute_planned(&comm, ctx, r.a.for_rank(me), &p.a[me]);
                let b_local = redistribute_planned(&comm, ctx, r.b.for_rank(me), &p.b[me]);
                let t2 = Instant::now();
                let c_strip = mm.multiply_native_in(
                    ctx,
                    &comm,
                    &comms,
                    a_local.into_iter().next(),
                    b_local.into_iter().next(),
                );
                let t3 = Instant::now();
                ctx.set_phase("redist");
                let c_blocks: Vec<Mat<f64>> =
                    c_strip.into_iter().filter(|m| !m.is_empty()).collect();
                outs.push(redistribute_planned(
                    &comm,
                    ctx,
                    r.c.for_rank(me),
                    &c_blocks,
                ));
                let t4 = Instant::now();
                spans.comms += (t1 - t0).as_secs_f64();
                spans.redist_in += (t2 - t1).as_secs_f64();
                spans.native += (t3 - t2).as_secs_f64();
                spans.redist_out += (t4 - t3).as_secs_f64();
            }
            (outs, spans)
        })
        .expect("traced op job");
    let wall = t.elapsed().as_secs_f64();
    let (outs, spans) = out.into_iter().unzip();
    (outs, spans, report, wall)
}

/// `None` when `got` is bitwise identical to `want`.
fn bitwise_diff(got: &OpOut, want: &OpOut) -> Option<String> {
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        for (prod, (gp, wp)) in g.iter().zip(w).enumerate() {
            let same = gp.len() == wp.len()
                && gp.iter().zip(wp).all(|(x, y)| {
                    x.shape() == y.shape()
                        && x.as_slice()
                            .iter()
                            .zip(y.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                });
            if !same {
                return Some(format!(
                    "product {prod} on rank {rank} differs from the first op"
                ));
            }
        }
    }
    (got.len() != want.len()).then(|| "rank count differs from the first op".to_owned())
}

/// Checks the first op against serial `dense::gemm` on the global inputs:
/// `‖C − C_ref‖∞ ≤ gemm_tolerance(k) · max(1, ‖C_ref‖∞)`.
fn check_against_serial(specs: &[ProductSpec], inputs: &[Inputs], out: &OpOut) -> Option<String> {
    for (idx, (s, x)) in specs.iter().zip(inputs).enumerate() {
        let mut want = Mat::<f64>::zeros(s.prob.m, s.prob.n);
        dense::gemm(s.op_a, s.op_b, 1.0, &x.a, &x.b, 0.0, &mut want);
        let parts: Vec<Vec<Mat<f64>>> = out.iter().map(|r| r[idx].clone()).collect();
        let got = s.c_layout.assemble(&parts);
        let tol = dense::testing::gemm_tolerance::<f64>(s.prob.k) * want.max_abs().max(1.0);
        let err = got.max_abs_diff(&want);
        if err.is_nan() || err > tol {
            return Some(format!(
                "product {idx}: max abs error {err:.3e} against serial dense::gemm exceeds {tol:.3e}"
            ));
        }
    }
    None
}

/// Runs a `square` or `cholqr` measurement.
pub fn run(cfg: &Config, (specs, inputs): Workload, sheet: &mut Sheet) {
    let flops_per_op: f64 = specs
        .iter()
        .map(|s| 2.0 * s.prob.m as f64 * s.prob.n as f64 * s.prob.k as f64)
        .sum();
    let blocks: Vec<(Arc<Blocks>, Arc<Blocks>)> = specs
        .iter()
        .zip(&inputs)
        .map(|(s, x)| {
            let split = |l: &Layout, x: &Mat<f64>| -> Arc<Blocks> {
                Arc::new((0..P).map(|r| l.extract(x, r)).collect())
            };
            let a = split(&s.a_layout, &x.a);
            // the Gram product reads one stored matrix twice
            let b = if Arc::ptr_eq(&x.a, &x.b) && s.a_layout == s.b_layout {
                Arc::clone(&a)
            } else {
                split(&s.b_layout, &x.b)
            };
            (a, b)
        })
        .collect();

    // Set-up: spawn + warm the world and build every plan.
    let setup = || {
        let world = spawn_warm_world();
        let plans: Vec<Arc<Plan>> = specs.iter().map(|s| Arc::new(build_plan(s))).collect();
        (world, plans)
    };
    let mut setup_secs = Vec::new();
    let (world, plans) = time_into(&mut setup_secs, SETUP_REPS, setup);
    for (s, plan) in specs.iter().zip(&plans) {
        let g = plan.ca3dmm().grid_context().grid();
        sheet.note(format!(
            "product {}x{}x{}: grid {}x{}x{}",
            s.prob.m, s.prob.n, s.prob.k, g.pm, g.pn, g.pk
        ));
    }
    let products: Arc<Vec<Product>> = Arc::new(
        plans
            .iter()
            .zip(&blocks)
            .map(|(plan, (a, b))| Product {
                plan: Arc::clone(plan),
                a: Arc::clone(a),
                b: Arc::clone(b),
            })
            .collect(),
    );

    // The first op fills caches and is checked against serial GEMM; every
    // later op must reproduce it bit for bit.
    let (golden, _) = run_op(&world, &products);
    sheet.check_op(check_against_serial(&specs, &inputs, &golden));
    drop(inputs);
    drop(blocks);
    let mut tracer = (cfg.pass == Pass::Traced).then(|| Tracer::new(&specs, &products));
    let rss_reset = reset_peak_rss();

    let mut op_secs = Vec::new();
    let window = Instant::now();
    while window.elapsed() < Duration::from_secs_f64(cfg.seconds) || op_secs.len() < 3 {
        let (out, secs) = run_op(&world, &products);
        op_secs.push(secs);
        sheet.check_op(bitwise_diff(&out, &golden));
        match tracer.as_mut() {
            Some(t) => t.op(&world, &products, &golden, sheet),
            None => drop(time_into(&mut setup_secs, SETUP_ROUND, setup)),
        }
    }
    let p50 = median(&op_secs);
    let n = op_secs.len();

    match tracer {
        None => {
            let p90 = quantile(&op_secs, 0.9);
            sheet.note(format!(
                "op_ms_p50 = {:.3} ms, op_ms_p90 = {:.3} ms ({})",
                p50 * 1e3,
                p90 * 1e3,
                tail_count(n, 0.9)
            ));
            sheet.note(format!("setup_s over {} set-ups", setup_secs.len()));
            sheet.put("setup_s", median(&setup_secs));
            sheet.put("gflops", flops_per_op / p50 / 1e9);
            if !rss_reset {
                sheet.note("peak_rss_mb spans the whole process (watermark reset refused)");
            }
            sheet.put("peak_rss_mb", crate::measure::peak_rss_mb());
        }
        Some(t) => {
            t.report(p50, sheet);
            sheet.put("msgpass.job_us", job_round_trip_us(&world));
        }
    }
}

/// The traced pass of a `--trace 1` run: traced ops alternate with the
/// untraced ones, so both see the same host conditions.
struct Tracer {
    plans: Vec<Arc<Plan>>,
    redists: Arc<Vec<Redists>>,
    walls: Vec<f64>,
    /// Slowest rank's layer sum over op wall time, per op.
    fracs: Vec<f64>,
    per_op: Vec<[f64; OP_LAYERS.len()]>,
    /// `dense::prof` thread-seconds: pack, compute, idle, total.
    prof: [f64; 4],
    search_s: f64,
    plan_s: f64,
    build_s: f64,
}

impl Tracer {
    /// Times the set-up layers (grid search, redistribution programs,
    /// `Plan::build`) and prepares the traced op.
    fn new(specs: &[ProductSpec], products: &[Product]) -> Tracer {
        let plans: Vec<Arc<Plan>> = products.iter().map(|p| Arc::clone(&p.plan)).collect();
        let floor = gridopt::DEFAULT_UTILIZATION_FLOOR;
        let (search_s, ()) = median_secs(SETUP_REPS, || {
            for p in &plans {
                gridopt::ca3dmm_grid_timed(p.ca3dmm().grid_context().problem(), floor);
            }
        });
        let (plan_s, redists) = median_secs(SETUP_REPS, || {
            plans.iter().map(|p| build_redists(p)).collect::<Vec<_>>()
        });
        let (build_s, _) = median_secs(SETUP_REPS, || {
            specs.iter().map(build_plan).collect::<Vec<_>>()
        });
        Tracer {
            plans,
            redists: Arc::new(redists),
            walls: Vec::new(),
            fracs: Vec::new(),
            per_op: Vec::new(),
            prof: [0.0; 4],
            search_s,
            plan_s,
            build_s,
        }
    }

    /// Runs and checks one traced op.
    fn op(
        &mut self,
        world: &PersistentWorld,
        products: &Arc<Vec<Product>>,
        golden: &OpOut,
        sheet: &mut Sheet,
    ) {
        dense::prof::set_gemm_profiling(true);
        let (out, spans, report, wall) = run_traced_op(world, products, &self.redists);
        dense::prof::set_gemm_profiling(false);
        sheet.check_op(bitwise_diff(&out, golden));
        let max_of = |f: fn(&RankLayers) -> f64| spans.iter().map(f).fold(0.0, f64::max);
        // same order as OP_LAYERS
        self.per_op.push([
            max_of(|s| s.redist_in),
            max_of(|s| s.redist_out),
            report.wait_secs_max("redist"),
            max_of(|s| s.comms),
            max_of(|s| s.native),
            report.phase_secs_max("replicate_ab"),
            report.phase_secs_max("cannon_shift"),
            report.wait_secs_max("cannon_shift"),
            report.phase_secs_max("reduce_c"),
            report.wait_secs_max("reduce_c"),
        ]);
        self.fracs.push(max_of(RankLayers::sum) / wall);
        self.walls.push(wall);
        for prof in report.compute.iter().flatten() {
            let k = &prof.profile;
            self.prof[0] += k.pack_a_secs + k.pack_b_secs;
            self.prof[1] += k.compute_secs;
            self.prof[2] += k.idle_secs;
            self.prof[3] += k.thread_secs;
        }
    }

    /// Puts the per-layer metrics and runs the layer-sum check.
    fn report(self, untraced_p50: f64, sheet: &mut Sheet) {
        let traced_p50 = median(&self.walls);
        let layer_frac = median(&self.fracs);
        if !(LAYER_SUM_MIN..=LAYER_SUM_MAX).contains(&layer_frac) {
            sheet.errors.push(format!(
                "layer spans cover {layer_frac:.3} of op wall time, outside [{LAYER_SUM_MIN}, {LAYER_SUM_MAX}]"
            ));
        }
        sheet.note(format!(
            "traced: {} ops, op_ms_p50 {:.3} ms traced vs {:.3} ms untraced; layers cover {:.3} of op wall (tolerance [{LAYER_SUM_MIN}, {LAYER_SUM_MAX}])",
            self.walls.len(),
            traced_p50 * 1e3,
            untraced_p50 * 1e3,
            layer_frac
        ));
        for (i, name) in OP_LAYERS.iter().enumerate() {
            let col: Vec<f64> = self.per_op.iter().map(|r| r[i]).collect();
            sheet.put(name, median(&col) * 1e3);
        }
        let [pack, compute, idle, thread] = self.prof;
        let frac = |x: f64| if thread > 0.0 { x / thread } else { 0.0 };
        let plans: Vec<&Plan> = self.plans.iter().map(Arc::as_ref).collect();
        sheet.put("ca3dmm.layer_sum_frac", layer_frac);
        sheet.put("dense.pack_frac", frac(pack));
        sheet.put("dense.compute_frac", frac(compute));
        sheet.put("dense.idle_frac", frac(idle));
        sheet.put("gridopt.search_ms", self.search_s * 1e3);
        sheet.put("layout.plan_ms", self.plan_s * 1e3);
        sheet.put("ca3dmm.plan_build_ms", self.build_s * 1e3);
        sheet.put("dense.gemm_gflops", gemm_probe(&plans));
        sheet.put(
            "trace_overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
        );
    }
}

/// Gflop/s of serial `dense::gemm` (one kernel thread, as each rank runs)
/// on the local Cannon block shapes of rank 0 in each plan, in the plan's
/// dtype, flop-weighted over the plans.
pub fn gemm_probe(plans: &[&Plan]) -> f64 {
    dense::pool::set_rank_gemm_threads(Some(KERNEL_THREADS));
    let (mut flops, mut secs) = (0.0, 0.0);
    for plan in plans {
        let gc = plan.ca3dmm().grid_context();
        let coord = gc.coord_of(0);
        let (a, b) = (gc.a_block(&coord), gc.b_block(&coord));
        let (m, k, n) = (a.rows, a.cols, b.cols);
        if m * n * k == 0 {
            continue;
        }
        flops += 2.0 * (m * n * k) as f64;
        secs += match plan.dtype() {
            Dtype::F64 => time_gemm::<f64>(m, n, k),
            Dtype::F32 => time_gemm::<f32>(m, n, k),
        };
    }
    dense::pool::set_rank_gemm_threads(None);
    if secs > 0.0 {
        flops / secs / 1e9
    } else {
        0.0
    }
}

/// Median seconds of one `m×k · k×n` `dense::gemm`, over enough
/// repetitions for about 10 Gflop of work (at least three).
fn time_gemm<T: Scalar>(m: usize, n: usize, k: usize) -> f64 {
    let x = dense::random::random_mat::<T>(m, k, 1);
    let y = dense::random::random_mat::<T>(k, n, 2);
    let mut z = Mat::<T>::zeros(m, n);
    let reps = (1e10 / (2.0 * (m * n * k) as f64)) as usize;
    let one = T::from_f64(1.0);
    let (t, ()) = median_secs(reps.clamp(3, 200), || {
        dense::gemm(GemmOp::NoTrans, GemmOp::NoTrans, one, &x, &y, one, &mut z);
        std::hint::black_box(&z);
    });
    t
}
