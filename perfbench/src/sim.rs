//! `sim3072`: `Ca3dmm::simulate_native` at p = 3072, m = n = 3072,
//! k = 6144, local GEMMs skipped — the fig3 point whose artifact is
//! committed as `results/REPORT_fig3_sim.json`. The simulation is
//! deterministic, so every op must reproduce the artifact's makespan,
//! sent bytes and sent messages exactly.

use crate::measure::{median, median_secs, quantile, reset_peak_rss, tail_count, time_into, Sheet};
use crate::{Config, Pass};
use ca3dmm::{Ca3dmm, Ca3dmmOptions};
use gridopt::Problem;
use msgpass::{RunReport, SimOptions};
use netmodel::Machine;
use std::time::{Duration, Instant};

const P: usize = 3072;
const M: usize = 3072;
const N: usize = 3072;
const K: usize = 6144;

/// The committed artifact the simulation must reproduce, relative to the
/// repository root.
const ARTIFACT: &str = "results/REPORT_fig3_sim.json";

/// Repetitions of the timed set-up before the window (about a millisecond
/// each).
const SETUP_REPS: usize = 200;
/// Set-ups timed after every op of an untraced window, so `setup_s`, the
/// median of all of them, covers the host conditions of the whole run.
const SETUP_ROUND: usize = 20;

/// `(makespan_secs, sent_bytes, sent_msgs)` of a virtual-time report.
type Totals = (f64, u64, u64);

fn totals(report: &RunReport) -> Totals {
    let sim = report.sim.as_ref().expect("virtual-time run has sim info");
    let msgs = (0..report.per_rank.len())
        .map(|r| report.rank_total(r).msgs)
        .sum();
    (sim.makespan_secs, report.total_bytes(), msgs)
}

/// Reads the artifact's totals.
fn expected() -> Result<Totals, String> {
    let text = std::fs::read_to_string(ARTIFACT).map_err(|e| format!("reading {ARTIFACT}: {e}"))?;
    let doc = jsonlite::Json::parse(&text).map_err(|e| format!("parsing {ARTIFACT}: {e}"))?;
    let num = |sect: &str, key: &str| {
        doc.get(sect)
            .and_then(|s| s.get(key))
            .and_then(jsonlite::Json::as_f64)
            .ok_or_else(|| format!("{ARTIFACT} lacks {sect}.{key}"))
    };
    Ok((
        num("sim", "makespan_secs")?,
        num("totals", "sent_bytes")? as u64,
        num("totals", "sent_msgs")? as u64,
    ))
}

fn simulate(alg: &Ca3dmm, machine: &Machine) -> (RunReport, f64) {
    let t = Instant::now();
    let report = alg.simulate_native(
        machine,
        SimOptions {
            placement: Some(machine.pure_mpi()),
            execute_compute: false,
            ..SimOptions::default()
        },
    );
    (report, t.elapsed().as_secs_f64())
}

pub fn run(cfg: &Config, sheet: &mut Sheet) {
    let want = match expected() {
        Ok(t) => t,
        Err(e) => {
            sheet.check_op(Some(e));
            return;
        }
    };
    let machine = Machine::phoenix_cpu();
    let prob = Problem::new(M, N, K, P);
    let setup = || Ca3dmm::new(prob, &Ca3dmmOptions::default());
    let mut setup_secs = Vec::new();
    let alg = time_into(&mut setup_secs, SETUP_REPS, setup);
    // the construction span of the traced pass: set-up before the window
    let build_s = median(&setup_secs);
    let g = alg.grid_context().grid();
    sheet.note(format!(
        "problem {M}x{N}x{K} on {P} virtual ranks: grid {}x{}x{}",
        g.pm, g.pn, g.pk
    ));

    let check = |got: Totals| {
        (got != want).then(|| {
            format!(
                "simulation gave (makespan {}, bytes {}, msgs {}), {ARTIFACT} has ({}, {}, {})",
                got.0, got.1, got.2, want.0, want.1, want.2
            )
        })
    };
    // First op warms the allocator and thread machinery; checked like the rest.
    let (report, _) = simulate(&alg, &machine);
    let msgs = totals(&report).2;
    sheet.check_op(check(totals(&report)));
    drop(report);
    let rss_reset = reset_peak_rss();

    let mut secs = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs_f64(cfg.seconds) || secs.len() < 3 {
        let (report, wall) = simulate(&alg, &machine);
        secs.push(wall);
        sheet.check_op(check(totals(&report)));
        if cfg.pass == Pass::Plain {
            time_into(&mut setup_secs, SETUP_ROUND, setup);
        }
    }
    let p50 = median(&secs);
    let n = secs.len();

    match cfg.pass {
        Pass::Plain => {
            let p90 = quantile(&secs, 0.9);
            sheet.note(format!(
                "op_ms_p50 = {:.1} ms, op_ms_p90 = {:.1} ms ({})",
                p50 * 1e3,
                p90 * 1e3,
                tail_count(n, 0.9)
            ));
            let flops = 2.0 * M as f64 * N as f64 * K as f64;
            sheet.note(format!("setup_s over {} set-ups", setup_secs.len()));
            sheet.put("setup_s", median(&setup_secs));
            sheet.put("gflops", flops / p50 / 1e9);
            if !rss_reset {
                sheet.note("peak_rss_mb spans the whole process (watermark reset refused)");
            }
            sheet.put("peak_rss_mb", crate::measure::peak_rss_mb());
        }
        Pass::Traced => {
            // The benchmark's own spans: grid search, construction and whole
            // simulations. The simulator's layers are not observable from
            // outside in wall time, so there is no traced op to compare.
            let floor = gridopt::DEFAULT_UTILIZATION_FLOOR;
            let (search_s, _) =
                median_secs(SETUP_REPS, || gridopt::ca3dmm_grid_timed(&prob, floor));
            let world = crate::pgemm::spawn_warm_world();
            sheet.put("msgpass.job_us", crate::pgemm::job_round_trip_us(&world));
            sheet.put("msgpass.sim_msgs_per_s", msgs as f64 / p50);
            sheet.put("gridopt.search_ms", search_s * 1e3);
            sheet.put("ca3dmm.plan_build_ms", build_s * 1e3);
        }
    }
}
