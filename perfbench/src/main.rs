//! End-to-end PGEMM benchmark of the CA3DMM stack.
//!
//! ```text
//! perfbench --workload square|cholqr|serve_zipf|sim3072 --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` alternates
//! untraced and traced ops over the window and reports the per-layer
//! metrics (from the traced ops) plus the tracing overhead. Every op's
//! output is checked. Human-readable lines come first; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 0 only when every check passed, and 2 (with
//! no result line) on a usage error or a `DENSE_GEMM_*` override.
//!
//! Run it from the repository root (`sim3072` reads the committed
//! `results/REPORT_fig3_sim.json`); `perfbench/run.py` builds and runs it.

mod measure;
mod pgemm;
mod serving;
mod sim;

use jsonlite::Json;
use measure::Sheet;

/// Ranks of the wall-clock workloads.
pub const P: usize = 4;
/// Kernel threads per rank.
pub const KERNEL_THREADS: usize = 1;

/// The metrics `--trace 0` reports in its result line, with units. Every
/// workload reports all of them. Op latencies are printed above the result
/// line, not in it: `serve_zipf` request latency moved by more than 25%
/// between runs on a shared 2-vCPU host, too much to gate on.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("gflops", "Gflop/s"),
    ("peak_rss_mb", "MB"),
];

/// The metrics `--trace 1` reports, with units. A layer a workload does
/// not exercise reports 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("msgpass.job_us", "us"),
    ("msgpass.sim_msgs_per_s", "1/s"),
    ("gridopt.search_ms", "ms"),
    ("layout.plan_ms", "ms"),
    ("layout.redist_in_ms", "ms"),
    ("layout.redist_out_ms", "ms"),
    ("layout.redist_wait_ms", "ms"),
    ("ca3dmm.plan_build_ms", "ms"),
    ("ca3dmm.comms_ms", "ms"),
    ("ca3dmm.native_ms", "ms"),
    ("ca3dmm.replicate_ms", "ms"),
    ("ca3dmm.cannon_ms", "ms"),
    ("ca3dmm.cannon_wait_ms", "ms"),
    ("ca3dmm.reduce_ms", "ms"),
    ("ca3dmm.reduce_wait_ms", "ms"),
    ("ca3dmm.layer_sum_frac", "frac"),
    ("dense.gemm_gflops", "Gflop/s"),
    ("dense.pack_frac", "frac"),
    ("dense.compute_frac", "frac"),
    ("dense.idle_frac", "frac"),
    ("serve.parse_us", "us"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.cache_hit_frac", "frac"),
    ("serve.backlog_max", "count"),
    ("serve.gen_lag_ms_max", "ms"),
    ("trace_overhead_pct", "%"),
];

const WORKLOADS: [&str; 4] = ["square", "cholqr", "serve_zipf", "sim3072"];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    Plain,
    Traced,
}

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub pass: Pass,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = value.parse::<u8>().ok().filter(|t| *t <= 1),
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Config {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed takes a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds takes a positive number")),
        pass: match trace {
            Some(0) => Pass::Plain,
            Some(_) => Pass::Traced,
            None => usage("--trace takes 0 or 1"),
        },
    }
}

/// Every number must measure default dispatch: refuse to run under any
/// `dense` override.
fn refuse_overrides() {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DENSE_GEMM_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset it to measure default dispatch",
            set.join(", ")
        );
        std::process::exit(2);
    }
}

fn print_environment(cfg: &Config) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let blk = dense::tune::blocking::<f64>();
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.pass == Pass::Traced)
    );
    println!(
        "environment: nproc {nproc}, dense kernel {}, f64 blocking mc={} kc={} nc={}",
        dense::kernel::gemm_kernel().name(),
        blk.mc,
        blk.kc,
        blk.nc
    );
    if cfg.workload == "sim3072" {
        println!("ranks: 3072 virtual (virtual time, local GEMMs skipped)");
    } else {
        let threads = P * KERNEL_THREADS;
        println!(
            "ranks: p {P}, {KERNEL_THREADS} kernel thread per rank, {threads} compute threads on {nproc} cores: oversubscription {:.2}x (not scaling)",
            threads as f64 / nproc as f64
        );
    }
}

fn main() {
    let cfg = parse_args();
    refuse_overrides();
    print_environment(&cfg);

    let mut sheet = Sheet::default();
    match cfg.workload.as_str() {
        "square" => pgemm::run(&cfg, pgemm::square_spec(cfg.seed), &mut sheet),
        "cholqr" => pgemm::run(&cfg, pgemm::cholqr_spec(cfg.seed), &mut sheet),
        "serve_zipf" => serving::run(&cfg, &mut sheet),
        "sim3072" => sim::run(&cfg, &mut sheet),
        _ => unreachable!("workload validated in parse_args"),
    }

    for line in &sheet.notes {
        println!("{line}");
    }
    let table: &[(&str, &str)] = match cfg.pass {
        Pass::Plain => &END_TO_END,
        Pass::Traced => &PER_LAYER,
    };
    for m in &sheet.metrics {
        assert!(
            table.iter().any(|(name, _)| *name == m.name),
            "metric {} is not in this pass's table",
            m.name
        );
    }
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let found = sheet.metrics.iter().find(|m| m.name == *name);
        let value = match (found, cfg.pass) {
            (Some(m), _) => {
                println!("{name} = {} {unit}", m.value);
                m.value
            }
            (None, Pass::Traced) => {
                println!("{name} = 0 {unit} (not exercised by {})", cfg.workload);
                0.0
            }
            (None, Pass::Plain) if !sheet.correct() => continue,
            (None, Pass::Plain) => panic!("end-to-end metric {name} was not measured"),
        };
        metrics.push((
            name.to_string(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]),
        ));
    }
    println!("ops attempted {} failed {}", sheet.attempted, sheet.failed);
    for e in &sheet.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = sheet.correct();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(sheet.attempted as f64)),
        ("failed", Json::Num(sheet.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    std::process::exit(if correct { 0 } else { 1 });
}
