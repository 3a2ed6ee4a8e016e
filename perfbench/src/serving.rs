//! `serve_zipf`: multiply requests sent through `serve::Server::handle_line`
//! in-process, over a Zipf-weighted mix of six plan keys, in two phases on
//! one server:
//!
//! * an open loop at a fixed rate with Poisson arrivals. Latency is
//!   measured from each request's due time, so a stall in the server (or a
//!   late generator) counts against every request it delays. The offered
//!   rate runs for a warm-up interval before this phase's window opens.
//! * a closed loop that keeps [`DEPTH`] requests in flight, so the server
//!   is never idle. Its throughput is the gated `gflops`: the Gflop/s of
//!   each block of [`DECK_LEN`] completed requests (the same key mix every
//!   block), median over the blocks. How fast the server dispatches,
//!   batches, plans and computes sets it; the seed does not.
//!
//! Set-up starts a server and completes one request per key, because
//! `Server::new` returns before its dispatcher has spawned and warmed the
//! world. It is timed [`SETUP_REPS`] times, half before the window and half
//! after it; the last server started before the window serves both phases.

use crate::measure::{median, median_secs, quantile, reset_peak_rss, tail_count, Rng, Sheet};
use crate::{Config, Pass, P};
use ca3dmm::{Dtype, Plan};
use dense::gemm::GemmOp;
use dense::{Mat, Rect, Scalar};
use jsonlite::Json;
use serve::protocol::{parse_request, Limits, MultiplyRequest, Request};
use serve::{ResponseSink, SchedulerConfig, Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load of the open loop, requests per second: about 30% busy on
/// a 2-vCPU host, where 90 req/s kept the single slot saturated.
const RATE: f64 = 25.0;
/// The latency limit `slo_frac` counts against.
const SLO_MS: f64 = 50.0;
/// Seconds of offered load before the open loop's window.
const WARMUP_S: f64 = 1.0;
/// Share of `--seconds` given to the open loop; the closed loop gets the
/// rest.
const OPEN_SHARE: f64 = 0.5;
/// Requests the closed loop keeps in flight.
const DEPTH: usize = 4;
/// Server start-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Seed pairs per key: repeats make the checksum-stability check bite.
const PAIRS_PER_KEY: usize = 3;
/// How long to wait for a response before giving up on the rest.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// The plan keys, most frequent first.
const KEYS: [&str; 6] = [
    r#""m":256,"n":256,"k":256,"dtype":"f64""#,
    r#""m":512,"n":512,"k":512,"dtype":"f32""#,
    r#""m":1024,"n":1024,"k":64"#,
    r#""m":128,"n":128,"k":4096,"op_a":"t""#,
    r#""m":768,"n":768,"k":768,"layout_a":"block:2x2","layout_b":"cyclic:2x2:32x32","layout_c":"row""#,
    // grid 1x3x1: one of the four ranks idles
    r#""m":384,"n":1536,"k":384"#,
];

/// Requests per key in every block of [`DECK_LEN`]: Zipf weights
/// `1/rank^0.7` scaled by 20 and rounded. The exponent keeps the median
/// request inside one latency mode (the 512³ and 128×128×4096 keys) instead
/// of on the edge of the 256³ key's.
const DECK: [usize; 6] = [20, 12, 9, 8, 6, 6];
const DECK_LEN: usize = 61;

/// Deals keys from [`DECK`]: each consecutive block of [`DECK_LEN`]
/// requests holds exactly its counts, in seeded random order, so every run
/// offers the same key mix. Each request also draws one of its key's seed
/// pairs.
struct Dealer {
    deck: Vec<usize>,
    dealt: usize,
}

impl Dealer {
    fn new() -> Dealer {
        let deck: Vec<usize> = DECK
            .iter()
            .enumerate()
            .flat_map(|(key, &n)| std::iter::repeat_n(key, n))
            .collect();
        assert_eq!(deck.len(), DECK_LEN);
        Dealer { deck, dealt: 0 }
    }

    /// The next `(key, pair)`.
    fn next(&mut self, rng: &mut Rng) -> (usize, usize) {
        let pos = self.dealt % DECK_LEN;
        if pos == 0 {
            // Fisher-Yates
            for i in (1..DECK_LEN).rev() {
                self.deck
                    .swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
        }
        self.dealt += 1;
        let pair = (rng.next_u64() % PAIRS_PER_KEY as u64) as usize;
        (self.deck[pos], pair)
    }
}

/// One request of the open loop.
struct Arrival {
    /// Seconds after the loop starts.
    due: f64,
    key: usize,
    pair: usize,
}

/// Which phase a request belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Part {
    /// Open loop, before its window.
    Warmup,
    Untraced,
    /// Open loop, parsed by the benchmark inside a span before sending.
    Traced,
    Closed,
}

/// What a successful response said.
struct Reply {
    at: Instant,
    checksum: String,
    sum: f64,
    plan_ms: f64,
    exec_ms: f64,
    total_ms: f64,
    batched: f64,
    cache_hit: bool,
}

fn line(id: &str, key: usize, seeds: (u64, u64)) -> String {
    format!(
        r#"{{"cmd":"multiply","id":"{id}",{},"seed_a":{},"seed_b":{}}}"#,
        KEYS[key], seeds.0, seeds.1
    )
}

fn parse_multiply(text: &str) -> MultiplyRequest {
    match parse_request(text, P, &Limits::default()) {
        Ok(Request::Multiply(req)) => *req,
        other => panic!("benchmark request {text} did not parse as a multiply: {other:?}"),
    }
}

/// Poisson arrivals at [`RATE`] over `secs`, keys dealt by `dealer`.
fn schedule(rng: &mut Rng, dealer: &mut Dealer, secs: f64) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / RATE;
        if t >= secs {
            return out;
        }
        let (key, pair) = dealer.next(rng);
        out.push(Arrival { due: t, key, pair });
    }
}

/// Serial reference for a request: the element sum of `op(A)·op(B)` from
/// `dense::gemm` on the global inputs, and the tolerance a distributed sum
/// may differ by: both sides carry at most `(k+2)·eps` relative error per
/// product term, bounded through `Σ_ij (|op(A)|·|op(B)|)_ij`.
fn reference(req: &MultiplyRequest) -> (f64, f64) {
    match req.dtype {
        Dtype::F64 => reference_typed::<f64>(req),
        Dtype::F32 => reference_typed::<f32>(req),
    }
}

fn reference_typed<T: Scalar>(req: &MultiplyRequest) -> (f64, f64) {
    let global = |seed: u64, (r, c): (usize, usize)| -> Mat<T> {
        dense::random::global_block::<T>(seed, Rect::new(0, 0, r, c))
    };
    let a = global(req.seed_a, req.a_layout.shape());
    let b = global(req.seed_b, req.b_layout.shape());
    let mut c = Mat::<T>::zeros(req.prob.m, req.prob.n);
    dense::gemm(
        req.op_a,
        req.op_b,
        T::from_f64(1.0),
        &a,
        &b,
        T::from_f64(0.0),
        &mut c,
    );
    let sum = serve::engine::digest_of_global(&c, &req.c_layout).sum;
    // Σ_l (Σ_i |op(A)_il|)·(Σ_j |op(B)_lj|)
    let k = req.prob.k;
    let mut a_abs = vec![0.0f64; k];
    let mut b_abs = vec![0.0f64; k];
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            let l = if req.op_a == GemmOp::Trans { i } else { j };
            a_abs[l] += a.get(i, j).to_f64().abs();
        }
    }
    for i in 0..b.rows() {
        for j in 0..b.cols() {
            let l = if req.op_b == GemmOp::Trans { j } else { i };
            b_abs[l] += b.get(i, j).to_f64().abs();
        }
    }
    let s_abs: f64 = a_abs.iter().zip(&b_abs).map(|(x, y)| x * y).sum();
    let tol = 2.0 * (k + 2) as f64 * T::EPSILON.to_f64() * s_abs;
    (sum, tol)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        sched: SchedulerConfig {
            p: P,
            slots: 1,
            ..SchedulerConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn reply_of(at: Instant, resp: &Json) -> Result<Reply, String> {
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("not ok: {resp}"));
    }
    let num = |k: &str| {
        resp.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("response lacks {k}: {resp}"))
    };
    Ok(Reply {
        at,
        checksum: resp
            .get("checksum")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("response lacks checksum: {resp}"))?
            .to_owned(),
        sum: num("sum")?,
        plan_ms: num("plan_ms")?,
        exec_ms: num("exec_ms")?,
        total_ms: num("total_ms")?,
        batched: num("batched")?,
        cache_hit: resp.get("cache").and_then(Json::as_str) == Some("hit"),
    })
}

/// The correctness oracle: per (key, pair), the reference sum and
/// tolerance, and the checksum every response must repeat.
struct Oracle {
    refs: Vec<Vec<(f64, f64)>>,
    checksums: BTreeMap<(usize, usize), String>,
}

impl Oracle {
    fn check(&mut self, key: usize, pair: usize, reply: &Reply) -> Option<String> {
        let (want, tol) = self.refs[key][pair];
        if (reply.sum - want).abs() > tol || reply.sum.is_nan() {
            return Some(format!(
                "key {key} pair {pair}: sum {} differs from the serial reference {want} by more than {tol:.3e}",
                reply.sum
            ));
        }
        let first = self
            .checksums
            .entry((key, pair))
            .or_insert_with(|| reply.checksum.clone());
        (*first != reply.checksum).then(|| {
            format!(
                "key {key} pair {pair}: checksum {} differs from the first response's {first}",
                reply.checksum
            )
        })
    }
}

/// Response channel of one run: `(arrival instant, response)`.
type Responses = mpsc::Receiver<(Instant, Json)>;

/// Waits for the response to set-up request `id`, the only one in flight.
fn wait_for(rx: &Responses, id: &str) -> Result<Reply, String> {
    let (at, resp) = rx
        .recv_timeout(DRAIN_TIMEOUT)
        .map_err(|_| format!("no response to set-up request {id}"))?;
    if resp.get("id").and_then(Json::as_str) != Some(id) {
        return Err(format!("set-up request {id} got the response {resp}"));
    }
    reply_of(at, &resp)
}

/// One request of the window and what came back.
struct Record {
    key: usize,
    pair: usize,
    part: Part,
    /// When it was due (open loop) or sent (closed loop).
    due: Instant,
    /// How late the generator sent it, ms.
    lag_ms: f64,
    /// Requests in flight when it was sent.
    backlog: usize,
    reply: Option<Result<Reply, String>>,
}

/// Files a response under its request `<prefix><index>`; returns the index,
/// or `None` for a response that is not one of `recs`.
fn file(recs: &mut [Record], prefix: &str, at: Instant, resp: &Json) -> Option<usize> {
    let idx = resp
        .get("id")
        .and_then(Json::as_str)
        .and_then(|s| s.strip_prefix(prefix))
        .and_then(|s| s.parse::<usize>().ok())?;
    let rec = recs.get_mut(idx)?;
    rec.reply = Some(reply_of(at, resp));
    Some(idx)
}

/// Runs the open loop's arrivals against `server` and waits for every
/// response (up to [`DRAIN_TIMEOUT`]). In a traced run every other
/// request of the window is traced: the benchmark parses its line itself,
/// inside a span, before sending it, so traced and untraced requests see
/// the same load.
fn open_loop(
    server: &Server,
    sink: &ResponseSink,
    rx: &Responses,
    arrivals: &[Arrival],
    seeds: &[Vec<(u64, u64)>],
    traced_pass: bool,
    parse_secs: &mut Vec<f64>,
) -> Vec<Record> {
    let lines: Vec<String> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| line(&format!("o{i}"), a.key, seeds[a.key][a.pair]))
        .collect();
    let limits = Limits::default();
    let start = Instant::now() + Duration::from_millis(5);
    let mut recs: Vec<Record> = Vec::with_capacity(arrivals.len());
    let mut received = 0usize;
    for (i, a) in arrivals.iter().enumerate() {
        let due = start + Duration::from_secs_f64(a.due);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        while let Ok((at, resp)) = rx.try_recv() {
            received += usize::from(file(&mut recs, "o", at, &resp).is_some());
        }
        let part = if a.due < WARMUP_S {
            Part::Warmup
        } else if traced_pass && i % 2 == 1 {
            Part::Traced
        } else {
            Part::Untraced
        };
        recs.push(Record {
            key: a.key,
            pair: a.pair,
            part,
            due,
            lag_ms: due.elapsed().as_secs_f64() * 1e3,
            backlog: i - received,
            reply: None,
        });
        if part == Part::Traced {
            let t = Instant::now();
            let parsed = parse_request(&lines[i], P, &limits);
            parse_secs.push(t.elapsed().as_secs_f64());
            std::hint::black_box(parsed.is_ok());
        }
        server.handle_line(&lines[i], sink);
    }
    while received < arrivals.len() {
        let Ok((at, resp)) = rx.recv_timeout(DRAIN_TIMEOUT) else {
            break;
        };
        received += usize::from(file(&mut recs, "o", at, &resp).is_some());
    }
    recs
}

/// Keeps [`DEPTH`] requests in flight for `secs`, then waits for the rest.
/// Returns every request with its reply and, for each block of
/// [`DECK_LEN`] consecutive completions, its Gflop/s (nominal 2mnk of the
/// block's ok requests over the time since the previous block completed)
/// and its peak resident set in MiB (the watermark is reset at every block
/// boundary).
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    server: &Server,
    sink: &ResponseSink,
    rx: &Responses,
    rng: &mut Rng,
    dealer: &mut Dealer,
    seeds: &[Vec<(u64, u64)>],
    flops: &[f64],
    secs: f64,
) -> (Vec<Record>, Vec<f64>, Vec<f64>) {
    let mut recs: Vec<Record> = Vec::new();
    let mut send = |recs: &mut Vec<Record>| {
        let (key, pair) = dealer.next(rng);
        let text = line(&format!("c{}", recs.len()), key, seeds[key][pair]);
        recs.push(Record {
            key,
            pair,
            part: Part::Closed,
            due: Instant::now(),
            lag_ms: 0.0,
            backlog: DEPTH,
            reply: None,
        });
        server.handle_line(&text, sink);
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    for _ in 0..DEPTH {
        send(&mut recs);
    }
    let (mut blocks, mut block_rss) = (Vec::new(), Vec::new());
    let (mut block_start, mut block_flops, mut block_done) = (start, 0.0, 0);
    let mut received = 0;
    while received < recs.len() {
        let Ok((at, resp)) = rx.recv_timeout(DRAIN_TIMEOUT) else {
            break;
        };
        let Some(i) = file(&mut recs, "c", at, &resp) else {
            continue;
        };
        received += 1;
        if matches!(recs[i].reply, Some(Ok(_))) {
            block_flops += flops[recs[i].key];
        }
        block_done += 1;
        if block_done == DECK_LEN {
            blocks.push(block_flops / (at - block_start).as_secs_f64() / 1e9);
            block_rss.push(crate::measure::peak_rss_mb());
            reset_peak_rss();
            (block_start, block_flops, block_done) = (at, 0.0, 0);
        }
        if Instant::now() < end {
            send(&mut recs);
        }
    }
    (recs, blocks, block_rss)
}

/// One set-up: starts a server and completes one request per key, each
/// checked. Returns the server and the seconds it took, or `None` when a
/// request failed (a missing response would be taken for a later one).
fn start_server(
    rx: &Responses,
    sink: &ResponseSink,
    seeds: &[Vec<(u64, u64)>],
    oracle: &mut Oracle,
    sheet: &mut Sheet,
    rep: usize,
) -> Option<(Server, f64)> {
    let t = Instant::now();
    let server = Server::new(&server_config());
    let warm: Vec<Result<Reply, String>> = (0..KEYS.len())
        .map(|key| {
            let id = format!("setup{rep}-{key}");
            server.handle_line(&line(&id, key, seeds[key][0]), sink);
            wait_for(rx, &id)
        })
        .collect();
    let secs = t.elapsed().as_secs_f64();
    let failed = warm.iter().any(Result::is_err);
    for (key, reply) in warm.iter().enumerate() {
        let problem = match reply {
            Ok(r) => oracle.check(key, 0, r),
            Err(e) => Some(e.clone()),
        };
        sheet.check_op(problem);
    }
    (!failed).then_some((server, secs))
}

pub fn run(cfg: &Config, sheet: &mut Sheet) {
    let mut rng = Rng::new(cfg.seed, 13);
    let seeds: Vec<Vec<(u64, u64)>> = (0..KEYS.len())
        .map(|_| {
            (0..PAIRS_PER_KEY)
                .map(|_| (rng.matrix_seed(), rng.matrix_seed()))
                .collect()
        })
        .collect();
    let requests: Vec<Vec<MultiplyRequest>> = (0..KEYS.len())
        .map(|key| {
            seeds[key]
                .iter()
                .map(|&s| parse_multiply(&line("ref", key, s)))
                .collect()
        })
        .collect();
    let flops: Vec<f64> = requests
        .iter()
        .map(|r| 2.0 * r[0].prob.m as f64 * r[0].prob.n as f64 * r[0].prob.k as f64)
        .collect();
    let mut oracle = Oracle {
        refs: requests
            .iter()
            .map(|reqs| reqs.iter().map(reference).collect())
            .collect(),
        checksums: BTreeMap::new(),
    };

    let (tx, rx) = mpsc::channel::<(Instant, Json)>();
    let sink: ResponseSink = Arc::new(move |resp: Json| {
        let _ = tx.send((Instant::now(), resp));
    });

    // Set-up, timed SETUP_REPS times: half before the window (the last of
    // these servers serves it), half after it.
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut server: Option<Server> = None;
    for rep in 0..SETUP_REPS / 2 {
        if let Some(old) = server.take() {
            old.finish();
        }
        match start_server(&rx, &sink, &seeds, &mut oracle, sheet, rep) {
            Some((started, secs)) => {
                setup_secs.push(secs);
                server = Some(started);
            }
            None => return,
        }
    }
    let server = server.expect("at least one set-up");

    let mut dealer = Dealer::new();
    let open_secs = cfg.seconds * OPEN_SHARE;
    let arrivals = schedule(&mut rng, &mut dealer, WARMUP_S + open_secs);
    let mut parse_secs = Vec::new();
    let mut records = open_loop(
        &server,
        &sink,
        &rx,
        &arrivals,
        &seeds,
        cfg.pass == Pass::Traced,
        &mut parse_secs,
    );
    let rss_reset = reset_peak_rss();
    let (closed, blocks, block_rss) = closed_loop(
        &server,
        &sink,
        &rx,
        &mut rng,
        &mut dealer,
        &seeds,
        &flops,
        cfg.seconds - open_secs,
    );
    records.extend(closed);
    server.finish();
    for rep in SETUP_REPS / 2..SETUP_REPS {
        match start_server(&rx, &sink, &seeds, &mut oracle, sheet, rep) {
            Some((started, secs)) => {
                setup_secs.push(secs);
                started.finish();
            }
            None => return,
        }
    }

    // Check every response; collect the open loop window's latencies,
    // untraced ([0]) and traced ([1]).
    let mut lat: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut window: Vec<&Record> = Vec::new();
    let mut window_replies: Vec<&Reply> = Vec::new();
    for rec in &records {
        let outcome = match &rec.reply {
            None => Err(format!("a key {} request got no response", rec.key)),
            Some(Err(e)) => Err(e.clone()),
            Some(Ok(r)) => oracle.check(rec.key, rec.pair, r).map_or(Ok(r), Err),
        };
        let ok = outcome.as_ref().ok().copied();
        sheet.check_op(outcome.err());
        if !matches!(rec.part, Part::Untraced | Part::Traced) {
            continue;
        }
        // a failed request counts as missing the latency limit
        let ms = ok.map_or(f64::INFINITY, |r| (r.at - rec.due).as_secs_f64() * 1e3);
        lat[usize::from(rec.part == Part::Traced)].push(ms);
        window.push(rec);
        window_replies.extend(ok);
    }
    let n = lat[0].len();
    if n == 0 || blocks.is_empty() {
        sheet.errors.push(format!(
            "the window held {n} open-loop requests and {} closed-loop blocks; both must be nonzero",
            blocks.len()
        ));
        return;
    }
    let p50 = median(&lat[0]);
    let lag_max = window.iter().map(|r| r.lag_ms).fold(0.0, f64::max);
    match cfg.pass {
        Pass::Plain => {
            let slo_frac = lat[0].iter().filter(|&&ms| ms <= SLO_MS).count() as f64 / n as f64;
            sheet.note(format!(
                "open loop {RATE} req/s, Poisson, 1 slot, {open_secs} s: {}",
                tail_count(n, 0.99)
            ));
            sheet.note(format!(
                "request_ms_p50 = {p50:.3} ms, request_ms_p99 = {:.3} ms, slo_frac = {slo_frac:.4} (ok within {SLO_MS} ms); generator lag max {lag_max:.3} ms",
                quantile(&lat[0], 0.99)
            ));
            sheet.note(format!(
                "closed loop {DEPTH} in flight, {} s: {} blocks of {DECK_LEN} requests, block Gflop/s p10 {:.3} p50 {:.3} p90 {:.3}",
                cfg.seconds - open_secs,
                blocks.len(),
                quantile(&blocks, 0.1),
                median(&blocks),
                quantile(&blocks, 0.9)
            ));
            sheet.put("setup_s", median(&setup_secs));
            sheet.put("gflops", median(&blocks));
            if !rss_reset {
                sheet.note("peak_rss_mb spans the whole process (watermark reset refused)");
            }
            sheet.put("peak_rss_mb", median(&block_rss));
        }
        Pass::Traced => {
            let traced_p50 = median(&lat[1]);
            sheet.note(format!(
                "traced: {} requests, request_ms_p50 {traced_p50:.3} ms traced vs {p50:.3} ms untraced",
                lat[1].len()
            ));
            let (build_s, plans) = median_secs(5, || {
                requests
                    .iter()
                    .map(|r| build_plan(&r[0]))
                    .collect::<Vec<_>>()
            });
            let (search_s, ()) = median_secs(5, || {
                for r in &requests {
                    gridopt::ca3dmm_grid_timed(&r[0].prob, r[0].opts.utilization_floor);
                }
            });
            let (redist_s, _) = median_secs(5, || {
                plans
                    .iter()
                    .map(crate::pgemm::build_redists)
                    .collect::<Vec<_>>()
            });
            let plan_refs: Vec<&Plan> = plans.iter().collect();
            let col =
                |f: fn(&Reply) -> f64| window_replies.iter().map(|r| f(r)).collect::<Vec<_>>();
            let queue = col(|r| r.total_ms - r.plan_ms - r.exec_ms);
            let hits = window_replies.iter().filter(|r| r.cache_hit).count();
            let replies_n = window_replies.len().max(1) as f64;
            sheet.put("gridopt.search_ms", search_s * 1e3);
            sheet.put("layout.plan_ms", redist_s * 1e3);
            sheet.put("ca3dmm.plan_build_ms", build_s * 1e3);
            sheet.put("dense.gemm_gflops", crate::pgemm::gemm_probe(&plan_refs));
            sheet.put("serve.parse_us", median(&parse_secs) * 1e6);
            sheet.put("serve.exec_ms_p50", median(&col(|r| r.exec_ms)));
            sheet.put("serve.queue_ms_p50", median(&queue));
            sheet.put("serve.queue_ms_p99", quantile(&queue, 0.99));
            sheet.put(
                "serve.batch_mean",
                col(|r| r.batched).iter().sum::<f64>() / replies_n,
            );
            sheet.put("serve.cache_hit_frac", hits as f64 / replies_n);
            sheet.put(
                "serve.backlog_max",
                window.iter().map(|r| r.backlog).max().unwrap_or(0) as f64,
            );
            sheet.put("serve.gen_lag_ms_max", lag_max);
            sheet.put("trace_overhead_pct", (traced_p50 / p50 - 1.0) * 100.0);
            let world = crate::pgemm::spawn_warm_world();
            sheet.put("msgpass.job_us", crate::pgemm::job_round_trip_us(&world));
        }
    }
}

/// Builds the plan a request names, as the server would.
fn build_plan(req: &MultiplyRequest) -> Plan {
    Plan::build(
        req.prob,
        &req.opts,
        req.dtype,
        req.op_a,
        &req.a_layout,
        req.op_b,
        &req.b_layout,
        &req.c_layout,
    )
}
