//! Serving-engine benchmark: throughput and tail latency of the
//! micro-batcher across batch sizes and `workers × threads` splits.
//!
//! A warmed ResNet checkpoint is served through `eos_serve::Server` and
//! driven two ways:
//!
//! * **Closed loop** — a fixed pool of clients each submit-and-wait in a
//!   tight loop, so offered load tracks capacity. The headline numbers
//!   compare `max_batch = 1` (every request runs alone: the no-batching
//!   baseline) against `max_batch = 32` on the same 4-thread budget —
//!   the acceptance gate requires batching to at least **double**
//!   throughput — then sweep batch size × thread split.
//! * **Open loop** — requests arrive on a fixed pace regardless of
//!   completions (25% above measured batched capacity), so the bounded
//!   queue must shed load: rejected submits are counted rather than
//!   buffered, and completed-request latency shows the backpressure.
//!
//! Latency percentiles are nearest-rank over client-observed
//! submit-to-resolve times. Everything lands in
//! `results/BENCH_serve.json`; the trace registry (span tree,
//! `serve.*` counters, queue-depth / batch-size / latency histograms)
//! lands in `results/TRACE_serve.json` for the verify gate's JSON
//! validator. `--smoke` trims request counts for `scripts/verify.sh`.

use eos_bench::{percentile, record_host_facts, JsonRecord};
use eos_nn::{save_weights_bytes, Architecture, ConvNet};
use eos_serve::{ServeConfig, ServeError, Server};
use eos_tensor::{normal, Rng64};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHAPE: (usize, usize, usize) = (3, 16, 16);
const IN_LEN: usize = 3 * 16 * 16;
const CLASSES: usize = 4;

fn arch() -> Architecture {
    Architecture::ResNet {
        blocks_per_stage: 1,
        width: 8,
    }
}

/// Train-mode warm-up then serialize: the served model reads non-trivial
/// batch-norm running statistics, like a real checkpoint would.
fn checkpoint() -> Arc<[u8]> {
    let mut rng = Rng64::new(42);
    let mut net = ConvNet::new(arch(), SHAPE, CLASSES, &mut rng);
    for _ in 0..2 {
        let x = normal(&[16, IN_LEN], 0.0, 1.0, &mut rng);
        let _ = net.forward(&x, true);
    }
    save_weights_bytes(&mut net).into()
}

fn start(blob: &Arc<[u8]>, max_batch: usize, workers: usize, threads: usize) -> Server {
    let blob = Arc::clone(blob);
    Server::start(
        ServeConfig {
            max_batch,
            max_wait: Duration::from_micros(200),
            queue_cap: 4096,
            workers,
            threads_per_worker: threads,
        },
        move |_| {
            let fresh = ConvNet::new(arch(), SHAPE, CLASSES, &mut Rng64::new(0));
            eos_serve::InferenceModel::from_eosw_bytes(Box::new(fresh), IN_LEN, &blob)
                .expect("checkpoint restores")
        },
    )
}

/// One load-generation run's results.
struct LoadResult {
    completed: usize,
    rejected: usize,
    elapsed: Duration,
    latencies: Vec<Duration>,
}

impl LoadResult {
    fn rps(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Closed loop: `clients` threads each run `per_client` submit-and-wait
/// iterations. Overload rejections back off and retry (a closed-loop
/// client's next request *is* its retry), so every request completes.
fn closed_loop(server: &Server, clients: usize, per_client: usize) -> LoadResult {
    let t0 = Instant::now();
    let latencies = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    // Input generation is not the system under test: build
                    // this client's request up front so the measured loop
                    // is submit → wait → resolve and nothing else.
                    let mut rng = Rng64::new(0xC11E27 + c as u64);
                    let x = normal(&[1, IN_LEN], 0.0, 1.0, &mut rng).data().to_vec();
                    let mut lat = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let begin = Instant::now();
                        let ticket = loop {
                            match server.submit(x.clone()) {
                                Ok(t) => break t,
                                Err(ServeError::Overloaded { .. }) => {
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                                Err(e) => panic!("closed-loop submit failed: {e}"),
                            }
                        };
                        ticket.wait().expect("closed-loop request failed");
                        lat.push(begin.elapsed());
                    }
                    lat
                })
            })
            .collect();
        let mut all = Vec::with_capacity(clients * per_client);
        for h in handles {
            all.extend(h.join().expect("client thread panicked"));
        }
        all
    });
    LoadResult {
        completed: latencies.len(),
        rejected: 0,
        elapsed: t0.elapsed(),
        latencies,
    }
}

/// Open loop: one pacer submits `total` requests at a fixed interval no
/// matter how the server keeps up; overloaded submits are shed and
/// counted. Collector threads redeem tickets as they resolve so waiting
/// never throttles the pacer.
fn open_loop(server: &Server, total: usize, rate_rps: f64) -> LoadResult {
    let interval = Duration::from_secs_f64(1.0 / rate_rps.max(1.0));
    let rejected = AtomicUsize::new(0);
    let t0 = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel::<(Instant, eos_serve::Ticket)>();
    let rx = std::sync::Mutex::new(rx);
    let latencies = std::thread::scope(|s| {
        let collectors: Vec<_> = (0..4)
            .map(|_| {
                let rx = &rx;
                s.spawn(move || {
                    let mut lat = Vec::new();
                    loop {
                        let msg = rx.lock().unwrap().recv();
                        match msg {
                            Ok((begin, ticket)) => {
                                ticket.wait().expect("open-loop request failed");
                                lat.push(begin.elapsed());
                            }
                            Err(_) => return lat,
                        }
                    }
                })
            })
            .collect();
        let mut rng = Rng64::new(0x09E7);
        let x0 = normal(&[1, IN_LEN], 0.0, 1.0, &mut rng).data().to_vec();
        let start = Instant::now();
        for i in 0..total {
            let due = start + interval * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            match server.submit(x0.clone()) {
                Ok(t) => tx.send((Instant::now(), t)).expect("collector alive"),
                Err(ServeError::Overloaded { .. }) => {
                    rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("open-loop submit failed: {e}"),
            }
        }
        drop(tx);
        let mut all = Vec::new();
        for c in collectors {
            all.extend(c.join().expect("collector thread panicked"));
        }
        all
    });
    LoadResult {
        completed: latencies.len(),
        rejected: rejected.load(Ordering::Relaxed),
        elapsed: t0.elapsed(),
        latencies,
    }
}

/// Runs one closed-loop config and records it under `key_`-prefixed
/// fields.
fn record_closed(rec: &mut JsonRecord, key: &str, label: &str, res: &LoadResult) -> f64 {
    let p50 = percentile(&res.latencies, 50.0);
    let p99 = percentile(&res.latencies, 99.0);
    println!(
        "{label:<44} {:>9.0} req/s  p50 {:>10}  p99 {:>10}",
        res.rps(),
        eos_bench::format_duration(p50),
        eos_bench::format_duration(p99),
    );
    rec.num(&format!("{key}_rps"), res.rps())
        .int(&format!("{key}_p50_ns"), p50.as_nanos() as u64)
        .int(&format!("{key}_p99_ns"), p99.as_nanos() as u64);
    res.rps()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (default_clients, per_client, open_total) =
        if smoke { (64, 6, 800) } else { (64, 40, 8000) };
    let clients: usize = std::env::var("EOS_SERVE_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_clients);
    eos_trace::set_enabled(true);
    let blob = checkpoint();

    let mut rec = JsonRecord::new();
    rec.str("bench", "serve")
        .str("arch", "resnet-1x8")
        .int("input_len", IN_LEN as u64)
        .int("classes", CLASSES as u64)
        .int("clients", clients as u64)
        .int("requests_per_client", per_client as u64);
    // On a host with fewer than 4 cores the "t4" configurations run on
    // fewer threads than their label says.
    record_host_facts(&mut rec).int(
        "effective_threads_t4",
        eos_serve::effective_threads(4) as u64,
    );

    // Unrecorded warm-up: first-touch page faults, model deserialization
    // and allocator pool growth land here instead of inside the first
    // recorded configuration (run order must not bias the headline).
    let server = start(&blob, 32, 1, 4);
    let _ = closed_loop(&server, clients, per_client.min(6));
    server.shutdown();

    // --- Headline: no-batching baseline vs batch-32, same 4-thread
    // budget. This is the acceptance ratio. Machine throughput drifts
    // tens of percent over a run (frequency scaling, page-cache warmth),
    // so a single A-then-B measurement biases whichever config runs
    // closer to the peak; instead the two configs alternate for several
    // rounds and each reports its best round — both sides get an equal
    // shot at the machine's fastest state.
    const ROUNDS: usize = 3;
    let mut baseline: Option<LoadResult> = None;
    let mut batched: Option<LoadResult> = None;
    for _ in 0..ROUNDS {
        for (max_batch, slot) in [(1usize, &mut baseline), (32, &mut batched)] {
            let server = start(&blob, max_batch, 1, 4);
            let res = closed_loop(&server, clients, per_client);
            server.shutdown();
            if slot.as_ref().is_none_or(|best| res.rps() > best.rps()) {
                *slot = Some(res);
            }
        }
    }
    let (baseline, batched) = (baseline.unwrap(), batched.unwrap());
    let baseline_rps = record_closed(
        &mut rec,
        "baseline_b1_w1t4",
        "closed loop b=1 1w×4t",
        &baseline,
    );
    let batched_rps = record_closed(
        &mut rec,
        "batched_b32_w1t4",
        "closed loop b=32 1w×4t",
        &batched,
    );

    let speedup = batched_rps / baseline_rps.max(1e-9);
    println!("batching speedup at batch 32 on 4 threads: {speedup:.2}x");
    rec.num("batching_speedup_b32_t4", speedup);

    // --- Sweep: batch size × thread split at a fixed 4-thread footprint,
    // plus batch 32 on wider splits.
    for (batch, workers, threads) in [
        (8usize, 1usize, 4usize),
        (32, 1, 1),
        (32, 2, 2),
        (32, 4, 1),
        (8, 4, 1),
    ] {
        let server = start(&blob, batch, workers, threads);
        let res = closed_loop(&server, clients, per_client);
        server.shutdown();
        record_closed(
            &mut rec,
            &format!("b{batch}_w{workers}t{threads}"),
            &format!("closed loop b={batch} {workers}w×{threads}t"),
            &res,
        );
    }

    // --- Open loop at 125% of measured batched capacity: the bounded
    // queue must shed the overflow as typed rejections, not buffer it.
    let offered = batched_rps * 1.25;
    let server = start(&blob, 32, 1, 4);
    let open = open_loop(&server, open_total, offered);
    server.shutdown();
    let p99 = percentile(&open.latencies, 99.0);
    println!(
        "open loop @ {offered:.0} req/s offered: {:.0} req/s completed, {} shed, p99 {}",
        open.rps(),
        open.rejected,
        eos_bench::format_duration(p99),
    );
    rec.num("openloop_offered_rps", offered)
        .num("openloop_completed_rps", open.rps())
        .int("openloop_total", open_total as u64)
        .int("openloop_completed", open.completed as u64)
        .int("openloop_shed", open.rejected as u64)
        .int("openloop_p99_ns", p99.as_nanos() as u64);

    rec.write("BENCH_serve");
    if let Some((summary, events)) = eos_trace::write_trace("serve") {
        // Verify-gate contract: both artifacts are byte-valid JSON (RFC
        // 8259) — the summary one complete value, the event log one
        // value per line.
        let s = std::fs::read_to_string(&summary).expect("trace summary readable");
        if let Err(e) = eos_trace::validate(&s) {
            panic!("TRACE_serve.json is not valid JSON: {e}");
        }
        let ev = std::fs::read_to_string(&events).expect("trace events readable");
        for (i, line) in ev.lines().enumerate() {
            if let Err(e) = eos_trace::validate(line) {
                panic!("TRACE_serve.jsonl line {} is not valid JSON: {e}", i + 1);
            }
        }
        println!(
            "trace: {} and {} (JSON validated)",
            summary.display(),
            events.display()
        );
    }
    eos_trace::set_enabled(false);

    if speedup < 2.0 {
        eprintln!("FAIL: batching speedup {speedup:.2}x < 2.0x at batch 32 on 4 threads");
        std::process::exit(1);
    }
}
