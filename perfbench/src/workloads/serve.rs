//! `serve`: batched inference through `eos_serve::Server` (1 worker × 1
//! thread, `max_batch` 32, `max_wait` 200 µs) on an `InferenceModel`
//! restored from an EOSW checkpoint of the small ResNet at 3×8×8. One
//! client thread runs a closed loop with 128 requests outstanding, drawn
//! from the 1000 test rows; each completion triggers the next submit.
//! One op is one request, timed from submit to answer.

use super::train::{resnet_dims, Train};
use super::{overhead_pct, same_bits, split_gap_pct, Measured};
use crate::rebuild::Rebuilt;
use crate::report::{Outcome, CHILDREN};
use crate::Opts;
use eos_core::{PipelineConfig, Scale};
use eos_nn::{load_weights, save_weights_bytes, ConvNet};
use eos_serve::{InferenceModel, ServeConfig, Server, Ticket};
use eos_tensor::{Rng64, Tensor};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests the client keeps in flight.
pub const OUTSTANDING: usize = 128;

/// Training steps run on the model before it is checkpointed, so batch
/// norm's running statistics are not at their initial values.
const PRETRAIN_STEPS: usize = 16;

/// The checkpoint every replica restores, and how to rebuild its shape.
#[derive(Clone)]
pub struct Checkpoint {
    bytes: Arc<Vec<u8>>,
    shape: (usize, usize, usize),
    classes: usize,
}

impl Checkpoint {
    /// A fresh replica restored from the checkpoint bytes.
    pub fn model(&self) -> InferenceModel {
        let cfg = PipelineConfig::small();
        let net = ConvNet::new(cfg.arch, self.shape, self.classes, &mut Rng64::new(0));
        let (c, h, w) = self.shape;
        InferenceModel::from_eosw_bytes(Box::new(net), c * h * w, &self.bytes)
            .expect("checkpoint restores into its own architecture")
    }

    /// The rebuilt child list with the checkpoint's weights.
    pub fn rebuilt(&self) -> Rebuilt {
        let (bps, width) = resnet_dims(&PipelineConfig::small());
        let mut r = Rebuilt::resnet(self.shape, bps, width, self.classes, &mut Rng64::new(0));
        load_weights(&mut r, &self.bytes[..]).expect("rebuilt list takes the checkpoint");
        r
    }
}

/// A running server, the request rows and their reference answers.
pub struct Serve {
    server: Server,
    ckpt: Checkpoint,
    rows: Tensor,
    reference: Vec<Vec<f32>>,
    rng: Rng64,
}

/// One measured closed-loop phase.
struct Phase {
    measured: Measured,
    submitted: u64,
    submit_us: f64,
}

impl Phase {
    /// One phase made of consecutive slices: their completions, spans,
    /// failures and submits add up.
    fn join(slices: Vec<Phase>) -> Phase {
        let mut m = Measured::default();
        let (mut submitted, mut submit_us) = (0u64, 0.0);
        for p in slices {
            let offset = m.span_s;
            for (&ms, &end) in p.measured.op_ms.iter().zip(&p.measured.op_end_s) {
                m.record(ms, offset + end);
            }
            m.span_s += p.measured.span_s;
            m.failed += p.measured.failed;
            submit_us += p.submit_us * p.submitted as f64;
            submitted += p.submitted;
        }
        Phase {
            measured: m,
            submitted,
            submit_us: submit_us / submitted.max(1) as f64,
        }
    }
}

impl Serve {
    /// Trains and checkpoints the model, computes every test row's
    /// single-row reference logits, starts the server and runs one
    /// untimed closed-loop round of [`OUTSTANDING`] requests.
    pub fn setup(seed: u64) -> Serve {
        let mut t = Train::setup(seed);
        for _ in 0..PRETRAIN_STEPS {
            t.op();
        }
        let (_, test) = eos_bench::prepared_dataset("cifar10", Scale::Small, seed);
        let ckpt = Checkpoint {
            bytes: Arc::new(save_weights_bytes(t.net_mut())),
            shape: test.shape,
            classes: test.num_classes,
        };
        let mut reference_model = ckpt.model();
        let reference = (0..test.len())
            .map(|i| {
                reference_model
                    .forward(&test.x.select_rows(&[i]))
                    .into_vec()
            })
            .collect();
        let cfg = ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            queue_cap: 1024,
            workers: 1,
            threads_per_worker: 1,
        };
        let factory = ckpt.clone();
        let mut s = Serve {
            server: Server::start(cfg, move |_| factory.model()),
            ckpt,
            rows: test.x,
            reference,
            rng: Rng64::new(seed ^ 0x5345_5256),
        };
        s.closed_loop(Duration::ZERO, false);
        s
    }

    fn submit(
        &mut self,
        inflight: &mut VecDeque<(Ticket, usize, Instant)>,
        timed: bool,
        us: &mut f64,
    ) -> bool {
        let row = self.rng.below(self.rows.dim(0));
        let features = self.rows.row_slice(row).to_vec();
        let t0 = Instant::now();
        let res = self.server.submit(features);
        if timed {
            *us += t0.elapsed().as_secs_f64() * 1e6;
        }
        match res {
            Ok(ticket) => {
                inflight.push_back((ticket, row, t0));
                true
            }
            Err(_) => false,
        }
    }

    /// Keeps [`OUTSTANDING`] requests in flight for `window`, then drains
    /// them. Latency and throughput count completions inside the window;
    /// every answer, drained ones too, is checked bit for bit against the
    /// row's single-row reference. A refused submit counts as failed.
    fn closed_loop(&mut self, window: Duration, time_submits: bool) -> Phase {
        let mut inflight = VecDeque::with_capacity(OUTSTANDING);
        let (mut submitted, mut submit_us) = (0u64, 0.0);
        let mut m = Measured::default();
        let start = Instant::now();
        for _ in 0..OUTSTANDING {
            submitted += 1;
            m.failed += u64::from(!self.submit(&mut inflight, time_submits, &mut submit_us));
        }
        let mut elapsed = start.elapsed();
        while let Some((ticket, row, t0)) = inflight.pop_front() {
            let ok = match ticket.wait() {
                Ok(p) => same_bits(&p.logits, &self.reference[row]),
                Err(_) => false,
            };
            m.failed += u64::from(!ok);
            if elapsed < window {
                elapsed = start.elapsed();
                m.record(t0.elapsed().as_secs_f64() * 1e3, elapsed.as_secs_f64());
                if elapsed < window {
                    submitted += 1;
                    m.failed +=
                        u64::from(!self.submit(&mut inflight, time_submits, &mut submit_us));
                }
            }
        }
        m.span_s = elapsed.as_secs_f64();
        Phase {
            measured: m,
            submitted,
            submit_us: submit_us / submitted.max(1) as f64,
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

/// Untraced run: end-to-end metrics. Every submitted request is an
/// attempted op.
pub fn run(opts: &Opts) -> Outcome {
    // Timings as measured: scaling is used only where it was shown to
    // steady the figures (`train`).
    super::untraced(
        false,
        || Serve::setup(opts.seed),
        |s| {
            let phase = s.closed_loop(Duration::from_secs_f64(opts.seconds), false);
            (phase.measured, phase.submitted)
        },
    )
}

/// Milliseconds one call of `f` takes.
fn ms_of<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    drop(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Slices each closed-loop phase of the traced run is split into.
const SLICES: usize = 8;

/// Traced run: the closed loop with every submit timed and the serving
/// engine's own `serve.*` counters read, then `InferenceModel::forward`
/// replayed on 32 rows and on 1 row, and the rebuilt child list replayed
/// on the same 32 rows with each child timed (its logits asserted equal
/// to the model's).
pub fn traced(seed: u64, phase_s: f64) -> Outcome {
    const REPS: usize = 50;
    let mut s = Serve::setup(seed);
    let mut model = s.ckpt.model();
    let b32 = s.rows.select_rows(&(0..32).collect::<Vec<_>>());
    let b1 = s.rows.select_rows(&[0]);
    // The untraced phase runs in slices with a batch-32 forward replayed
    // after each, so `serve.overhead_pct` compares throughput and forward
    // time taken under the same host conditions. The traced phase runs
    // in the same slices.
    let slice = Duration::from_secs_f64(phase_s / SLICES as f64);
    let mut paced_b32_ms = 0.0;
    let mut untraced = Vec::with_capacity(SLICES);
    for _ in 0..SLICES {
        untraced.push(s.closed_loop(slice, false));
        paced_b32_ms += ms_of(|| model.forward(&b32));
    }
    let untraced = Phase::join(untraced);
    eos_trace::reset();
    eos_trace::set_enabled(true);
    let traced = Phase::join((0..SLICES).map(|_| s.closed_loop(slice, true)).collect());
    let snap = eos_trace::snapshot();
    eos_trace::set_enabled(false);
    s.server.shutdown();

    let mut rebuilt = s.ckpt.rebuilt();
    let mut child_ms = [0.0; CHILDREN.len()];
    let same = same_bits(
        rebuilt.infer_timed(&b32, &mut child_ms).data(),
        model.forward(&b32).data(),
    );
    // Interleaved, so the undivided forward and its per-child split see
    // the same host conditions.
    let (mut b32_ms, mut b1_ms) = (0.0, 0.0);
    child_ms = [0.0; CHILDREN.len()];
    for _ in 0..REPS {
        b32_ms += ms_of(|| model.forward(&b32));
        rebuilt.infer_timed(&b32, &mut child_ms);
        b1_ms += ms_of(|| model.forward(&b1));
    }
    let (b32_ms, b1_ms) = (b32_ms / REPS as f64, b1_ms / REPS as f64);

    let failed = untraced.measured.failed + traced.measured.failed;
    let mut out = Outcome {
        correct: failed == 0 && same,
        attempted: untraced.submitted + traced.submitted,
        failed,
        ..Outcome::default()
    };
    out.push("serve.serve.submit_us", traced.submit_us);
    out.push("serve.serve.batches", snap.counter("serve.batches") as f64);
    out.push(
        "serve.serve.batch_size_mean",
        snap.histogram("serve.batch_size").map_or(0.0, |h| h.mean()),
    );
    let req_per_s = untraced.measured.ops_per_s();
    let paced_b32_ms = paced_b32_ms / SLICES as f64;
    out.push(
        "serve.serve.overhead_pct",
        100.0 * (1.0 - req_per_s * paced_b32_ms / 1e3 / 32.0),
    );
    out.push("serve.nn.infer.b32_ms", b32_ms);
    out.push("serve.nn.infer.b1_ms", b1_ms);
    for (child, t) in CHILDREN.iter().zip(&child_ms) {
        out.push(format!("serve.nn.infer.{child}_ms"), t / REPS as f64);
    }
    out.push(
        "serve.nn.infer.split_gap_pct",
        split_gap_pct(b32_ms, child_ms.iter().sum::<f64>() / REPS as f64),
    );
    out.push(
        "serve.trace.overhead_pct",
        overhead_pct(untraced.measured.ops_per_s(), traced.measured.ops_per_s()),
    );
    out
}
