//! GEMM micro-kernel benchmark: the packed register-blocked kernel in
//! `eos_tensor::matmul` against the seed scalar kernel it replaced, with a
//! bit-identity check and a machine-readable `results/BENCH_gemm.json`.
//!
//! `--smoke` trims the sample count so `scripts/verify.sh` can run this as
//! a cheap regression gate.

use eos_bench::{bench_stats, record_host_facts, JsonRecord};
use eos_tensor::{normal, par, Rng64};

const BLOCK_K: usize = 64;

/// The pre-packing scalar GEMM (`i-k-j` order with a `BLOCK_K` cache
/// block), kept verbatim as the speedup baseline and the bit-identity
/// reference for the packed kernel.
fn seed_gemm(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let nrows = out.len() / n;
    for kb in (0..k).step_by(BLOCK_K) {
        let kend = (kb + BLOCK_K).min(k);
        for r in 0..nrows {
            let arow = &a[r * k..(r + 1) * k];
            let crow = &mut out[r * n..(r + 1) * n];
            for p in kb..kend {
                let av = arow[p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let samples = if smoke { 3 } else { 30 };
    let (m, k, n) = (256usize, 256usize, 256usize);
    let flops = 2 * (m * k * n) as u64;

    let mut rng = Rng64::new(7);
    let a = normal(&[m, k], 0.0, 1.0, &mut rng);
    let b = normal(&[k, n], 0.0, 1.0, &mut rng);

    // The acceptance quantity is the *single-thread* kernel speedup, so
    // both baselines run with the pool switched off.
    let ambient = par::num_threads();
    par::set_num_threads(1);

    let mut seed_out = vec![0.0f32; m * n];
    let seed = bench_stats(&format!("seed scalar gemm {m}x{k}x{n}"), samples, || {
        seed_out.fill(0.0);
        seed_gemm(a.data(), b.data(), &mut seed_out, k, n);
    });
    let packed = bench_stats(
        &format!("packed gemm {m}x{k}x{n} (1 thread)"),
        samples,
        || a.matmul(&b),
    );

    let packed_out = a.matmul(&b);
    let identical = packed_out
        .data()
        .iter()
        .zip(&seed_out)
        .all(|(x, y)| x.to_bits() == y.to_bits());

    par::set_num_threads(ambient);
    let packed_mt = bench_stats(
        &format!("packed gemm {m}x{k}x{n} ({ambient} threads)"),
        samples,
        || a.matmul(&b),
    );

    let speedup = seed.min.as_nanos() as f64 / packed.min.as_nanos().max(1) as f64;
    println!(
        "single-thread speedup {speedup:.2}x  ({:.2} -> {:.2} GFLOP/s)  bit-identical: {identical}",
        seed.gflops(flops),
        packed.gflops(flops),
    );
    if !identical {
        eprintln!("FAIL: packed kernel output differs from the seed kernel");
        std::process::exit(1);
    }
    if speedup < 2.0 && !smoke {
        eprintln!("warning: single-thread speedup below the 2x target");
    }

    let mut rec = JsonRecord::new();
    rec.str("bench", "gemm")
        .int("m", m as u64)
        .int("k", k as u64)
        .int("n", n as u64)
        .int("samples", samples as u64)
        .int("seed_mean_ns", seed.mean.as_nanos() as u64)
        .int("seed_min_ns", seed.min.as_nanos() as u64)
        .num("seed_gflops", seed.gflops(flops))
        .int("packed_mean_ns", packed.mean.as_nanos() as u64)
        .int("packed_min_ns", packed.min.as_nanos() as u64)
        .num("packed_gflops", packed.gflops(flops))
        .num("single_thread_speedup", speedup)
        .int("threads_mt", ambient as u64)
        .int("packed_mt_min_ns", packed_mt.min.as_nanos() as u64)
        .num("packed_mt_gflops", packed_mt.gflops(flops))
        .bool("bit_identical", identical);
    record_host_facts(&mut rec);
    rec.write("BENCH_gemm");
}
