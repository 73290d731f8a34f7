//! EOS, Borderline-SMOTE and ADASYN take every deficient class's
//! neighbourhoods from one `query_rows_batch` call, through
//! `deficient_class_neighbors`. Each query's list depends only on that
//! query, so the lists, and every balanced set built from them, must be
//! the ones a call per class gives: checked list by list against such
//! calls, and set by set against digests recorded when each sampler made
//! one call per class, at thread budgets 1 and 4.

use eos_core::Eos;
use eos_neighbors::{BruteForceKnn, Metric, Neighbor};
use eos_resample::{
    balance_with, deficient_class_neighbors, deficits, indices_by_class, Adasyn, BorderlineSmote,
    Oversampler,
};
use eos_tensor::record::Fnv;
use eos_tensor::{par, Rng64, Tensor};
use std::sync::Mutex;

/// `set_num_threads` is process-global; every test here holds this lock.
static LOCK: Mutex<()> = Mutex::new(());

/// Rows per class and the centre of its blob. Five classes: a majority at
/// the origin, a second class as large (a zero deficit between deficient
/// classes), a minority overlapping the majority, a seven-row class far
/// from every other (no enemy within K = 5, so EOS falls back to SMOTE),
/// and a minority beside the second class. The sizes put the per-class
/// query blocks and the merged call's blocks on different boundaries.
const SPEC: [(usize, f32); 5] = [(60, 0.0), (60, 3.0), (25, 0.5), (7, 100.0), (17, 3.5)];

/// The isolated class of [`SPEC`].
const ISOLATED: usize = 3;

/// The [`SPEC`] classes in shuffled row order, six features each.
fn scene() -> (Tensor, Vec<usize>) {
    let mut rng = Rng64::new(2024);
    let d = 6;
    let mut rows: Vec<(usize, Vec<f32>)> = Vec::new();
    for (class, &(count, centre)) in SPEC.iter().enumerate() {
        for _ in 0..count {
            let row = (0..d).map(|_| centre + rng.normal_f32(0.0, 0.6)).collect();
            rows.push((class, row));
        }
    }
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i + 1));
    }
    let y: Vec<usize> = rows.iter().map(|(c, _)| *c).collect();
    let x = rows.into_iter().flat_map(|(_, r)| r).collect();
    (Tensor::from_vec(x, &[y.len(), d]), y)
}

/// The FNV-1a digest of a balanced set's values and labels.
fn digest(bx: &Tensor, by: &[usize]) -> u64 {
    let mut h = Fnv::new();
    for &v in bx.data() {
        h.f32(v);
    }
    for &c in by {
        h.u64(c as u64);
    }
    h.finish()
}

#[test]
fn one_call_returns_each_class_its_own_lists() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    let (x, y) = scene();
    let index = BruteForceKnn::new(&x, Metric::Euclidean);
    let (needs, idx) = (deficits(&y, SPEC.len()), indices_by_class(&y, SPEC.len()));
    assert_eq!(needs, [0, 0, 35, 53, 43]);
    let bits = |hits: &[Vec<Neighbor>]| -> Vec<Vec<(usize, u32)>> {
        let hit = |h: &Neighbor| (h.index, h.distance.to_bits());
        hits.iter().map(|l| l.iter().map(hit).collect()).collect()
    };
    for threads in [1, 4] {
        par::set_num_threads(threads);
        for k in [1, 5, 10, 16, 17, 40] {
            let merged = deficient_class_neighbors(&index, &idx, &needs, k);
            assert_eq!(merged.len(), SPEC.len());
            for (class, hits) in merged.iter().enumerate() {
                let want = match needs[class] {
                    0 => Vec::new(),
                    _ => bits(&index.query_rows_batch(&idx[class], k)),
                };
                assert_eq!(
                    bits(hits),
                    want,
                    "class {class}, k = {k}, {threads} threads"
                );
            }
        }
    }
    par::set_num_threads(restore);
}

#[test]
fn balanced_sets_match_one_call_per_class() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    let (x, y) = scene();
    // Recorded with each sampler making one `query_rows_batch` call per
    // deficient class.
    let cases: [(&str, Box<dyn Oversampler>, u64); 4] = [
        ("EOS k=5", Box::new(Eos::new(5)), 0xa95f_8c08_1ff3_5891),
        ("EOS k=10", Box::new(Eos::new(10)), 0xfe51_d932_13c6_9a93),
        (
            "B-SMOTE 5,5",
            Box::new(BorderlineSmote::new(5, 5)),
            0x5f16_e123_cc28_60b3,
        ),
        ("ADASYN 5", Box::new(Adasyn::new(5)), 0xc8f8_9344_75f5_be7f),
    ];
    for threads in [1, 4] {
        par::set_num_threads(threads);
        for (name, sampler, want) in &cases {
            let (bx, by) = balance_with(sampler.as_ref(), &x, &y, SPEC.len(), &mut Rng64::new(77));
            assert_eq!(digest(&bx, &by), *want, "{name}, {threads} threads");
            if *name == "EOS k=5" {
                // The isolated class's synthetic rows stay inside its blob:
                // EOS's SMOTE fallback made them.
                let synthetic = (y.len()..by.len()).filter(|&i| by[i] == ISOLATED);
                let rows: Vec<usize> = synthetic.collect();
                assert_eq!(rows.len(), 53);
                assert!(rows
                    .iter()
                    .all(|&i| bx.row_slice(i).iter().all(|&v| v > 90.0)));
            }
        }
    }
    par::set_num_threads(restore);
}
