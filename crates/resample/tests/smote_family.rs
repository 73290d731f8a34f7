//! Property tests for the SMOTE family (SMOTE, Borderline-SMOTE, ADASYN),
//! randomized over seeds, dimensionality and imbalance profile. Each test
//! re-derives the algorithm's defining invariant from first principles
//! (brute-force neighbourhoods, explicit segment algebra) and checks the
//! implementation against it.

use eos_neighbors::{BruteForceKnn, Metric, NnIndex};
use eos_resample::{
    balance_with, class_counts, deficits, indices_by_class, Adasyn, BorderlineSmote, Oversampler,
    Smote,
};
use eos_tensor::{Rng64, Tensor};

const CASES: u64 = 24;

/// Gaussian blobs with geometric class imbalance; dimensionality and
/// imbalance ratio vary with the seed so the sweep crosses both k-NN
/// backends (d ≤ `TREE_MAX_DIM` = 2 uses the KD-tree, wider the linear scan).
fn scene(seed: u64) -> (Tensor, Vec<usize>, usize) {
    let mut rng = Rng64::new(seed);
    let classes = 2 + rng.below(3); // 2..=4
    let d = 2 + rng.below(19); // 2..=20
    let majority = 18 + rng.below(10);
    let shrink = 1.8 + rng.uniform_f32() * 2.2; // per-class imbalance factor
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for c in 0..classes {
        let n = ((majority as f32 / shrink.powi(c as i32)) as usize).max(3);
        for _ in 0..n {
            let v: Vec<f32> = (0..d)
                .map(|_| rng.normal_f32(c as f32 * 2.0, 1.0))
                .collect();
            rows.push(Tensor::from_vec(v, &[d]));
            y.push(c);
        }
    }
    (Tensor::stack_rows(&rows), y, classes)
}

/// Is `s` on the segment `[b, nb]` (within tolerance)? Solves for the
/// interpolation factor on the widest coordinate and checks the rest.
fn on_segment(s: &[f32], b: &[f32], nb: &[f32]) -> bool {
    let (mut j0, mut span) = (0usize, 0.0f32);
    for (j, (&bv, &nv)) in b.iter().zip(nb).enumerate() {
        if (nv - bv).abs() > span {
            span = (nv - bv).abs();
            j0 = j;
        }
    }
    let r = if span == 0.0 {
        0.0
    } else {
        (s[j0] - b[j0]) / (nb[j0] - b[j0])
    };
    if !(-1e-4..=1.0 + 1e-4).contains(&r) {
        return false;
    }
    s.iter()
        .zip(b.iter().zip(nb))
        .all(|(&sv, (&bv, &nv))| (sv - (bv + r * (nv - bv))).abs() <= 1e-3)
}

/// Checks that `s` is an intra-class SMOTE interpolation: some base row in
/// `pool` has `s` on the segment toward one of its `k` nearest same-class
/// neighbours (neighbourhoods re-derived with an independent brute scan).
fn is_smote_point(s: &[f32], class_rows: &Tensor, pool: &[usize], k: usize) -> bool {
    let n = class_rows.dim(0);
    if n == 1 {
        return s == class_rows.row_slice(0);
    }
    let k = k.min(n - 1);
    let brute = BruteForceKnn::new(class_rows, Metric::Euclidean);
    pool.iter().any(|&b| {
        let base = class_rows.row_slice(b);
        brute
            .query_row(b, k)
            .iter()
            .any(|h| on_segment(s, base, class_rows.row_slice(h.index)))
    })
}

#[test]
fn smote_synthetics_lie_on_intra_class_segments() {
    for seed in 0..CASES {
        let (x, y, classes) = scene(seed);
        let k = 1 + (seed as usize) % 5;
        let (sx, sy) = Smote::new(k).oversample(&x, &y, classes, &mut Rng64::new(seed + 100));
        let idx = indices_by_class(&y, classes);
        for (i, &class) in sy.iter().enumerate() {
            let class_rows = x.select_rows(&idx[class]);
            let pool: Vec<usize> = (0..class_rows.dim(0)).collect();
            assert!(
                is_smote_point(sx.row_slice(i), &class_rows, &pool, k),
                "seed {seed}: synthetic {i} (class {class}) is not an \
                 interpolation between a base and one of its {k} neighbours"
            );
        }
    }
}

#[test]
fn the_whole_family_balances_class_histograms() {
    let samplers: [&dyn Oversampler; 3] =
        [&Smote::new(5), &BorderlineSmote::new(5, 3), &Adasyn::new(5)];
    for seed in 0..CASES {
        let (x, y, classes) = scene(seed);
        for sampler in samplers {
            let (bx, by) = balance_with(sampler, &x, &y, classes, &mut Rng64::new(seed + 200));
            let counts = class_counts(&by, classes);
            let max = *counts.iter().max().unwrap();
            assert!(
                counts.iter().all(|&c| c == max),
                "seed {seed}: {} left {counts:?}",
                sampler.name()
            );
            assert_eq!(bx.dim(0), by.len());
            assert!(bx.data().iter().all(|v| v.is_finite()));
            // Originals are preserved as a prefix: synthetics only append.
            assert_eq!(&by[..y.len()], &y[..]);
        }
    }
}

#[test]
fn borderline_seeds_only_from_the_danger_zone() {
    // A scene engineered to have a non-empty DANGER set: part of the
    // minority class sits inside the majority cluster, the rest far away.
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed + 300);
        let d = 2 + rng.below(6);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..14 {
            let v: Vec<f32> = (0..d).map(|_| rng.normal_f32(0.0, 0.3)).collect();
            rows.push(Tensor::from_vec(v, &[d]));
            y.push(0);
        }
        for i in 0..6 {
            // A tight minority pair at the edge of the majority cluster
            // (each has the other as nearest neighbour, the rest enemies:
            // exactly the DANGER profile) plus four members far away.
            let (centre, jitter) = if i < 2 { (1.0, 0.05) } else { (25.0, 0.3) };
            let v: Vec<f32> = (0..d).map(|_| rng.normal_f32(centre, jitter)).collect();
            rows.push(Tensor::from_vec(v, &[d]));
            y.push(1);
        }
        let x = Tensor::stack_rows(&rows);
        let (m, k) = (5usize, 3usize);
        let (sx, sy) = BorderlineSmote::new(m, k).oversample(&x, &y, 2, &mut Rng64::new(seed));

        // Re-derive the DANGER set independently: minority members whose
        // m-neighbourhood in the full set is at least half enemies but not
        // all enemies.
        let idx = indices_by_class(&y, 2);
        let full = BruteForceKnn::new(&x, Metric::Euclidean);
        let danger: Vec<usize> = idx[1]
            .iter()
            .enumerate()
            .filter_map(|(local, &row)| {
                let hits = full.query_row(row, m);
                let enemies = hits.iter().filter(|h| y[h.index] != 1).count();
                (enemies * 2 >= hits.len() && enemies < hits.len()).then_some(local)
            })
            .collect();
        assert!(
            !danger.is_empty(),
            "seed {seed}: scene has no DANGER points"
        );

        let class_rows = x.select_rows(&idx[1]);
        for (i, &class) in sy.iter().enumerate() {
            assert_eq!(class, 1);
            assert!(
                is_smote_point(sx.row_slice(i), &class_rows, &danger, k),
                "seed {seed}: synthetic {i} was not seeded from the danger zone"
            );
        }
    }
}

#[test]
fn adasyn_spends_exactly_the_class_deficit() {
    for seed in 0..CASES {
        let (x, y, classes) = scene(seed);
        let needs = deficits(&y, classes);
        let (sx, sy) = Adasyn::new(4).oversample(&x, &y, classes, &mut Rng64::new(seed + 400));
        assert_eq!(sy.len(), needs.iter().sum::<usize>(), "seed {seed}");
        assert_eq!(sx.dim(0), sy.len());
        let produced = class_counts(&sy, classes);
        for (class, (&got, &want)) in produced.iter().zip(&needs).enumerate() {
            assert_eq!(got, want, "seed {seed}: class {class} budget");
        }
        // ADASYN interpolation is intra-class, like SMOTE.
        let idx = indices_by_class(&y, classes);
        for (i, &class) in sy.iter().enumerate() {
            let class_rows = x.select_rows(&idx[class]);
            let pool: Vec<usize> = (0..class_rows.dim(0)).collect();
            assert!(
                is_smote_point(sx.row_slice(i), &class_rows, &pool, 4),
                "seed {seed}: ADASYN synthetic {i} left the class segments"
            );
        }
    }
}

#[test]
fn identical_seeds_reproduce_bit_identical_output() {
    let samplers: [&dyn Oversampler; 3] =
        [&Smote::new(5), &BorderlineSmote::new(5, 3), &Adasyn::new(5)];
    for seed in 0..8 {
        let (x, y, classes) = scene(seed);
        for sampler in samplers {
            let (a, ya) = sampler.oversample(&x, &y, classes, &mut Rng64::new(seed));
            let (b, yb) = sampler.oversample(&x, &y, classes, &mut Rng64::new(seed));
            assert_eq!(ya, yb, "{} labels drifted", sampler.name());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "{} rows drifted", sampler.name());
        }
    }
}
