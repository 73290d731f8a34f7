//! Property tests for the query-blocked brute-force kernel: over seeded
//! generated inputs, every entry point must return exactly what a plain
//! per-query scan with `Metric::distance` returns — the same rows in the
//! same order and bit-identical distances — for both metrics, at widths
//! from one coordinate to 192, for row and query counts off and across the
//! lane and tile sizes, for `k = 0` and `k ≥ n`, for all-tie and
//! duplicate-heavy data, for an exact tie between the k-th and the
//! (k+1)-th candidate, for distances that overflow to infinity, at thread
//! budgets 1/2/4/8, on both the host's widest and the portable distance
//! kernel. The Euclidean scan's filter pass gets adversarial inputs of its
//! own: duplicate rows, one-ulp near-ties around the k-th distance, a
//! common offset far larger than the spacing, NaN rows and queries, and
//! `k ≥ n − 1`; and class-ordered clusters whose neighbours all come last
//! in the scan, `k` at the k-th value selection network's cap and one
//! past it, the smallest set the filter runs on (`n = k + 2`), and
//! duplicate rows whose approximate values tie at the k-th; and query
//! counts that fill whole groups of blocks sharing one filter pass, leave
//! a last single block, or end a group on a one-query block, with every
//! query's own row left out.

mod common;

use common::{bits, reference, Hits};
use eos_neighbors::{BruteForceKnn, Metric};
use eos_tensor::{normal, par, set_force_scalar_kernel, Rng64, Tensor};
use std::sync::Mutex;

/// `set_num_threads` and `set_force_scalar_kernel` are process-global;
/// every test in this binary that touches them must hold this lock.
static LOCK: Mutex<()> = Mutex::new(());

/// Point widths: the first three off the lane and tile multiples, then the
/// narrow sets and the embedding widths (8 and 16) the suite indexes most.
const DIMS: [usize; 8] = [17, 63, 192, 1, 2, 3, 8, 16];
const METRICS: [Metric; 2] = [Metric::Euclidean, Metric::Manhattan];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Query counts on both sides of the 8- and 16-lane block boundaries.
const STRADDLE: [usize; 6] = [7, 9, 15, 17, 31, 33];

/// A count in `1..=max` that is a multiple of none of the tile (4) and
/// block (8, 16) sizes.
fn ragged(rng: &mut Rng64, max: usize) -> usize {
    let n = 1 + rng.below(max);
    if n.is_multiple_of(4) {
        n + 1
    } else {
        n
    }
}

/// Checks every entry point of an index over `data` against the oracle
/// at every thread budget and on both distance kernels.
fn check(data: &Tensor, queries: &Tensor, metric: Metric, ks: &[usize], what: &str) {
    let n = data.dim(0);
    let rows: Vec<usize> = (0..n).rev().step_by(2).chain(0..n).collect();
    check_rows(data, queries, &rows, metric, ks, what);
}

/// [`check`] with the indexed rows `query_rows_batch` queries given.
fn check_rows(
    data: &Tensor,
    queries: &Tensor,
    rows: &[usize],
    metric: Metric,
    ks: &[usize],
    what: &str,
) {
    let n = data.dim(0);
    let index = BruteForceKnn::new(data, metric);
    for &k in ks {
        let want_batch: Vec<Hits> = (0..queries.dim(0))
            .map(|i| reference(data, metric, queries.row_slice(i), k, None))
            .collect();
        let want_rows: Vec<Hits> = rows
            .iter()
            .map(|&r| reference(data, metric, data.row_slice(r), k, Some(r)))
            .collect();
        for force_scalar in [false, true] {
            set_force_scalar_kernel(force_scalar);
            for threads in THREADS {
                par::set_num_threads(threads);
                let case = format!(
                    "{what}, {metric:?}, n = {n}, k = {k}, {threads} threads, scalar = {force_scalar}"
                );
                let batch: Vec<Hits> = index
                    .query_batch(queries, k)
                    .iter()
                    .map(|h| bits(h))
                    .collect();
                assert_eq!(batch, want_batch, "query_batch: {case}");
                let by_row: Vec<Hits> = index
                    .query_rows_batch(rows, k)
                    .iter()
                    .map(|h| bits(h))
                    .collect();
                assert_eq!(by_row, want_rows, "query_rows_batch: {case}");
            }
            for (i, want) in want_batch.iter().enumerate().take(3) {
                assert_eq!(
                    &bits(&index.query(queries.row_slice(i), k)),
                    want,
                    "query: {what}, k = {k}"
                );
            }
            for (&r, want) in rows.iter().zip(&want_rows).take(3) {
                assert_eq!(
                    &bits(&index.query_row(r, k)),
                    want,
                    "query_row: {what}, k = {k}"
                );
            }
        }
    }
    set_force_scalar_kernel(false);
}

#[test]
fn blocked_scan_matches_reference_on_random_data() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    for (case, &d) in DIMS.iter().enumerate() {
        for seed in 0..3u64 {
            let mut rng = Rng64::new(1000 + 10 * case as u64 + seed);
            let n = ragged(&mut rng, 45);
            let q = ragged(&mut rng, 21);
            let data = normal(&[n, d], 0.0, 1.0, &mut rng);
            let queries = normal(&[q, d], 0.0, 1.0, &mut rng);
            let ks = [0, 1, 1 + rng.below(n), n, n + 3];
            for metric in METRICS {
                check(&data, &queries, metric, &ks, &format!("d = {d}, q = {q}"));
            }
        }
    }
    for (case, &q) in STRADDLE.iter().enumerate() {
        let d = DIMS[case % DIMS.len()];
        let mut rng = Rng64::new(4000 + q as u64);
        let n = ragged(&mut rng, 45);
        let data = normal(&[n, d], 0.0, 1.0, &mut rng);
        let queries = normal(&[q, d], 0.0, 1.0, &mut rng);
        for metric in METRICS {
            check(
                &data,
                &queries,
                metric,
                &[1, 4, n],
                &format!("d = {d}, q = {q}"),
            );
        }
    }
    par::set_num_threads(restore);
}

#[test]
fn tie_at_the_kth_candidate_keeps_the_earlier_row() {
    // Every query sits at the origin and the rows are ±1 on one axis, so
    // each row lies at exactly distance 1 (both metrics) and the k-th and
    // (k+1)-th candidates always tie: the list must keep the lower rows
    // and reject each later row at the cut.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    for &d in &DIMS {
        let n = 23;
        let mut v = vec![0.0f32; n * d];
        for i in 0..n {
            v[i * d + i % d] = if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let data = Tensor::from_vec(v, &[n, d]);
        for q in [1, 17] {
            let queries = Tensor::zeros(&[q, d]);
            for metric in METRICS {
                check(
                    &data,
                    &queries,
                    metric,
                    &[1, 5, 10],
                    &format!("ties, d = {d}, q = {q}"),
                );
            }
        }
    }
    par::set_num_threads(restore);
}

#[test]
fn infinite_distances_still_fill_short_lists() {
    // Rows far enough out that their squared or summed distance overflows
    // to +inf: until a query's list holds k entries they must still be
    // taken, ordered by row index among themselves.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    let (n, d) = (21, 17);
    let mut rng = Rng64::new(5000);
    let mut data = normal(&[n, d], 0.0, 1.0, &mut rng);
    for i in (0..n).step_by(3) {
        data.data_mut()[i * d..(i + 1) * d].fill(3.0e38);
    }
    let queries = normal(&[STRADDLE[3], d], 0.0, 1.0, &mut rng);
    for metric in METRICS {
        let inf = metric.distance(queries.row_slice(0), data.row_slice(0));
        assert_eq!(inf, f32::INFINITY, "{metric:?}");
        check(&data, &queries, metric, &[5, n - 2, n], "overflowing rows");
    }
    par::set_num_threads(restore);
}

#[test]
fn all_duplicate_rows_order_by_index() {
    // Every row identical: every query is all ties, so each result is the
    // lowest-numbered rows at one shared distance.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    for &d in &DIMS {
        let mut rng = Rng64::new(2000 + d as u64);
        let n = ragged(&mut rng, 30);
        let row: Vec<f32> = (0..d).map(|_| rng.normal_f32(0.0, 1.0)).collect();
        let data = Tensor::from_vec(row.repeat(n), &[n, d]);
        let queries = normal(&[ragged(&mut rng, 13), d], 0.0, 1.0, &mut rng);
        for metric in METRICS {
            check(
                &data,
                &queries,
                metric,
                &[0, 1, 5, n],
                &format!("duplicates, d = {d}"),
            );
            // Querying an indexed row: every hit is at distance zero.
            let hits = BruteForceKnn::new(&data, metric).query_row(n / 2, n);
            assert_eq!(hits.len(), n - 1);
            assert!(hits.iter().all(|h| h.distance == 0.0));
        }
    }
    par::set_num_threads(restore);
}

#[test]
fn block_boundaries_do_not_change_results() {
    // The same queries split into blocks at every offset: a query's
    // result must not depend on which block, or which lane, it ran in.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng64::new(3000);
    let data = normal(&[37, 63], 0.0, 1.0, &mut rng);
    let index = BruteForceKnn::new(&data, Metric::Euclidean);
    let rows: Vec<usize> = (0..37).collect();
    let whole: Vec<Hits> = index
        .query_rows_batch(&rows, 6)
        .iter()
        .map(|h| bits(h))
        .collect();
    for start in 1..9 {
        let part: Vec<Hits> = index
            .query_rows_batch(&rows[start..], 6)
            .iter()
            .map(|h| bits(h))
            .collect();
        assert_eq!(part, whole[start..], "rows from {start}");
    }
}

#[test]
fn filter_keeps_exact_ties_among_duplicate_rows() {
    // Every third row is indexed three times and some queries are exact
    // copies of indexed rows, so exact ties — at distance zero too — sit
    // at and around every k, and a query row's own copies tie with it.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    for &d in &DIMS {
        let mut rng = Rng64::new(6000 + d as u64);
        let base = normal(&[29, d], 0.0, 1.0, &mut rng);
        let mut v = Vec::new();
        for i in 0..29 {
            let copies = if i % 3 == 0 { 3 } else { 1 };
            for _ in 0..copies {
                v.extend_from_slice(base.row_slice(i));
            }
        }
        let n = v.len() / d;
        let data = Tensor::from_vec(v, &[n, d]);
        let mut q = normal(&[11, d], 0.0, 1.0, &mut rng).data().to_vec();
        for i in [0, 3, 7, 12, 30] {
            q.extend_from_slice(data.row_slice(i));
        }
        let queries = Tensor::from_vec(q, &[16, d]);
        for metric in METRICS {
            check(
                &data,
                &queries,
                metric,
                &[1, 2, 3, 4, 5, 8, 10],
                &format!("duplicated rows, d = {d}"),
            );
        }
    }
    par::set_num_threads(restore);
}

#[test]
fn filter_keeps_one_ulp_near_ties_past_the_kth_distance() {
    // Rows are copies of one centre, each with a single coordinate moved
    // by one or two ulps, and each query sits off the centre: the exact
    // distances tie or differ by about an ulp, so for every k the
    // (k+1)-th distance ties the k-th or lies an ulp or so past it. A
    // filter that dropped any row tying or undercutting the k-th after
    // rounding would change a list.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    for (case, &d) in DIMS.iter().enumerate() {
        for offset in [0.0f32, 40.0] {
            let mut rng = Rng64::new(7000 + 10 * case as u64 + offset as u64);
            let centre: Vec<f32> = (0..d).map(|_| offset + rng.normal_f32(0.0, 1.0)).collect();
            let n = 61;
            let mut v = Vec::with_capacity(n * d);
            for i in 0..n {
                let mut row = centre.clone();
                let j = (i * 7) % d;
                row[j] = match i % 5 {
                    0 => row[j],
                    1 => row[j].next_up(),
                    2 => row[j].next_down(),
                    3 => row[j].next_up().next_up(),
                    _ => row[j].next_down().next_down(),
                };
                v.extend_from_slice(&row);
            }
            let data = Tensor::from_vec(v, &[n, d]);
            let q: Vec<f32> = (0..17 * d)
                .map(|i| centre[i % d] + rng.normal_f32(0.0, 0.5))
                .collect();
            let queries = Tensor::from_vec(q, &[17, d]);
            let ks: Vec<usize> = (1..n).step_by(3).collect();
            check(
                &data,
                &queries,
                Metric::Euclidean,
                &ks,
                &format!("near ties, d = {d}, offset = {offset}"),
            );
        }
    }
    par::set_num_threads(restore);
}

#[test]
fn filter_stays_exact_under_a_large_common_offset() {
    // Norms far larger than the spacing widen the filter's error bound
    // until it admits many or all rows; the lists must not change. The
    // larger set lets the filter leave rows out where the offset is small.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    for (case, (offset, spacing)) in [
        (0.0, 1.0),
        (10.0, 1.0),
        (30.0, 1.0),
        (1.0, 0.01),
        (1e3, 1.0),
    ]
    .into_iter()
    .enumerate()
    {
        let d = DIMS[case % DIMS.len()];
        let mut rng = Rng64::new(8000 + case as u64);
        let n = 257;
        let mut data = normal(&[n, d], 0.0, spacing, &mut rng);
        let mut queries = normal(&[33, d], 0.0, spacing, &mut rng);
        for v in data.data_mut().iter_mut().chain(queries.data_mut()) {
            *v += offset;
        }
        check(
            &data,
            &queries,
            Metric::Euclidean,
            &[1, 5, 10],
            &format!("offset {offset}, spacing {spacing}, d = {d}"),
        );
    }
    par::set_num_threads(restore);
}

#[test]
fn nan_rows_and_queries_rank_last() {
    // A NaN coordinate makes every distance to that row (or from that
    // query) NaN, which ranks after every number, ties broken by row:
    // the order `f32::total_cmp` gives a positive NaN. The filter cannot
    // bound such a row and must leave the scan exact.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    let (n, d) = (37, 63);
    let mut rng = Rng64::new(9000);
    let mut data = normal(&[n, d], 0.0, 1.0, &mut rng);
    for (row, j) in [(4, 0), (5, 17), (30, 62)] {
        data.data_mut()[row * d + j] = f32::NAN;
    }
    let mut queries = normal(&[STRADDLE[3], d], 0.0, 1.0, &mut rng);
    queries.data_mut()[2 * d + 9] = f32::NAN;
    for metric in METRICS {
        assert!(metric
            .distance(queries.row_slice(0), data.row_slice(4))
            .is_nan());
        check(&data, &queries, metric, &[1, 5, n - 3, n], "NaN rows");
    }
    // A NaN query alone, over data the filter can bound.
    let clean = normal(&[n, d], 0.0, 1.0, &mut rng);
    check(&clean, &queries, Metric::Euclidean, &[1, 5], "NaN query");
    par::set_num_threads(restore);
}

#[test]
fn filter_steps_aside_when_k_reaches_n_minus_one() {
    // With `k ≥ n − 1` a self-excluding list takes every other row, and a
    // plain query's list every row but one or all of them.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    for &d in &DIMS {
        let mut rng = Rng64::new(10_000 + d as u64);
        let n = 23;
        let data = normal(&[n, d], 0.0, 1.0, &mut rng);
        let queries = normal(&[STRADDLE[1], d], 0.0, 1.0, &mut rng);
        for metric in METRICS {
            check(
                &data,
                &queries,
                metric,
                &[n - 2, n - 1, n, n + 1],
                &format!("k near n, d = {d}"),
            );
        }
    }
    par::set_num_threads(restore);
}

/// The largest `k` whose k-th approximate values the filter picks with its
/// selection network; `NETWORK_CAP + 1` takes the per-lane select.
const NETWORK_CAP: usize = 16;

#[test]
fn class_ordered_clusters_put_every_neighbour_last() {
    // Rows come in clusters of one class, far apart and in class order, as
    // the CIFAR-10 analogue's rows do: the queries near the last cluster
    // meet all their neighbours at the end of the scan. The smaller sets
    // are `n = k + 2` at k = 1, the network's cap and one past it.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    for &d in &DIMS {
        let mut rng = Rng64::new(11_000 + d as u64);
        let wide = vec![1, 5, 10, NETWORK_CAP, NETWORK_CAP + 1, 40];
        for (n, ks) in [
            (161, wide),
            (3, vec![1]),
            (NETWORK_CAP + 2, vec![NETWORK_CAP]),
            (NETWORK_CAP + 3, vec![NETWORK_CAP + 1]),
        ] {
            let clusters = 5.min(n);
            let centre = |c: usize| 8.0 * c as f32;
            let v: Vec<f32> = (0..n * d)
                .map(|i| centre(i / d * clusters / n) + rng.normal_f32(0.0, 1.0))
                .collect();
            let data = Tensor::from_vec(v, &[n, d]);
            let q: Vec<f32> = (0..STRADDLE[3] * d)
                .map(|i| centre(clusters - 1 - i / d % 2) + rng.normal_f32(0.0, 1.0))
                .collect();
            let queries = Tensor::from_vec(q, &[STRADDLE[3], d]);
            let what = format!("class-ordered clusters, d = {d}");
            check(&data, &queries, Metric::Euclidean, &ks, &what);
        }
    }
    par::set_num_threads(restore);
}

#[test]
fn duplicate_rows_tie_at_the_kth_approximate_value() {
    // Each base row is indexed one to four times in a row. Its copies have
    // bit-equal approximate values, so for every k, in both selectors, the
    // k-th value ties the values next to it.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    for &d in &DIMS {
        let mut rng = Rng64::new(12_000 + d as u64);
        let base = normal(&[23, d], 0.0, 1.0, &mut rng);
        let mut v = Vec::new();
        for i in 0..23 {
            for _ in 0..=i % 4 {
                v.extend_from_slice(base.row_slice(i));
            }
        }
        let n = v.len() / d;
        let data = Tensor::from_vec(v, &[n, d]);
        let mut q = normal(&[13, d], 0.0, 1.0, &mut rng).data().to_vec();
        for i in [1, 6, 20, 40] {
            q.extend_from_slice(data.row_slice(i));
        }
        let queries = Tensor::from_vec(q, &[17, d]);
        let ks: Vec<usize> = (1..=NETWORK_CAP + 2).chain([25, 40]).collect();
        let what = format!("tied duplicates, d = {d}");
        check(&data, &queries, Metric::Euclidean, &ks, &what);
    }
    par::set_num_threads(restore);
}

#[test]
fn duplicate_heavy_data_ties_break_by_index() {
    // Five locations with twelve copies each: every neighbourhood is
    // all ties, within a location and at the cut between two.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    for &d in &DIMS {
        let v: Vec<f32> = (0..60)
            .flat_map(|i| (0..d).map(move |j| (i % 5) as f32 + (j % 2) as f32))
            .collect();
        let data = Tensor::from_vec(v, &[60, d]);
        for metric in METRICS {
            check(
                &data,
                &data,
                metric,
                &[1, 11, 12, 15, 59],
                &format!("duplicate-heavy, d = {d}"),
            );
        }
    }
    par::set_num_threads(restore);
}

#[test]
fn oversized_k_returns_every_row_in_order() {
    // k at or above the indexed size, as the oversamplers meet on tiny
    // classes: a list holds every available row, sorted, and a
    // self-excluding one every other row.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    for (case, &d) in DIMS.iter().enumerate() {
        let mut rng = Rng64::new(70 + case as u64);
        let n = 6 + rng.below(6);
        let data = normal(&[n, d], 0.0, 1.0, &mut rng);
        let queries = normal(&[3, d], 0.0, 1.0, &mut rng);
        let ks = [n - 1, n, n + 3, n + 7];
        for metric in METRICS {
            check(
                &data,
                &queries,
                metric,
                &ks,
                &format!("oversized k, d = {d}"),
            );
            let index = BruteForceKnn::new(&data, metric);
            for k in ks {
                assert_eq!(index.query(queries.row_slice(0), k).len(), k.min(n));
                assert_eq!(index.query_row(0, k).len(), k.min(n - 1));
            }
        }
    }
    par::set_num_threads(restore);
}

#[test]
fn grouped_blocks_match_reference() {
    // On the AVX-512 tier two query blocks share one filter pass, and the
    // blocks left over run alone. These counts give one to five blocks,
    // odd block counts, and groups whose last block holds one query. The
    // row queries are the last rows of class-ordered clusters, so every
    // panel leaves out its queries' own rows, which lie among their
    // nearest neighbours.
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let restore = par::num_threads();
    for (case, q) in [17, 31, 32, 33, 48, 49, 65].into_iter().enumerate() {
        let d = DIMS[case % DIMS.len()];
        let mut rng = Rng64::new(13_000 + q as u64);
        let n = 161;
        let v: Vec<f32> = (0..n * d)
            .map(|i| 8.0 * (i / d * 5 / n) as f32 + rng.normal_f32(0.0, 1.0))
            .collect();
        let data = Tensor::from_vec(v, &[n, d]);
        let queries = normal(&[q, d], 24.0, 4.0, &mut rng);
        let rows: Vec<usize> = (n - q..n).collect();
        let ks = [1, 10, NETWORK_CAP, NETWORK_CAP + 1, 40];
        let what = format!("grouped blocks, q = {q}, d = {d}");
        check_rows(&data, &queries, &rows, Metric::Euclidean, &ks, &what);
    }
    par::set_num_threads(restore);
}
