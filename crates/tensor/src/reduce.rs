//! Axis reductions on rank-2 tensors.
//!
//! The training stack only ever reduces matrices (batch × features), so
//! these are specialised to rank-2 rather than generic over axes.

use crate::scratch;
use crate::tensor::Tensor;

impl Tensor {
    /// Column sums of a rank-2 tensor: `(m×n) -> (n)`.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "sum_rows requires a matrix");
        let (m, n) = (self.dim(0), self.dim(1));
        let mut out = scratch::take_zeroed(n);
        for i in 0..m {
            for (o, &x) in out.iter_mut().zip(self.row_slice(i)) {
                *o += x;
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Column means of a rank-2 tensor: `(m×n) -> (n)`.
    pub fn mean_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let m = self.dim(0).max(1);
        let mut s = self.sum_rows();
        s.scale_(1.0 / m as f32);
        s
    }

    /// Per-column minimum of a rank-2 tensor: `(m×n) -> (n)`.
    /// Panics when the tensor has zero rows.
    pub fn min_rows(&self) -> Tensor {
        self.fold_rows(f32::INFINITY, f32::min)
    }

    /// Per-column maximum of a rank-2 tensor: `(m×n) -> (n)`.
    /// Panics when the tensor has zero rows.
    pub fn max_rows(&self) -> Tensor {
        self.fold_rows(f32::NEG_INFINITY, f32::max)
    }

    fn fold_rows(&self, init: f32, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.rank(), 2);
        assert!(self.dim(0) > 0, "column fold over zero rows");
        let (m, n) = (self.dim(0), self.dim(1));
        let mut out = scratch::take_filled(n, init);
        for i in 0..m {
            for (o, &x) in out.iter_mut().zip(self.row_slice(i)) {
                *o = f(*o, x);
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Per-column (biased) variance of a rank-2 tensor: `(m×n) -> (n)`.
    pub fn var_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let (m, n) = (self.dim(0), self.dim(1));
        let mean = self.mean_rows();
        let mut out = scratch::take_zeroed(n);
        for i in 0..m {
            for ((o, &x), &mu) in out.iter_mut().zip(self.row_slice(i)).zip(mean.data()) {
                let d = x - mu;
                *o += d * d;
            }
        }
        let denom = m.max(1) as f32;
        for o in &mut out {
            *o /= denom;
        }
        Tensor::from_vec(out, &[n])
    }

    /// Per-row argmax of a rank-2 tensor — the predicted class per sample.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.dim(0));
        self.argmax_rows_into(&mut out);
        out
    }

    /// [`Tensor::argmax_rows`] into a caller-owned buffer (cleared first),
    /// so hot loops can reuse the allocation across batches.
    pub fn argmax_rows_into(&self, out: &mut Vec<usize>) {
        assert_eq!(self.rank(), 2);
        out.clear();
        out.extend((0..self.dim(0)).map(|i| {
            let row = self.row_slice(i);
            let mut best = 0;
            for (j, &x) in row.iter().enumerate() {
                if x > row[best] {
                    best = j;
                }
            }
            best
        }));
    }

    /// Row-wise softmax of a rank-2 tensor (numerically stabilised).
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let (m, n) = (self.dim(0), self.dim(1));
        let mut out = scratch::take_zeroed(m * n);
        self.softmax_rows_into(&mut out);
        Tensor::from_vec(out, &[m, n])
    }

    /// [`Tensor::softmax_rows`] into a caller-owned buffer of exactly
    /// `m·n` elements, so serving hot loops can reuse the allocation
    /// batch to batch. Same stabilised per-row arithmetic (and therefore
    /// the same bits) as the allocating variant.
    pub fn softmax_rows_into(&self, out: &mut [f32]) {
        assert_eq!(self.rank(), 2);
        let (m, n) = (self.dim(0), self.dim(1));
        assert_eq!(out.len(), m * n, "softmax_rows_into buffer size");
        for i in 0..m {
            let row = self.row_slice(i);
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let orow = &mut out[i * n..(i + 1) * n];
            let mut z = 0.0f32;
            for (o, &x) in orow.iter_mut().zip(row) {
                *o = (x - mx).exp();
                z += *o;
            }
            for o in orow.iter_mut() {
                *o /= z;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Tensor {
        Tensor::from_vec(vec![1.0, -2.0, 3.0, 4.0, 5.0, -6.0], &[2, 3])
    }

    #[test]
    fn column_reductions() {
        let t = m();
        assert_eq!(t.sum_rows().data(), &[5.0, 3.0, -3.0]);
        assert_eq!(t.mean_rows().data(), &[2.5, 1.5, -1.5]);
        assert_eq!(t.min_rows().data(), &[1.0, -2.0, -6.0]);
        assert_eq!(t.max_rows().data(), &[4.0, 5.0, 3.0]);
    }

    #[test]
    fn row_reductions() {
        let t = m();
        assert_eq!(t.argmax_rows(), vec![2, 1]);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        let t = Tensor::full(&[4, 2], 3.0);
        assert_eq!(t.var_rows().data(), &[0.0, 0.0]);
    }

    #[test]
    fn variance_matches_definition() {
        let t = Tensor::from_vec(vec![1.0, 3.0], &[2, 1]);
        // mean 2, deviations ±1, biased variance 1.
        assert_eq!(t.var_rows().data(), &[1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_orders() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = t.softmax_rows();
        for i in 0..2 {
            let sum: f32 = s.row_slice(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.at(&[i, 2]) > s.at(&[i, 1]));
            assert!(s.at(&[i, 1]) > s.at(&[i, 0]));
        }
    }

    #[test]
    fn softmax_rows_into_matches_allocating_variant() {
        let t = Tensor::from_vec(vec![0.5, -1.5, 2.0, 7.0, 7.0, -3.0], &[2, 3]);
        let mut buf = vec![0.0f32; 6];
        t.softmax_rows_into(&mut buf);
        assert_eq!(buf.as_slice(), t.softmax_rows().data());
    }

    #[test]
    #[should_panic(expected = "buffer size")]
    fn softmax_rows_into_rejects_wrong_buffer() {
        let mut buf = vec![0.0f32; 5];
        m().softmax_rows_into(&mut buf);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let s = t.softmax_rows();
        assert!(s.all_finite());
        assert!((s.row_slice(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn min_rows_rejects_empty() {
        Tensor::zeros(&[0, 3]).min_rows();
    }
}
