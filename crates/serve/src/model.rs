//! The model wrapper the serving workers drive.
//!
//! [`InferenceModel`] pairs a network with its fixed input width and
//! class count and exposes exactly one operation: an eval-mode batched
//! forward. There is no gradient workspace, no optimiser and no train
//! flag anywhere in this crate — batch norm reads its running statistics,
//! dropout is the identity, and nothing the forward touches survives the
//! call, so serving the same bytes twice produces the same bits twice.

use eos_nn::{load_weights, Layer};
use eos_tensor::Tensor;
use std::io;

/// An eval-only network: the layer stack, its expected input width and
/// the number of classes it scores.
pub struct InferenceModel {
    net: Box<dyn Layer>,
    in_features: usize,
    classes: usize,
}

impl InferenceModel {
    /// Wraps a ready network. `in_features` is the flat width of one
    /// request's feature vector; the class count is derived from the
    /// network's own shape arithmetic.
    pub fn new(net: Box<dyn Layer>, in_features: usize) -> Self {
        let classes = net.out_features(in_features);
        assert!(classes > 0, "model scores zero classes");
        InferenceModel {
            net,
            in_features,
            classes,
        }
    }

    /// Builds the model by restoring an `EOSW` weight blob (as written by
    /// `eos_nn::save_weights`) into a structurally identical network.
    /// This is how workers replicate one trained checkpoint: every
    /// replica loads the same bytes, so every replica answers with the
    /// same bits.
    pub fn from_eosw_bytes(
        mut net: Box<dyn Layer>,
        in_features: usize,
        bytes: &[u8],
    ) -> io::Result<Self> {
        load_weights(net.as_mut(), bytes)?;
        Ok(InferenceModel::new(net, in_features))
    }

    /// Flat width of one request's feature vector.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of classes the model scores.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Snapshot of the network's inference-critical non-trainable state
    /// (batch-norm running statistics). The serve path must never mutate
    /// it — the eval-determinism suite compares snapshots taken before
    /// and after serving to prove the forward is read-only.
    pub fn extra_state(&self) -> Vec<f32> {
        self.net.extra_state()
    }

    /// Eval-mode batched forward: `(batch, in_features)` rows to
    /// `(batch, classes)` logits. Row `i` of the output depends only on
    /// row `i` of the input and the weights — never on which other rows
    /// share the batch — which is what lets the micro-batcher coalesce
    /// arbitrary request sets without changing any answer.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "InferenceModel expects (batch, features)");
        assert_eq!(x.dim(1), self.in_features, "InferenceModel input width");
        self.net.infer(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_nn::{save_weights, Linear, Relu, Sequential};
    use eos_tensor::{normal, Rng64};

    fn net(seed: u64) -> Box<dyn Layer> {
        let mut rng = Rng64::new(seed);
        Box::new(Sequential::new(vec![
            Box::new(Linear::new(6, 8, true, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 3, true, &mut rng)),
        ]))
    }

    #[test]
    fn derives_class_count_from_the_stack() {
        let m = InferenceModel::new(net(0), 6);
        assert_eq!(m.in_features(), 6);
        assert_eq!(m.classes(), 3);
    }

    #[test]
    fn replicas_from_the_same_bytes_answer_identically() {
        let mut rng = Rng64::new(9);
        let mut trained = net(1);
        let mut blob = Vec::new();
        save_weights(trained.as_mut(), &mut blob).unwrap();
        let x = normal(&[4, 6], 0.0, 1.0, &mut rng);
        let expected = trained.infer(&x);
        let mut a = InferenceModel::from_eosw_bytes(net(2), 6, &blob).unwrap();
        let mut b = InferenceModel::from_eosw_bytes(net(3), 6, &blob).unwrap();
        assert_eq!(a.forward(&x).data(), expected.data());
        assert_eq!(b.forward(&x).data(), expected.data());
    }

    #[test]
    fn rejects_corrupt_weight_blobs() {
        assert!(InferenceModel::from_eosw_bytes(net(0), 6, b"NOPE").is_err());
    }
}
