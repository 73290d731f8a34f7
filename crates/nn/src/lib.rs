//! # eos-nn
//!
//! CNN training substrate for the EOS reproduction: layers with explicit
//! forward/backward passes, residual architectures, the four
//! imbalance-aware losses the paper evaluates (cross-entropy, Focal, ASL,
//! LDAM with deferred re-weighting), SGD with momentum, and learning-rate
//! schedules.
//!
//! Tensors flow through the network as `(batch, features)` matrices; the
//! spatial layers ([`Conv2d`], [`BatchNorm2d`], pooling) carry their own
//! geometry and interpret each row as a `C×H×W` volume. Every layer's
//! backward pass is verified against central finite differences in the
//! crate's tests.
//!
//! ```
//! use eos_nn::{Linear, Layer, Relu, Sequential};
//! use eos_tensor::{Rng64, Tensor};
//!
//! let mut rng = Rng64::new(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, true, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 2, true, &mut rng)),
//! ]);
//! let x = Tensor::ones(&[3, 4]);
//! let logits = net.forward(&x, false);
//! assert_eq!(logits.dims(), &[3, 2]);
//! ```

mod activation;
mod batchnorm;
#[cfg(test)]
mod batchnorm_bits;
mod conv2d;
mod dropout;
mod gradcheck;
mod layer;
mod linear;
mod loss;
mod models;
mod optim;
mod pool;
mod resnet;
mod sequential;
mod serialize;
mod trainer;

pub use activation::{LeakyRelu, Relu, Sigmoid, Tanh};
pub use batchnorm::{BatchNorm1d, BatchNorm2d};
pub use conv2d::Conv2d;
pub use dropout::Dropout;
pub use gradcheck::{gradcheck_fn, gradcheck_layer, gradcheck_loss, CheckResult, GradCheck};
pub use layer::{Layer, Param};
pub use linear::Linear;
pub use loss::{
    effective_number_weights, AsymmetricLoss, CrossEntropyLoss, FocalLoss, LdamLoss, Loss, LossKind,
};
pub use models::{mlp, Architecture, ConvNet};
pub use optim::{clip_grad_norm, Adam, CosineLr, LrSchedule, MultiStepLr, Sgd};
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use resnet::{densenet_lite, resnet_cifar, wide_resnet, BasicBlock};
pub use sequential::Sequential;
pub use serialize::{
    load_train_state_bytes, load_weights, load_weights_file, read_tensor, save_train_state_bytes,
    save_weights, save_weights_bytes, save_weights_file, write_tensor, TrainState,
};
pub use trainer::{
    train_epochs, train_with_early_stopping, try_train_epochs, try_train_epochs_resumable,
    Checkpointer, EpochStats, TrainConfig, TrainError, TrainFailure,
};
