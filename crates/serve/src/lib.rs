//! # eos-serve
//!
//! Batched inference serving for EOS-trained classifiers. The rest of
//! the workspace trains, caches and reproduces the paper; this crate is
//! where a trained backbone finally *answers requests*: it loads an
//! `EOSW` weight blob into an eval-only model, coalesces concurrent
//! requests through a dynamic micro-batcher, and runs one batched
//! forward per coalesced set on the existing parallel kernels.
//!
//! The contract, in one paragraph: eval mode everywhere (batch norm
//! reads running statistics, dropout is the identity, nothing caches for
//! a backward pass that never comes), a bounded request queue whose
//! overflow is a typed [`ServeError::Overloaded`] instead of unbounded
//! buffering, per-request results mapped back by submission-order id, and
//! answers that are **bit-identical** to the trainer's own eval forward
//! — for any batch the coalescer happens to form, at any
//! `workers × threads_per_worker` split.
//!
//! ```
//! use eos_nn::{save_weights_bytes, Architecture, ConvNet};
//! use eos_serve::{InferenceModel, ServeConfig, Server};
//! use eos_tensor::Rng64;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! // A trained checkpoint (here: a fresh tiny net) serialized to bytes.
//! let arch = Architecture::ResNet { blocks_per_stage: 1, width: 4 };
//! let mut net = ConvNet::new(arch, (3, 8, 8), 3, &mut Rng64::new(7));
//! let blob: Arc<[u8]> = save_weights_bytes(&mut net).into();
//!
//! // Serve it: every worker restores the same bytes into its replica.
//! let server = Server::start(
//!     ServeConfig {
//!         max_batch: 8,
//!         max_wait: Duration::from_micros(200),
//!         queue_cap: 256,
//!         workers: 2,
//!         threads_per_worker: 1,
//!     },
//!     move |_worker| {
//!         let fresh = ConvNet::new(arch, (3, 8, 8), 3, &mut Rng64::new(0));
//!         InferenceModel::from_eosw_bytes(Box::new(fresh), 3 * 64, &blob)
//!             .expect("checkpoint restores")
//!     },
//! );
//! let p = server.predict(vec![0.0; 3 * 64]).unwrap();
//! assert_eq!(p.probs.len(), 3);
//! server.shutdown();
//! ```

mod batcher;
mod error;
mod model;

pub use batcher::{effective_threads, Prediction, ServeConfig, Server, Ticket};
pub use error::ServeError;
pub use model::InferenceModel;
