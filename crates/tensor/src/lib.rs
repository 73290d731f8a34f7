//! # eos-tensor
//!
//! A small, dependency-light tensor substrate used by the EOS reproduction.
//!
//! Tensors are dense, contiguous, row-major `f32` arrays with an explicit
//! shape. The crate provides exactly the operations the rest of the
//! workspace needs:
//!
//! * construction and seeded random initialisation ([`init`]),
//! * element-wise and broadcasting arithmetic ([`Tensor`] methods),
//! * blocked matrix multiplication ([`matmul`]),
//! * convolution lowering: patch-matrix GEMMs whose tiles are packed
//!   straight from the images, an input gradient computed in one
//!   output-stationary pass, and a direct kernel ([`conv`]),
//! * axis reductions ([`reduce`]),
//! * finite-difference gradient checking ([`gradcheck`]),
//! * a zero-dependency data-parallel execution layer ([`par`]) that the
//!   hot paths (GEMM, convolution batches, k-NN fan-out) dispatch through,
//! * artifact records ([`record`]): the workspace's one FNV-1a hasher and
//!   the one sealed framing of its checksummed on-disk formats.
//!
//! The design intentionally avoids views/strides: every tensor owns its
//! buffer. This keeps the kernel code simple and predictable, which matters
//! more than zero-copy slicing at the scales this workspace trains at.
//!
//! ```
//! use eos_tensor::Tensor;
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

mod conv;
mod gradcheck;
mod init;
mod matmul;
pub mod par;
pub mod record;
mod reduce;
pub mod scratch;
mod shape;
mod tensor;

#[cfg(test)]
mod patch_packer_tests;

pub use conv::{
    col2im_into, conv2d_direct_fits, conv2d_direct_into, conv_input_grad_into, im2col_into,
    pad_images_into, Conv2dGeometry,
};
pub use gradcheck::{central_difference, rel_error};
pub use init::{kaiming_uniform, normal, uniform, Rng64};
pub use matmul::{
    avx512_kernel_enabled, gemm_patches_nt_into, gemm_patches_segmented_acc_into,
    set_force_scalar_kernel, wide_kernel_enabled,
};
pub use shape::Shape;
pub use tensor::Tensor;
