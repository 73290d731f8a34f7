//! Model weight serialization.
//!
//! Two small self-describing binary formats, both built on the
//! [`eos_tensor::record`] writer and cursor:
//!
//! * `EOSW` — trainable parameters in the layer's stable order plus
//!   non-trainable state (batch-norm running statistics), so a saved
//!   network reproduces inference exactly. This is what lets phase one
//!   of the framework be trained once and the classifier head
//!   fine-tuned many times in later processes. Its header is unsealed:
//!   the blob travels inside sealed EOST and EOSC records.
//! * `EOST` — a full mid-training snapshot ([`TrainState`]): an `EOSW`
//!   blob plus SGD momentum velocity, the shuffle RNG, the cumulative
//!   sample order, the epoch counter / LR position / DRW flag and the
//!   per-epoch history, as a sealed record. Restoring one continues
//!   training bit-identically from the epoch boundary it was taken at —
//!   the substrate of the crash-safe resume contract.

use crate::layer::Layer;
use crate::trainer::EpochStats;
use eos_tensor::record::{invalid, open, seal, Reader, Writer};
use eos_tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"EOSW";
const VERSION: u32 = 1;
/// Upper bound on a stored tensor's rank. Nothing in the workspace goes
/// past rank 2; the bound keeps a corrupt rank field from driving a
/// multi-gigabyte dims allocation before the shape check can reject it.
const MAX_RANK: usize = 8;

/// Writes a layer's parameters and extra state to `writer`.
pub fn save_weights(layer: &mut dyn Layer, mut writer: impl Write) -> io::Result<()> {
    writer.write_all(&save_weights_bytes(layer))
}

/// Restores parameters and extra state written by [`save_weights`] into a
/// structurally identical layer. Fails loudly on any shape mismatch.
pub fn load_weights(layer: &mut dyn Layer, mut reader: impl Read) -> io::Result<()> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let mut r = Reader::new(&bytes);
    if r.bytes(4)? != MAGIC {
        return Err(invalid("not an EOSW weight file"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(invalid(format!("unsupported EOSW version {version}")));
    }
    let count = r.u64()? as usize;
    let mut params = layer.params();
    if count != params.len() {
        return Err(invalid(format!(
            "file has {count} parameters, model has {}",
            params.len()
        )));
    }
    for p in params.iter_mut() {
        let t = read_tensor(&mut r)?;
        if t.dims() != p.value.dims() {
            return Err(invalid(format!(
                "parameter shape mismatch: file {:?}, model {:?}",
                t.dims(),
                p.value.dims()
            )));
        }
        p.value.data_mut().copy_from_slice(t.data());
    }
    let extra_len = r.u64()? as usize;
    let expected = layer.extra_state().len();
    if extra_len != expected {
        return Err(invalid(format!(
            "extra state length mismatch: file {extra_len}, model {expected}"
        )));
    }
    let extra = r.f32s(extra_len)?;
    if extra.iter().any(|v| !v.is_finite()) {
        return Err(invalid("non-finite value in extra state"));
    }
    layer.load_extra_state(&extra);
    // A well-formed file ends exactly at the extra state; anything after
    // it means the file and the model disagree about the structure in a
    // way the per-parameter checks happened not to catch.
    r.end("the last tensor")
}

/// [`save_weights`] rendered into a byte buffer — the in-memory half of
/// the checkpoint round-trip API used by artifact caches.
pub fn save_weights_bytes(layer: &mut dyn Layer) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(MAGIC).u32(VERSION);
    let params = layer.params();
    w.u64(params.len() as u64);
    for p in &params {
        write_tensor(&mut w, &p.value);
    }
    let extra = layer.extra_state();
    w.u64(extra.len() as u64).f32s(&extra);
    w.into_bytes()
}

/// Writes one tensor (rank, dims, f32 payload) in EOSW's wire encoding.
/// Together with [`read_tensor`] this lets callers persist auxiliary
/// arrays (extracted embeddings, cached statistics) next to a weight
/// blob without inventing a second format.
pub fn write_tensor(w: &mut Writer, t: &Tensor) {
    w.u32(t.dims().len() as u32);
    for &d in t.dims() {
        w.u64(d as u64);
    }
    w.f32s(t.data());
}

/// Reads a tensor written by [`write_tensor`], with the corruption guards
/// of weight loading: bounded rank, bounded element count and a
/// finiteness check on every value.
pub fn read_tensor(r: &mut Reader) -> io::Result<Tensor> {
    let rank = r.u32()? as usize;
    if rank > MAX_RANK {
        return Err(invalid(format!(
            "tensor claims rank {rank} (corrupt length field?)"
        )));
    }
    let mut dims = Vec::with_capacity(rank);
    let mut len = 1usize;
    for _ in 0..rank {
        let d = r.u64()? as usize;
        len = len
            .checked_mul(d)
            .filter(|&l| l <= MAX_TENSOR_ELEMS)
            .ok_or_else(|| invalid("tensor dims overflow (corrupt dim field?)"))?;
        dims.push(d);
    }
    let data = r.f32s(len)?;
    if data.iter().any(|v| !v.is_finite()) {
        return Err(invalid("non-finite value in tensor"));
    }
    Ok(Tensor::from_vec(data, &dims))
}

/// Element cap for [`read_tensor`]: nothing persisted in this workspace
/// approaches it, and it rejects a corrupt dim field by name before the
/// payload read fails on the short buffer.
const MAX_TENSOR_ELEMS: usize = 1 << 31;

/// [`save_weights`] to a file path.
pub fn save_weights_file(layer: &mut dyn Layer, path: &Path) -> io::Result<()> {
    std::fs::write(path, save_weights_bytes(layer))
}

/// [`load_weights`] from a file path.
pub fn load_weights_file(layer: &mut dyn Layer, path: &Path) -> io::Result<()> {
    load_weights(layer, std::fs::read(path)?.as_slice())
}

// ---------------------------------------------------------------------------
// EOST: epoch-boundary training checkpoints.

const TRAIN_MAGIC: &[u8; 4] = b"EOST";
const TRAIN_VERSION: u32 = 1;
/// Cap on the epoch counter, far above anything the workspace trains, so
/// a corrupt field is reported by name.
const MAX_EPOCHS: usize = 1 << 20;

/// Everything [`crate::trainer::try_train_epochs_resumable`] needs to
/// continue a run bit-identically from an epoch boundary.
///
/// The weights travel as an opaque `EOSW` blob (parameters + BN running
/// stats), so the structural validation of [`load_weights`] — shape
/// checks, finiteness, trailing-byte detection — applies unchanged when
/// the snapshot is restored into a network.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Number of fully completed epochs (the resume point).
    pub epochs_done: usize,
    /// Optimiser learning rate after the last completed epoch (the
    /// LR-schedule position; re-derived from the schedule on resume, but
    /// stored so schedule-free runs restore the exact value).
    pub lr: f32,
    /// Whether the DRW class weights have been installed in the loss.
    pub drw_installed: bool,
    /// The xoshiro256** state words of the shuffle RNG.
    pub rng_words: [u64; 4],
    /// The RNG's cached Box–Muller spare, if any.
    pub rng_spare: Option<f64>,
    /// `EOSW` blob: parameters + batch-norm running statistics.
    pub weights: Vec<u8>,
    /// SGD momentum velocity, one buffer per parameter in visitation
    /// order; empty when no step has run.
    pub velocity: Vec<Vec<f32>>,
    /// The cumulative sample permutation. The trainer shuffles one
    /// `order` vector in place across epochs, so resuming from a fresh
    /// identity permutation would change every later epoch's batches.
    pub order: Vec<u32>,
    /// Per-epoch stats of the completed epochs (`len == epochs_done`).
    pub history: Vec<EpochStats>,
}

/// Serialises a [`TrainState`] into a sealed `EOST` record.
pub fn save_train_state_bytes(state: &TrainState) -> Vec<u8> {
    seal(TRAIN_MAGIC, TRAIN_VERSION, |w| {
        w.u64(state.epochs_done as u64)
            .f32(state.lr)
            .bytes(&[state.drw_installed as u8, state.rng_spare.is_some() as u8]);
        for word in state.rng_words {
            w.u64(word);
        }
        w.u64(state.rng_spare.unwrap_or(0.0).to_bits())
            .u64(state.weights.len() as u64)
            .bytes(&state.weights)
            .u64(state.velocity.len() as u64);
        for v in &state.velocity {
            w.u64(v.len() as u64).f32s(v);
        }
        w.u64(state.order.len() as u64);
        for &i in &state.order {
            w.u32(i);
        }
        w.u64(state.history.len() as u64);
        for h in &state.history {
            w.u64(h.epoch as u64).f32(h.loss).f32(h.accuracy);
        }
    })
}

/// Parses an `EOST` record back into a [`TrainState`].
///
/// The trailing checksum is verified before anything else, so a
/// truncated or bit-flipped file fails cleanly here — the checkpointer
/// treats any error as "this entry is corrupt, fall back to the
/// previous one". Structural and finiteness validation follows; the
/// embedded weights blob is validated later by [`load_weights`] when
/// it is restored into a concrete network.
pub fn load_train_state_bytes(bytes: &[u8]) -> io::Result<TrainState> {
    let mut r = open(bytes, TRAIN_MAGIC, TRAIN_VERSION)?;
    let epochs_done = r.u64()? as usize;
    if epochs_done > MAX_EPOCHS {
        return Err(invalid(format!(
            "EOST claims {epochs_done} completed epochs (corrupt field?)"
        )));
    }
    let lr = r.f32()?;
    if !lr.is_finite() {
        return Err(invalid("non-finite learning rate in EOST"));
    }
    let flags = r.bytes(2)?;
    if flags[0] > 1 || flags[1] > 1 {
        return Err(invalid("EOST boolean flag out of range"));
    }
    let drw_installed = flags[0] == 1;
    let has_spare = flags[1] == 1;
    let mut rng_words = [0u64; 4];
    for word in &mut rng_words {
        *word = r.u64()?;
    }
    let spare_bits = r.u64()?;
    let rng_spare = has_spare.then(|| f64::from_bits(spare_bits));
    if rng_spare.is_some_and(|s| !s.is_finite()) {
        return Err(invalid("non-finite RNG spare in EOST"));
    }
    let weights_len = r.u64()? as usize;
    let weights = r.bytes(weights_len)?.to_vec();
    // Counts are not trusted for preallocation: every element read is
    // bounds-checked, so a corrupt count fails at the end of the record.
    let n_vel = r.u64()?;
    let mut velocity = Vec::new();
    for i in 0..n_vel {
        let len = r.u64()? as usize;
        let v = r.f32s(len)?;
        if v.iter().any(|x| !x.is_finite()) {
            return Err(invalid(format!("non-finite value in velocity buffer {i}")));
        }
        velocity.push(v);
    }
    let order_len = r.u64()?;
    let order = (0..order_len)
        .map(|_| r.u32())
        .collect::<io::Result<Vec<u32>>>()?;
    let n_hist = r.u64()? as usize;
    if n_hist != epochs_done {
        return Err(invalid(format!(
            "EOST history has {n_hist} entries for {epochs_done} completed epochs"
        )));
    }
    let mut history = Vec::with_capacity(n_hist);
    for i in 0..n_hist {
        let epoch = r.u64()? as usize;
        let loss = r.f32()?;
        let accuracy = r.f32()?;
        if epoch != i {
            return Err(invalid(format!(
                "EOST history entry {i} claims epoch {epoch}"
            )));
        }
        if !loss.is_finite() || !accuracy.is_finite() {
            return Err(invalid(format!("non-finite stats in history entry {i}")));
        }
        history.push(EpochStats {
            epoch,
            loss,
            accuracy,
        });
    }
    r.end("the EOST history")?;
    Ok(TrainState {
        epochs_done,
        lr,
        drw_installed,
        rng_words,
        rng_spare,
        weights,
        velocity,
        order,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Architecture, ConvNet};
    use eos_tensor::record::fnv1a;
    use eos_tensor::{normal, Rng64};

    fn tiny_net(seed: u64) -> ConvNet {
        ConvNet::new(
            Architecture::ResNet {
                blocks_per_stage: 1,
                width: 4,
            },
            (3, 8, 8),
            3,
            &mut Rng64::new(seed),
        )
    }

    #[test]
    fn roundtrip_restores_exact_outputs() {
        let mut rng = Rng64::new(0);
        let mut a = tiny_net(1);
        // Push some data through in training mode so BN running stats are
        // non-trivial (the part naive param-only serialization loses).
        let x = normal(&[8, 3 * 64], 0.0, 1.0, &mut rng);
        let _ = a.forward(&x, true);
        let expected = a.forward(&x, false);

        let mut buf = Vec::new();
        save_weights(&mut a, &mut buf).unwrap();
        let mut b = tiny_net(999); // different init, same structure
        load_weights(&mut b, buf.as_slice()).unwrap();
        let got = b.forward(&x, false);
        assert_eq!(expected.data(), got.data(), "bit-exact inference");
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut net = tiny_net(1);
        let err = load_weights(&mut net, &b"NOPE"[..]).unwrap_err();
        assert!(err.to_string().contains("not an EOSW"));
    }

    #[test]
    fn rejects_structural_mismatch() {
        let mut a = tiny_net(1);
        let mut buf = Vec::new();
        save_weights(&mut a, &mut buf).unwrap();
        let mut b = ConvNet::new(
            Architecture::ResNet {
                blocks_per_stage: 1,
                width: 8, // wider: different shapes
            },
            (3, 8, 8),
            3,
            &mut Rng64::new(0),
        );
        assert!(load_weights(&mut b, buf.as_slice()).is_err());
    }

    #[test]
    fn roundtrip_every_architecture_family() {
        for arch in [
            Architecture::ResNet {
                blocks_per_stage: 1,
                width: 4,
            },
            Architecture::WideResNet { k: 1 },
            Architecture::DenseNet {
                growth: 4,
                layers_per_block: 2,
            },
        ] {
            let mut rng = Rng64::new(7);
            let mut a = ConvNet::new(arch, (3, 8, 8), 3, &mut rng);
            let x = normal(&[4, 3 * 64], 0.0, 1.0, &mut rng);
            let _ = a.forward(&x, true); // accumulate BN statistics
            let mut buf = Vec::new();
            save_weights(&mut a, &mut buf).unwrap();
            let mut b = ConvNet::new(arch, (3, 8, 8), 3, &mut Rng64::new(1234));
            load_weights(&mut b, buf.as_slice()).unwrap();
            assert_eq!(
                a.forward(&x, false).data(),
                b.forward(&x, false).data(),
                "{} roundtrip",
                arch.name()
            );
        }
    }

    #[test]
    fn rejects_truncated_header() {
        let mut net = tiny_net(1);
        // Magic only, then EOF where the version should be.
        let err = load_weights(&mut net, &b"EOSW"[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut net = tiny_net(1);
        let mut buf = Vec::new();
        save_weights(&mut net, &mut buf).unwrap();
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = load_weights(&mut net, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn rejects_garbage_rank_without_allocating_for_it() {
        let mut net = tiny_net(1);
        let mut buf = Vec::new();
        save_weights(&mut net, &mut buf).unwrap();
        // First parameter's rank field (after magic+version+count).
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = load_weights(&mut net, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("rank"), "{err}");
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut a = tiny_net(1);
        let mut buf = Vec::new();
        save_weights(&mut a, &mut buf).unwrap();
        buf.push(0);
        let mut b = tiny_net(2);
        let err = load_weights(&mut b, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn rejects_non_finite_parameter_values() {
        let mut a = tiny_net(1);
        a.params()[0].value.data_mut()[0] = f32::NAN;
        let mut buf = Vec::new();
        save_weights(&mut a, &mut buf).unwrap();
        let mut b = tiny_net(2);
        let err = load_weights(&mut b, buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn tensor_roundtrip_is_bit_exact() {
        let mut rng = Rng64::new(9);
        let t = normal(&[5, 7], 0.0, 3.0, &mut rng);
        let mut w = Writer::new();
        write_tensor(&mut w, &t);
        let back = read_tensor(&mut Reader::new(&w.into_bytes())).unwrap();
        assert_eq!(back.dims(), t.dims());
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn tensor_read_rejects_truncation_and_garbage() {
        let t = Tensor::ones(&[3, 4]);
        let mut w = Writer::new();
        write_tensor(&mut w, &t);
        let buf = w.into_bytes();
        let read_tensor = |b: &[u8]| read_tensor(&mut Reader::new(b));
        // Truncated payload.
        let err = read_tensor(&buf[..buf.len() - 2]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // Garbage rank.
        let mut corrupt = buf.clone();
        corrupt[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_tensor(&corrupt)
            .unwrap_err()
            .to_string()
            .contains("rank"));
        // Garbage dim driving an absurd allocation.
        let mut huge = buf.clone();
        huge[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_tensor(&huge)
            .unwrap_err()
            .to_string()
            .contains("overflow"));
        // Non-finite payload.
        let mut nan = buf.clone();
        let end = nan.len();
        nan[end - 4..].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(read_tensor(&nan)
            .unwrap_err()
            .to_string()
            .contains("non-finite"));
    }

    fn sample_state() -> TrainState {
        let mut net = tiny_net(3);
        let x = normal(&[4, 3 * 64], 0.0, 1.0, &mut Rng64::new(8));
        let _ = net.forward(&x, true); // non-trivial BN stats
        let mut rng = Rng64::new(12);
        let _ = rng.normal(); // cache a spare so both flag paths are hit
        let (rng_words, rng_spare) = rng.state();
        TrainState {
            epochs_done: 2,
            lr: 0.025,
            drw_installed: true,
            rng_words,
            rng_spare,
            weights: save_weights_bytes(&mut net),
            velocity: vec![vec![0.5, -0.25], vec![], vec![1e-3]],
            order: vec![3, 0, 2, 1],
            history: vec![
                EpochStats {
                    epoch: 0,
                    loss: 1.2,
                    accuracy: 0.4,
                },
                EpochStats {
                    epoch: 1,
                    loss: 0.8,
                    accuracy: 0.6,
                },
            ],
        }
    }

    #[test]
    fn train_state_roundtrip_is_exact() {
        let state = sample_state();
        let bytes = save_train_state_bytes(&state);
        let back = load_train_state_bytes(&bytes).unwrap();
        assert_eq!(back, state);

        // The no-spare flag path round-trips too.
        let mut no_spare = state;
        no_spare.rng_spare = None;
        no_spare.drw_installed = false;
        let back = load_train_state_bytes(&save_train_state_bytes(&no_spare)).unwrap();
        assert_eq!(back, no_spare);
    }

    #[test]
    fn train_state_rejects_truncation_and_bit_flips() {
        // A small record (the weights blob is opaque to EOST), so every
        // cut and every byte position is cheap to try.
        let mut state = sample_state();
        state.weights.truncate(64);
        let bytes = save_train_state_bytes(&state);
        // Any truncation breaks the checksum (or leaves less than one).
        for cut in 0..bytes.len() {
            let err = load_train_state_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}");
        }
        // A single flipped bit anywhere, the checksum included, is caught.
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            let err = load_train_state_bytes(&corrupt).unwrap_err();
            assert!(err.to_string().contains("checksum"), "flip at {pos}: {err}");
        }
    }

    #[test]
    fn train_state_rejects_valid_checksum_over_bad_structure() {
        // Re-checksummed corruption gets past the hash, so the
        // structural checks must catch it.
        let reseal = |mut body: Vec<u8>| {
            let checksum = fnv1a(&body);
            body.extend_from_slice(&checksum.to_le_bytes());
            body
        };
        let state = sample_state();
        let sealed = save_train_state_bytes(&state);
        let body = sealed[..sealed.len() - 8].to_vec();

        // Wrong magic.
        let mut b = body.clone();
        b[..4].copy_from_slice(b"NOPE");
        assert!(load_train_state_bytes(&reseal(b))
            .unwrap_err()
            .to_string()
            .contains("not an EOST"));
        // Wrong version.
        let mut b = body.clone();
        b[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(load_train_state_bytes(&reseal(b))
            .unwrap_err()
            .to_string()
            .contains("version 9"));
        // Absurd epoch count.
        let mut b = body.clone();
        b[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(load_train_state_bytes(&reseal(b))
            .unwrap_err()
            .to_string()
            .contains("completed epochs"));
        // History length disagreeing with the epoch counter.
        let mut bad_hist = state.clone();
        bad_hist.epochs_done = 1;
        let sealed = save_train_state_bytes(&bad_hist);
        assert!(load_train_state_bytes(&sealed)
            .unwrap_err()
            .to_string()
            .contains("history"));
        // Trailing junk before the checksum.
        let mut b = body;
        b.push(0);
        assert!(load_train_state_bytes(&reseal(b))
            .unwrap_err()
            .to_string()
            .contains("trailing"));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("eos_weights_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.eosw");
        let mut a = tiny_net(4);
        save_weights_file(&mut a, &path).unwrap();
        let mut b = tiny_net(5);
        load_weights_file(&mut b, &path).unwrap();
        let x = normal(&[2, 3 * 64], 0.0, 1.0, &mut Rng64::new(6));
        assert_eq!(a.forward(&x, false).data(), b.forward(&x, false).data());
    }

    #[test]
    fn record_bytes_are_pinned() {
        let eosw = save_weights_bytes(&mut tiny_net(1));
        let eost = save_train_state_bytes(&sample_state());
        assert_eq!(eosw.len(), 21504);
        assert_eq!(fnv1a(&eosw), 0x15e36939f7c1bcdf);
        assert_eq!(eost.len(), 21690);
        assert_eq!(fnv1a(&eost), 0xee7dcf24e2d48e81);
    }
}
