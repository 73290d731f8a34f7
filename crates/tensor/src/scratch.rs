//! Global recycling pool for `f32` buffers.
//!
//! Every [`crate::Tensor`] owns a `Vec<f32>`; a training step creates and
//! drops dozens of them (activations, gradients, GEMM outputs, packed
//! panels). Instead of round-tripping each one through the system
//! allocator, dropped buffers park here in capacity-keyed free lists and
//! the next request of a compatible size reuses them. After a warm-up
//! step the pool reaches a fixed point and a steady-state training step
//! performs **zero** heap allocations (asserted by the counting-allocator
//! bench in `eos-bench`).
//!
//! Requests are rounded up to a power of two, so the free lists collapse
//! onto ~32 size classes instead of one per distinct tensor shape. The
//! pool is bounded ([`MAX_POOL_BYTES`], [`MAX_PER_CLASS`]); buffers beyond
//! the caps fall back to the allocator exactly as before.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Total bytes the pool may retain across all size classes.
const MAX_POOL_BYTES: usize = 1 << 30;

/// Retained buffers per size class.
const MAX_PER_CLASS: usize = 64;

/// Smallest pooled class; all smaller requests round up to it.
const MIN_POOL_LEN: usize = 16;

struct PoolInner {
    /// Free lists keyed by buffer capacity (always a power of two).
    classes: BTreeMap<usize, Vec<Vec<f32>>>,
    held_bytes: usize,
}

static POOL: Mutex<Option<PoolInner>> = Mutex::new(None);

/// Buffers handed out since process start (pool hits + fresh allocations).
static TAKEN: AtomicUsize = AtomicUsize::new(0);
/// Requests the pool could not serve from a free list.
static MISSES: AtomicUsize = AtomicUsize::new(0);

fn with_pool<R>(f: impl FnOnce(&mut PoolInner) -> R) -> R {
    let mut guard = POOL.lock().unwrap_or_else(PoisonError::into_inner);
    let inner = guard.get_or_insert_with(|| PoolInner {
        classes: BTreeMap::new(),
        held_bytes: 0,
    });
    f(inner)
}

/// Capacity class a request of `len` elements is served from.
fn class_of(len: usize) -> usize {
    len.next_power_of_two().max(MIN_POOL_LEN)
}

/// A cleared (`len == 0`) buffer with capacity for at least `min_capacity`
/// elements. Fill it with `extend`/`resize`; neither reallocates as long
/// as the final length stays within `min_capacity`.
pub fn take_cleared(min_capacity: usize) -> Vec<f32> {
    let mut v = take_parked(min_capacity);
    v.clear();
    v
}

/// A buffer of exactly `len` elements whose values are unspecified: what
/// the recycled buffer's earlier user left there (zeros past that). For
/// callers that overwrite every element: it skips the fill pass
/// [`take_zeroed`] spends on a buffer about to be rewritten.
pub fn take_stale(len: usize) -> Vec<f32> {
    let mut v = take_parked(len);
    if v.len() >= len {
        v.truncate(len);
    } else {
        v.resize(len, 0.0);
    }
    v
}

/// A parked buffer with capacity for at least `min_capacity` elements,
/// still holding the values (and length) its last user gave back, or a
/// fresh empty one.
fn take_parked(min_capacity: usize) -> Vec<f32> {
    TAKEN.fetch_add(1, Ordering::Relaxed);
    // Requests below MIN_POOL_LEN still consult the pool: their class is
    // clamped up to MIN_POOL_LEN, the same class `give` parks them under —
    // skipping the lookup would re-allocate a small buffer on every call.
    let reused = with_pool(|pool| {
        let class = class_of(min_capacity);
        let v = pool.classes.get_mut(&class).and_then(Vec::pop);
        if let Some(v) = &v {
            pool.held_bytes -= v.capacity() * std::mem::size_of::<f32>();
        }
        v
    });
    if let Some(v) = reused {
        debug_assert!(v.capacity() >= min_capacity);
        return v;
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    Vec::with_capacity(class_of(min_capacity))
}

/// A buffer of exactly `len` elements, all set to `value`.
pub fn take_filled(len: usize, value: f32) -> Vec<f32> {
    let mut v = take_cleared(len);
    v.resize(len, value);
    v
}

/// A zero-filled buffer of exactly `len` elements.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    take_filled(len, 0.0)
}

/// A buffer holding a copy of `src`.
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut v = take_cleared(src.len());
    v.extend_from_slice(src);
    v
}

/// Returns a buffer to the pool for reuse. Buffers that are tiny, oddly
/// sized (capacity not a pool class) or beyond the retention caps are
/// dropped normally.
pub fn give(v: Vec<f32>) {
    let cap = v.capacity();
    if cap < MIN_POOL_LEN || cap != cap.next_power_of_two() {
        return;
    }
    // Parked with its values: `take_stale` hands them out again instead
    // of a fill, every other `take_*` clears first.
    let bytes = cap * std::mem::size_of::<f32>();
    with_pool(|pool| {
        if pool.held_bytes + bytes > MAX_POOL_BYTES {
            return; // drop `v` outside the pool's books
        }
        // Free-list spines are sized for MAX_PER_CLASS up front: the push
        // below can then never reallocate, so giving a buffer back is
        // allocation-free after a class's first use — the steady-state
        // audit counts a mid-step spine doubling as a hot-path allocation.
        let class = pool
            .classes
            .entry(cap)
            .or_insert_with(|| Vec::with_capacity(MAX_PER_CLASS));
        if class.len() < MAX_PER_CLASS {
            class.push(v);
            pool.held_bytes += bytes;
        }
    });
}

/// Empties every free list and returns the parked buffers.
///
/// The pool is process-global, so per-worker warm-up alone only proves it
/// holds ONE worker's buffer working set — a second warm-up reuses the
/// first's parked buffers instead of adding its own. The concurrent
/// allocation audit uses `drain` to force-stock the pool to a known
/// multi-job peak: drain, let one job re-warm against the empty pool (it
/// parks a full working set of fresh buffers), then [`give`] the drained
/// buffers back.
pub fn drain() -> Vec<Vec<f32>> {
    with_pool(|pool| {
        pool.held_bytes = 0;
        std::mem::take(&mut pool.classes)
            .into_values()
            .flatten()
            .collect()
    })
}

/// `(buffers handed out, requests that had to allocate)` since process
/// start. The difference is the number of pool hits.
pub fn stats() -> (usize, usize) {
    (
        TAKEN.load(Ordering::Relaxed),
        MISSES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_capacity() {
        let mut a = take_cleared(1000);
        let cap = a.capacity();
        a.resize(1000, 7.0);
        give(a);
        let b = take_cleared(900); // same class: 1024
        assert_eq!(b.capacity(), cap);
        assert!(b.is_empty(), "reused buffer must come back cleared");
    }

    #[test]
    fn take_zeroed_never_leaks_stale_values() {
        let mut a = take_zeroed(256);
        a.iter_mut().for_each(|x| *x = f32::NAN);
        give(a);
        let b = take_zeroed(256);
        assert!(b.iter().all(|&x| x == 0.0), "stale values leaked");
        assert_eq!(b.len(), 256);
    }

    #[test]
    fn take_stale_has_the_length_asked_for() {
        // Shorter and longer than the parked buffer's last length, within
        // one class: exact lengths either way. (The values are whatever a
        // buffer's last user left, and the pool is shared by concurrent
        // tests, so they are not checked.)
        give(take_filled(3000, 1.5));
        let b = take_stale(2500);
        assert_eq!(b.len(), 2500);
        give(b);
        let c = take_stale(4000);
        assert_eq!(c.len(), 4000);
        assert!(c.capacity() >= 4000);
    }

    #[test]
    fn take_copy_matches_source() {
        let src = [1.0f32, -2.0, 3.5];
        // Below MIN_POOL_LEN: still correct, just never pooled.
        assert_eq!(take_copy(&src), src);
    }

    #[test]
    fn classes_round_up_to_powers_of_two() {
        assert_eq!(class_of(1), MIN_POOL_LEN);
        assert_eq!(class_of(17), 32);
        assert_eq!(class_of(64), 64);
        assert_eq!(class_of(65), 128);
    }

    #[test]
    fn odd_capacity_buffers_are_not_pooled() {
        // A capacity that is not a pool class must not corrupt the books.
        give(Vec::with_capacity(100));
        let v = take_cleared(90);
        assert_eq!(v.capacity(), 128);
    }
}
