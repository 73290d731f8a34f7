//! Per-worker scratch arena for the training hot path.
//!
//! Layers need transient `Vec<f32>` buffers every step (channel-major
//! batch-norm views, `dcols` gradients). Instead
//! of allocating them per batch, each thread owns a [`Workspace`]: a small
//! arena of recycled buffers checked out with [`Workspace::checkout`] and
//! handed back with [`Workspace::give`]. In a parallel section every pool
//! worker transparently gets its own arena via [`with_local`], so there is
//! no locking and no sharing; after one warm-up step every checkout is a
//! hit and the steady-state training step performs zero heap allocations
//! (asserted by the counting-allocator bench in `eos-bench`).
//!
//! Capacities are rounded up to powers of two, so buffers are reused
//! across the slightly different sizes consecutive layers ask for.

use std::cell::RefCell;

/// A single-threaded checkout/return arena of `f32` buffers.
#[derive(Default)]
pub struct Workspace {
    /// Parked buffers, each with power-of-two capacity.
    shelf: Vec<Vec<f32>>,
    checkouts: usize,
    misses: usize,
}

impl Workspace {
    /// An empty arena.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Checks out a zero-filled buffer of exactly `len` elements. The
    /// buffer may have served a previous checkout, but its contents are
    /// always cleared — stale values never leak through the arena.
    pub fn checkout(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.checkout_cleared(len);
        v.resize(len, 0.0);
        v
    }

    /// Checks out an empty (`len == 0`) buffer with capacity for at least
    /// `min_capacity` elements, for callers that `extend` into it.
    pub fn checkout_cleared(&mut self, min_capacity: usize) -> Vec<f32> {
        self.checkouts += 1;
        let want = min_capacity.next_power_of_two();
        // Smallest parked buffer that fits, so big buffers stay available
        // for big requests.
        let mut pick: Option<usize> = None;
        for (idx, buf) in self.shelf.iter().enumerate() {
            if buf.capacity() >= want
                && pick.is_none_or(|p| buf.capacity() < self.shelf[p].capacity())
            {
                pick = Some(idx);
            }
        }
        match pick {
            Some(idx) => self.shelf.swap_remove(idx),
            None => {
                self.misses += 1;
                Vec::with_capacity(want)
            }
        }
    }

    /// Returns a buffer to the arena for reuse. The buffer is cleared on
    /// the way in, so a later checkout can never observe its old contents.
    pub fn give(&mut self, mut v: Vec<f32>) {
        v.clear();
        self.shelf.push(v);
    }

    /// `(checkouts, checkouts that had to allocate)` for this arena.
    pub fn stats(&self) -> (usize, usize) {
        (self.checkouts, self.misses)
    }
}

thread_local! {
    static LOCAL: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's [`Workspace`]. Inside a parallel section
/// each pool worker sees its own arena, so checkouts are contention-free.
pub fn with_local<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    LOCAL.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_is_zeroed_even_after_dirty_give() {
        let mut ws = Workspace::new();
        let mut a = ws.checkout(100);
        a.iter_mut().for_each(|x| *x = f32::NAN);
        ws.give(a);
        let b = ws.checkout(100);
        assert_eq!(b.len(), 100);
        assert!(b.iter().all(|&x| x == 0.0), "stale values leaked");
    }

    #[test]
    fn round_trip_reuses_the_allocation() {
        let mut ws = Workspace::new();
        let a = ws.checkout(1000);
        let cap = a.capacity();
        ws.give(a);
        let b = ws.checkout(900);
        assert_eq!(b.capacity(), cap, "arena should reuse the parked buffer");
        let (checkouts, misses) = ws.stats();
        assert_eq!((checkouts, misses), (2, 1));
    }

    #[test]
    fn smallest_fitting_buffer_is_picked() {
        let mut ws = Workspace::new();
        let small = ws.checkout(16);
        let big = ws.checkout(4096);
        let (small_cap, big_cap) = (small.capacity(), big.capacity());
        ws.give(big);
        ws.give(small);
        assert_eq!(ws.checkout(10).capacity(), small_cap);
        assert_eq!(ws.checkout(2000).capacity(), big_cap);
    }

    #[test]
    fn local_workspace_is_per_thread() {
        with_local(|ws| {
            let v = ws.checkout(64);
            ws.give(v);
        });
        let mine = with_local(|ws| ws.stats().0);
        assert!(mine >= 1, "this thread's arena saw the checkout");
        let other = std::thread::spawn(|| with_local(|ws| ws.stats().0))
            .join()
            .unwrap();
        assert_eq!(other, 0, "fresh thread starts with a fresh arena");
    }
}
