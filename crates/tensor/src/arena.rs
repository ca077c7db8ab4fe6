//! A reusable buffer arena for zero-allocation steady-state inference.
//!
//! A layer pass that took every output from the heap would allocate one
//! buffer per layer and free it one layer later. [`TensorArena`] breaks that
//! cycle: every layer pass in `mtlsplit-nn` draws from one, and it keeps
//! the backing `Vec<f32>` of every finished intermediate and hands it back
//! out for the next one that fits, so after a warm-up request a whole
//! forward pass is served entirely from recycled memory — **zero
//! allocations per request** in steady state (asserted by
//! `benches/inference.rs` in quick mode).
//!
//! The arena is a plain best-fit free list, not a lifetime-bound slab:
//! buffers taken from it are ordinary owned `Vec<f32>`s (wrapped in
//! [`Tensor`]s), so they can cross API boundaries freely and safe Rust's
//! aliasing rules are never bent. What makes the steady state allocation-free
//! is the take/recycle discipline, not pointer arithmetic:
//!
//! * [`TensorArena::take`] returns a buffer of exactly the requested length,
//!   reusing the smallest free buffer whose capacity fits (growing one only
//!   when nothing fits — that is the warm-up allocation).
//! * [`TensorArena::recycle`] / [`TensorArena::give`] return a finished
//!   tensor's storage to the free list.
//!
//! Buffers from [`TensorArena::take`] have *unspecified contents* (they hold
//! whatever the previous request left behind). Consumers must fully
//! overwrite them — every `infer_into` implementation in this workspace
//! does, and the property tests assert no stale values bleed between
//! requests.

use crate::tensor::Tensor;
use mtlsplit_obs as obs;

/// A recycling pool of `f32` buffers backing planned, zero-allocation
/// inference.
///
/// The take/recycle contract: [`TensorArena::take`] hands out a buffer of
/// the requested length with **unspecified contents** (fully overwrite
/// it), reusing the smallest pooled buffer that fits; return finished
/// buffers with [`TensorArena::give`] / [`TensorArena::recycle`] so the
/// steady state allocates nothing.
///
/// # Example
///
/// ```
/// use mtlsplit_tensor::TensorArena;
///
/// let mut arena = TensorArena::new();
/// let first = arena.take(64); // warm-up: allocates
/// arena.give(first);
/// let second = arena.take(48); // steady state: reuses the 64-element buffer
/// assert_eq!(second.len(), 48);
/// assert_eq!(arena.fresh_allocations(), 1);
/// assert_eq!(arena.reuses(), 1);
/// ```
#[derive(Debug, Default)]
pub struct TensorArena {
    free: Vec<Vec<f32>>,
    fresh_allocations: usize,
    reuses: usize,
    // Running total of pooled capacity, kept so the global high-water
    // gauge costs O(1) per give instead of a free-list sweep.
    pooled_total: usize,
}

impl TensorArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self {
            // Give the free list itself room up front so pushing recycled
            // buffers does not reallocate it on the hot path.
            free: Vec::with_capacity(32),
            fresh_allocations: 0,
            reuses: 0,
            pooled_total: 0,
        }
    }

    /// Takes a buffer of exactly `len` elements with **unspecified
    /// contents** — the caller must overwrite every slot it exposes.
    ///
    /// Reuses the smallest free buffer whose capacity fits; allocates a
    /// fresh one only when nothing fits (counted in
    /// [`TensorArena::fresh_allocations`]).
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut best: Option<(usize, usize)> = None;
        for (index, buffer) in self.free.iter().enumerate() {
            let capacity = buffer.capacity();
            if capacity >= len && best.is_none_or(|(_, c)| capacity < c) {
                best = Some((index, capacity));
            }
        }
        match best {
            Some((index, capacity)) => {
                self.reuses += 1;
                self.pooled_total -= capacity;
                obs::metrics::ARENA_HITS.add(1);
                let mut buffer = self.free.swap_remove(index);
                if buffer.len() > len {
                    buffer.truncate(len);
                } else {
                    // Within capacity: sets the length without reallocating.
                    buffer.resize(len, 0.0);
                }
                buffer
            }
            None => {
                self.fresh_allocations += 1;
                obs::metrics::ARENA_MISSES.add(1);
                vec![0.0; len]
            }
        }
    }

    /// Returns a buffer to the free list for later reuse.
    pub fn give(&mut self, buffer: Vec<f32>) {
        if buffer.capacity() > 0 {
            self.pooled_total += buffer.capacity();
            obs::metrics::ARENA_HIGH_WATER.observe(self.pooled_total as u64);
            self.free.push(buffer);
        }
    }

    /// Returns a finished tensor's storage to the free list.
    ///
    /// Only recycle tensors whose buffers came out of this arena (directly
    /// or through an `infer_into` pass): recycling externally-allocated
    /// tensors grows the pool without bound.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.give(tensor.into_vec());
    }

    /// Number of free buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// Total `f32` elements of capacity currently pooled.
    pub fn pooled_elements(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum()
    }

    /// How many [`TensorArena::take`] calls had to allocate fresh memory.
    ///
    /// In steady state this counter stops moving — that is the
    /// zero-allocation guarantee, machine-checked by the inference bench.
    pub fn fresh_allocations(&self) -> usize {
        self.fresh_allocations
    }

    /// How many [`TensorArena::take`] calls were served from the pool.
    pub fn reuses(&self) -> usize {
        self.reuses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_prefers_the_smallest_fitting_buffer() {
        let mut arena = TensorArena::new();
        arena.give(vec![0.0; 100]);
        arena.give(vec![0.0; 10]);
        let buffer = arena.take(8);
        assert_eq!(buffer.len(), 8);
        assert_eq!(
            buffer.capacity(),
            10,
            "best fit must pick the 10-slot buffer"
        );
        assert_eq!(arena.pooled(), 1);
        assert_eq!(arena.reuses(), 1);
        assert_eq!(arena.fresh_allocations(), 0);
    }

    #[test]
    fn take_allocates_when_nothing_fits() {
        let mut arena = TensorArena::new();
        arena.give(vec![0.0; 4]);
        let buffer = arena.take(16);
        assert_eq!(buffer.len(), 16);
        assert_eq!(arena.fresh_allocations(), 1);
        assert_eq!(arena.pooled(), 1, "the too-small buffer stays pooled");
    }

    #[test]
    fn steady_state_take_give_cycle_stops_allocating() {
        let mut arena = TensorArena::new();
        // Warm-up request: three buffer sizes.
        for &len in &[64usize, 32, 16] {
            let buffer = arena.take(len);
            arena.give(buffer);
        }
        let warmup = arena.fresh_allocations();
        // Twenty steady-state requests over the same sizes, including one
        // that shrinks into a larger buffer.
        for _ in 0..20 {
            for &len in &[64usize, 30, 16] {
                let buffer = arena.take(len);
                assert_eq!(buffer.len(), len);
                arena.give(buffer);
            }
        }
        assert_eq!(
            arena.fresh_allocations(),
            warmup,
            "steady state must be allocation-free"
        );
    }

    #[test]
    fn recycle_round_trips_tensor_storage() {
        let mut arena = TensorArena::new();
        let tensor = Tensor::from_vec(arena.take(6), &[2, 3]).unwrap();
        arena.recycle(tensor);
        assert_eq!(arena.pooled(), 1);
        assert_eq!(arena.pooled_elements(), 6);
        let again = arena.take(6);
        assert_eq!(arena.fresh_allocations(), 1, "second take reuses");
        assert_eq!(again.len(), 6);
    }

    #[test]
    fn zero_length_buffers_are_not_pooled() {
        let mut arena = TensorArena::new();
        arena.give(Vec::new());
        assert_eq!(arena.pooled(), 0);
        let empty = arena.take(0);
        assert!(empty.is_empty());
    }
}
