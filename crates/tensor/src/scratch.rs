//! Reusable scratch buffers.
//!
//! [`ScratchArena`] is a deliberately simple free-list of retired `Vec<f32>`
//! backing buffers: a caller takes zeroed matrices out, puts them back when
//! it is done with them, and later takes run on warm, already-sized
//! allocations instead of fresh ones. The pooled-embedding batches of
//! `nfm-core`'s `FmBackbone::pooled_batch_within` are drawn from the
//! caller's arena this way.
//!
//! The arena affects *where* bytes live, never *what* they are: matrices
//! handed out by [`ScratchArena::take`] are fully zeroed (exactly like
//! [`Matrix::zeros`]), so compute results are bitwise independent of reuse.

use crate::matrix::Matrix;

/// A free-list of retired matrix backing buffers.
///
/// Not thread-safe by design — one caller owns an arena and threads it
/// through its calls. Buffers crossing into pool workers must be allocated
/// normally instead.
#[derive(Debug, Default)]
pub struct ScratchArena {
    free: Vec<Vec<f32>>,
}

impl ScratchArena {
    /// Empty arena; buffers are acquired lazily on first use.
    pub fn new() -> ScratchArena {
        ScratchArena::default()
    }

    /// Hand out a zeroed `rows×cols` matrix, recycling the best-fitting
    /// retired buffer (smallest capacity that already holds `rows*cols`
    /// elements). Falls back to growing the largest retired buffer, or a
    /// fresh allocation when the arena is empty.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let need = rows * cols;
        if self.free.is_empty() {
            nfm_obs::counter!("tensor.arena.alloc").inc();
            return Matrix::zeros(rows, cols);
        }
        let mut pick = 0usize;
        let mut fits = false;
        for (i, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            let pick_cap = self.free[pick].capacity();
            if cap >= need {
                if !fits || cap < pick_cap {
                    pick = i;
                    fits = true;
                }
            } else if !fits && cap > pick_cap {
                pick = i;
            }
        }
        if fits {
            nfm_obs::counter!("tensor.arena.reuse").inc();
        } else {
            nfm_obs::counter!("tensor.arena.grow").inc();
        }
        let backing = self.free.swap_remove(pick);
        Matrix::zeros_in(rows, cols, backing)
    }

    /// Retire a matrix, returning its backing buffer to the free list for
    /// a later [`ScratchArena::take`].
    pub fn put(&mut self, m: Matrix) {
        self.free.push(m.into_data());
    }

    /// Number of retired buffers currently available for reuse.
    pub fn available(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_always_zeroed_even_after_dirty_put() {
        let mut arena = ScratchArena::new();
        let mut m = arena.take(3, 4);
        m.data_mut().fill(7.5);
        arena.put(m);
        let again = arena.take(3, 4);
        assert!(again.data().iter().all(|&v| v == 0.0));
        assert_eq!((again.rows(), again.cols()), (3, 4));
    }

    #[test]
    fn take_prefers_best_fitting_retired_buffer() {
        let mut arena = ScratchArena::new();
        let small = Matrix::zeros(2, 2);
        let mid = Matrix::zeros(4, 4);
        let big = Matrix::zeros(16, 16);
        let mid_ptr = mid.data().as_ptr();
        arena.put(small);
        arena.put(big);
        arena.put(mid);
        // 3x4 = 12 elements: mid (16) is the tightest fit, not big (256).
        let got = arena.take(3, 4);
        assert_eq!(got.data().as_ptr(), mid_ptr);
        assert_eq!(arena.available(), 2);
    }

    #[test]
    fn take_grows_largest_when_nothing_fits() {
        let mut arena = ScratchArena::new();
        arena.put(Matrix::zeros(1, 2));
        arena.put(Matrix::zeros(2, 3));
        let got = arena.take(8, 8);
        assert_eq!(got.data().len(), 64);
        assert!(got.data().iter().all(|&v| v == 0.0));
        // The larger of the two retired buffers was consumed.
        assert_eq!(arena.available(), 1);
        assert_eq!(arena.free[0].capacity(), 2);
    }
}
