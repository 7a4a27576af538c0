//! A dense row-major f32 matrix with the operations the model stack needs:
//! cache-blocked matmul (plain and transposed variants), broadcasting adds,
//! row-wise softmax, and elementwise maps.
//!
//! Every kernel is one sequential loop over its whole output, and each
//! output element's accumulation order is a pure function of the shapes
//! (tile loops keep the inner `p` index globally ascending; every
//! `matmul_nt` element keeps `dot`'s eight lanes and fixed reduction tree,
//! whichever of its kernels runs), so the tiled kernels produce
//! bitwise-identical results to their untiled forms. Parallelism lives a
//! level up, in [`crate::pool::par_map_work`]'s tasks.

use std::fmt;

use crate::pool;

/// Tile width along the shared (`k`) dimension of matmuls.
const TILE_K: usize = 64;
/// Tile width along the output-column (`n`) dimension of matmuls.
const TILE_N: usize = 256;
/// Fewest rows of `a` for which `matmul_nt` at `k = 8` pays for the
/// transposed copy of `b`. In a single-thread probe at n = 26 and 13 the
/// column kernel ran about 0.5× of `dot` with one row, 0.6–0.9× with two,
/// 1.0–1.1× with three and 1.2–1.3× with four.
const NT_ONE_CHUNK_ROWS_MIN: usize = 4;

/// `out[r][j] += sum_p a[r][p] * b[p][j]`, tiled over `(p, j)`. The `p`
/// index ascends globally per output element, so the result is bitwise
/// identical to the untiled `ikj` loop.
///
/// The hot path is a 4×8 register tile: four output rows by eight columns
/// of accumulators live in vector registers across the whole `p` loop, so
/// each streamed `b` row feeds 32 multiply-adds and `out` is touched once
/// per tile instead of once per `p`. Tiling only regroups *which elements*
/// share a pass — each element still starts from its current value and
/// accumulates over `p` ascending — so the output is bitwise identical to
/// the scalar form at any row count or shape.
fn matmul_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for jb in (0..n).step_by(TILE_N) {
        let jw = TILE_N.min(n - jb);
        for pb in (0..k).step_by(TILE_K) {
            let pw = TILE_K.min(k - pb);
            let mut r = 0;
            while r + 4 <= rows {
                let a0 = &a[r * k..][..k];
                let a1 = &a[(r + 1) * k..][..k];
                let a2 = &a[(r + 2) * k..][..k];
                let a3 = &a[(r + 3) * k..][..k];
                let mut j = 0;
                while j + 8 <= jw {
                    let col = jb + j;
                    let mut acc0 = [0.0f32; 8];
                    let mut acc1 = [0.0f32; 8];
                    let mut acc2 = [0.0f32; 8];
                    let mut acc3 = [0.0f32; 8];
                    acc0.copy_from_slice(&out[r * n + col..][..8]);
                    acc1.copy_from_slice(&out[(r + 1) * n + col..][..8]);
                    acc2.copy_from_slice(&out[(r + 2) * n + col..][..8]);
                    acc3.copy_from_slice(&out[(r + 3) * n + col..][..8]);
                    for p in pb..pb + pw {
                        let (v0, v1, v2, v3) = (a0[p], a1[p], a2[p], a3[p]);
                        let b8 = &b[p * n + col..][..8];
                        for l in 0..8 {
                            acc0[l] += v0 * b8[l];
                            acc1[l] += v1 * b8[l];
                            acc2[l] += v2 * b8[l];
                            acc3[l] += v3 * b8[l];
                        }
                    }
                    out[r * n + col..][..8].copy_from_slice(&acc0);
                    out[(r + 1) * n + col..][..8].copy_from_slice(&acc1);
                    out[(r + 2) * n + col..][..8].copy_from_slice(&acc2);
                    out[(r + 3) * n + col..][..8].copy_from_slice(&acc3);
                    j += 8;
                }
                if j < jw {
                    // Column remainder (< 8 wide): plain per-p accumulation.
                    for p in pb..pb + pw {
                        let (v0, v1, v2, v3) = (a0[p], a1[p], a2[p], a3[p]);
                        let b_row = &b[p * n + jb + j..][..jw - j];
                        for (l, &bv) in b_row.iter().enumerate() {
                            out[r * n + jb + j + l] += v0 * bv;
                            out[(r + 1) * n + jb + j + l] += v1 * bv;
                            out[(r + 2) * n + jb + j + l] += v2 * bv;
                            out[(r + 3) * n + jb + j + l] += v3 * bv;
                        }
                    }
                }
                r += 4;
            }
            for r in r..rows {
                let a_row = &a[r * k..][..k];
                let o_row = &mut out[r * n + jb..][..jw];
                for p in pb..pb + pw {
                    let av = a_row[p];
                    let b_row = &b[p * n + jb..][..jw];
                    for (o, &bv) in o_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
        }
    }
}

/// `out[r][j] += sum_p a[p][r] * b[p][j]` (aᵀ·b); `a` is `k × m` and read
/// down columns, `b` streams row-wise.
///
/// The same 4×8 register tile as [`matmul_rows`], with the transposed read:
/// the four rows' operands for one `p` are four adjacent values of `a`'s
/// row `p`. Each element still starts from its current value and
/// accumulates over `p` ascending, so the output is bitwise identical to
/// the scalar form at any row count or shape.
fn matmul_tn_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for jb in (0..n).step_by(TILE_N) {
        let jw = TILE_N.min(n - jb);
        for pb in (0..k).step_by(TILE_K) {
            let pw = TILE_K.min(k - pb);
            let mut r = 0;
            while r + 4 <= rows {
                let mut j = 0;
                while j + 8 <= jw {
                    let col = jb + j;
                    let mut acc0 = [0.0f32; 8];
                    let mut acc1 = [0.0f32; 8];
                    let mut acc2 = [0.0f32; 8];
                    let mut acc3 = [0.0f32; 8];
                    acc0.copy_from_slice(&out[r * n + col..][..8]);
                    acc1.copy_from_slice(&out[(r + 1) * n + col..][..8]);
                    acc2.copy_from_slice(&out[(r + 2) * n + col..][..8]);
                    acc3.copy_from_slice(&out[(r + 3) * n + col..][..8]);
                    for p in pb..pb + pw {
                        let a4 = &a[p * m + r..][..4];
                        let (v0, v1, v2, v3) = (a4[0], a4[1], a4[2], a4[3]);
                        let b8 = &b[p * n + col..][..8];
                        for l in 0..8 {
                            acc0[l] += v0 * b8[l];
                            acc1[l] += v1 * b8[l];
                            acc2[l] += v2 * b8[l];
                            acc3[l] += v3 * b8[l];
                        }
                    }
                    out[r * n + col..][..8].copy_from_slice(&acc0);
                    out[(r + 1) * n + col..][..8].copy_from_slice(&acc1);
                    out[(r + 2) * n + col..][..8].copy_from_slice(&acc2);
                    out[(r + 3) * n + col..][..8].copy_from_slice(&acc3);
                    j += 8;
                }
                if j < jw {
                    // Column remainder (< 8 wide): plain per-p accumulation.
                    for p in pb..pb + pw {
                        let a4 = &a[p * m + r..][..4];
                        let (v0, v1, v2, v3) = (a4[0], a4[1], a4[2], a4[3]);
                        let b_row = &b[p * n + jb + j..][..jw - j];
                        for (l, &bv) in b_row.iter().enumerate() {
                            out[r * n + jb + j + l] += v0 * bv;
                            out[(r + 1) * n + jb + j + l] += v1 * bv;
                            out[(r + 2) * n + jb + j + l] += v2 * bv;
                            out[(r + 3) * n + jb + j + l] += v3 * bv;
                        }
                    }
                }
                r += 4;
            }
            for r in r..rows {
                let o_row = &mut out[r * n + jb..][..jw];
                for p in pb..pb + pw {
                    let av = a[p * m + r];
                    let b_row = &b[p * n + jb..][..jw];
                    for (o, &bv) in o_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
        }
    }
}

/// `dot`'s ending: the eight lanes meet in a fixed tree, then the tail.
#[inline(always)]
fn reduce_lanes(lanes: &[f32; 8], tail: f32) -> f32 {
    let s04_15 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
    let s26_37 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
    (s04_15 + s26_37) + tail
}

/// Eight-lane dot product with a fixed reduction tree; deterministic and
/// autovectorizable (the lanes remove the serial dependence that blocks
/// LLVM from vectorizing a plain f32 accumulator).
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        for (lane, (&x, &y)) in lanes.iter_mut().zip(xa.iter().zip(xb)) {
            *lane += x * y;
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    reduce_lanes(&lanes, tail)
}

/// The two `dot`s of rows `a0` and `a1` with row `b`. Each eight-wide chunk
/// of `b` is loaded once and feeds both sums; each sum keeps `dot`'s own
/// lanes, tail and reduction tree, so it has `dot`'s bits.
#[inline]
fn dot_2x1(a0: &[f32], a1: &[f32], b: &[f32]) -> [f32; 2] {
    let ((ca0, ta0), (ca1, ta1)) = (a0.as_chunks::<8>(), a1.as_chunks::<8>());
    let (cb, tb) = b.as_chunks::<8>();
    let mut lanes = [[0.0f32; 8]; 2];
    for ((x0, x1), y) in ca0.iter().zip(ca1).zip(cb) {
        for l in 0..8 {
            lanes[0][l] += x0[l] * y[l];
            lanes[1][l] += x1[l] * y[l];
        }
    }
    let mut tail = [0.0f32; 2];
    for ((&x0, &x1), &y) in ta0.iter().zip(ta1).zip(tb) {
        tail[0] += x0 * y;
        tail[1] += x1 * y;
    }
    [reduce_lanes(&lanes[0], tail[0]), reduce_lanes(&lanes[1], tail[1])]
}

/// `out[r][j] = dot(a[r], b[j])` (a·bᵀ), two rows at a time ([`dot_2x1`],
/// so each row of `b` is read once per row pair), with `dot` for an odd
/// last row. Every element has `dot`'s bits whichever computes it. A 2×2
/// tile (two rows of `b` as well) and a 1×2 tile ran at about half of
/// `dot`'s speed at k = 32–401: LLVM vectorises their sums across outputs
/// instead of across lanes, with shuffles and spills.
fn matmul_nt_rows(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    // The row left over after the pairs, when the row count is odd.
    let odd_row = (out.len() / n) & !1;
    let a_row = |r: usize| &a[r * k..][..k];
    let b_row = |j: usize| &b[j * k..][..k];
    let mut pairs = out.chunks_exact_mut(2 * n);
    for (r2, o_pair) in pairs.by_ref().enumerate() {
        let (o0, o1) = o_pair.split_at_mut(n);
        let (a0, a1) = (a_row(2 * r2), a_row(2 * r2 + 1));
        for (j, (d0, d1)) in o0.iter_mut().zip(o1).enumerate() {
            [*d0, *d1] = dot_2x1(a0, a1, b_row(j));
        }
    }
    let last = pairs.into_remainder();
    if !last.is_empty() {
        let a_last = a_row(odd_row);
        for (j, o) in last.iter_mut().enumerate() {
            *o = dot(a_last, b_row(j));
        }
    }
}

/// [`matmul_nt_rows`] for `k == 8`, where every `dot` is one eight-lane
/// chunk: lane `p` is `+0.0 + a[p] * b[j][p]`, the lanes meet in the fixed
/// tree, and the empty tail adds `+0.0`. `bt` is `b` transposed (`8 × n`),
/// so the loop over a row's output columns reads each `bt` row contiguously
/// and vectorises, four columns to a vector register, each column in
/// exactly that order.
fn matmul_nt_rows_one_chunk(a: &[f32], bt: &[f32], out: &mut [f32], n: usize) {
    if n == 0 {
        return;
    }
    let bt_row = |p: usize| &bt[p * n..][..n];
    let (b0, b1, b2, b3) = (bt_row(0), bt_row(1), bt_row(2), bt_row(3));
    let (b4, b5, b6, b7) = (bt_row(4), bt_row(5), bt_row(6), bt_row(7));
    for (r, o_row) in out.chunks_exact_mut(n).enumerate() {
        let a_row = &a[r * 8..][..8];
        for (j, o) in o_row.iter_mut().enumerate() {
            let lane = |p: usize, bt_p: &[f32]| 0.0 + a_row[p] * bt_p[j];
            let s04_15 = (lane(0, b0) + lane(4, b4)) + (lane(1, b1) + lane(5, b5));
            let s26_37 = (lane(2, b2) + lane(6, b6)) + (lane(3, b3) + lane(7, b7));
            *o = (s04_15 + s26_37) + 0.0;
        }
    }
}

/// Dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a flat row-major vector (length must equal `rows*cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// All-zeros `rows×cols` matrix reusing `backing`'s allocation: the
    /// vector is cleared and zero-resized in place, so no heap allocation
    /// happens when its capacity already fits. The workhorse of
    /// [`crate::scratch::ScratchArena`].
    pub fn zeros_in(rows: usize, cols: usize, mut backing: Vec<f32>) -> Matrix {
        backing.clear();
        backing.resize(rows * cols, 0.0);
        Matrix { rows, cols, data: backing }
    }

    /// Consume the matrix, yielding its flat row-major backing vector (so
    /// the allocation can be recycled through [`Matrix::zeros_in`]).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Build elementwise from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` — (m×k)·(k×n) → m×n.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dims {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        nfm_obs::counter!("tensor.matmul.calls").inc();
        nfm_obs::counter!("tensor.matmul.macs", nfm_obs::Unit::Macs).add((m * k * n) as u64);
        let mut out = Matrix::zeros(m, n);
        matmul_rows(&self.data, &other.data, &mut out.data, k, n);
        out
    }

    /// `selfᵀ @ other` — (k×m)ᵀ·(k×n) → m×n, without materializing the
    /// transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn outer dims");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        nfm_obs::counter!("tensor.matmul_tn.calls").inc();
        nfm_obs::counter!("tensor.matmul.macs", nfm_obs::Unit::Macs).add((m * k * n) as u64);
        let mut out = Matrix::zeros(m, n);
        matmul_tn_rows(&self.data, &other.data, &mut out.data, k, m, n);
        out
    }

    /// `self @ otherᵀ` — (m×k)·(n×k)ᵀ → m×n. Every element has the bits of
    /// `dot` on its two rows. At `k = 8`, one eight-lane chunk (attention
    /// heads of eight dimensions), with at least `NT_ONE_CHUNK_ROWS_MIN`
    /// rows, `other` is first copied to its `8 × n` transpose, so a row's
    /// columns run four to a vector register instead of each paying `dot`'s
    /// horizontal reduction. Otherwise each element is its own `dot`, two
    /// rows of `self` at a time against each row of `other` (the backward
    /// input gradient `dy · Wᵀ` of every `Linear`): column kernels measured
    /// slower for several chunks, and the copy costs more than it saves on
    /// fewer rows.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt inner dims");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        nfm_obs::counter!("tensor.matmul_nt.calls").inc();
        nfm_obs::counter!("tensor.matmul.macs", nfm_obs::Unit::Macs).add((m * k * n) as u64);
        let mut out = Matrix::zeros(m, n);
        let (a, b) = (&self.data, &other.data);
        if k == 8 && m >= NT_ONE_CHUNK_ROWS_MIN {
            let mut bt = vec![0.0; 8 * n];
            for j in 0..n {
                for p in 0..8 {
                    bt[p * n + j] = b[j * 8 + p];
                }
            }
            matmul_nt_rows_one_chunk(a, &bt, &mut out.data, n);
        } else {
            matmul_nt_rows(a, b, &mut out.data, k, n);
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise `self -= other`.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// Add `bias` (length `cols`) to every row.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        if self.cols == 0 {
            return;
        }
        for row in self.data.chunks_mut(self.cols) {
            for (a, &b) in row.iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Multiply all elements by `s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&x| f(x)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise `f(self, other)` into a new matrix.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self.data.iter().zip(&other.data).map(|(&x, &y)| f(x, y)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Numerically-stable softmax applied to each row in place.
    pub fn softmax_rows(&mut self) {
        if self.cols == 0 {
            return;
        }
        for row in self.data.chunks_mut(self.cols) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }

    /// Index of the max element in each row. NaN entries compare as
    /// negative infinity; ties keep the lowest index, so an all-NaN row
    /// yields index 0 rather than panicking.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let mut best = 0usize;
                let mut best_v = f32::NEG_INFINITY;
                for (i, &v) in self.row(r).iter().enumerate() {
                    if v > best_v {
                        best_v = v;
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Frobenius norm (fixed-shard reduction: the value is identical at
    /// every thread count).
    pub fn norm(&self) -> f32 {
        pool::sum_sq(&self.data).sqrt()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Extract a contiguous block of rows as a new matrix.
    pub fn rows_slice(&self, start: usize, count: usize) -> Matrix {
        assert!(start + count <= self.rows);
        Matrix {
            rows: count,
            cols: self.cols,
            data: self.data[start * self.cols..(start + count) * self.cols].to_vec(),
        }
    }

    /// Stack matrices with equal column counts vertically.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty());
        let cols = parts[0].cols;
        let rows = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }
}

/// Cosine similarity between two equal-length vectors (0 when degenerate).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_known_values() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transposed_matmuls_agree_with_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 4, &[1., 0., 2., 1., 0., 1., 1., 2., 3., 1., 0., 1.]);
        let tn = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        assert_eq!(tn.data(), explicit.data());

        let c = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let d = m(4, 3, &[1., 0., 2., 1., 0., 1., 1., 2., 3., 0., 1., 1.]);
        let nt = c.matmul_nt(&d);
        let explicit = c.matmul(&d.transpose());
        assert_eq!(nt.data(), explicit.data());
    }

    #[test]
    fn softmax_rows_sane() {
        let mut x = m(2, 3, &[1., 2., 3., 1000., 1000., 1000.]);
        x.softmax_rows();
        for r in 0..2 {
            let s: f32 = x.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Large equal logits don't overflow (stability) and give uniform.
        assert!((x.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
        assert!(x.get(0, 2) > x.get(0, 1));
    }

    #[test]
    fn broadcast_and_elementwise() {
        let mut x = Matrix::zeros(2, 3);
        x.add_row_broadcast(&[1., 2., 3.]);
        assert_eq!(x.row(1), &[1., 2., 3.]);
        let y = x.map(|v| v * 2.0);
        assert_eq!(y.row(0), &[2., 4., 6.]);
        let h = x.zip_map(&y, |a, b| a * b);
        assert_eq!(h.row(0), &[2., 8., 18.]);
        let mut z = x.clone();
        z.sub_assign(&x);
        assert_eq!(z.norm(), 0.0);
    }

    #[test]
    fn argmax_and_stats() {
        let x = m(2, 3, &[0.1, 0.9, 0.0, 5.0, -1.0, 2.0]);
        assert_eq!(x.argmax_rows(), vec![1, 0]);
        assert!((x.mean() - (0.1 + 0.9 + 0.0 + 5.0 - 1.0 + 2.0) / 6.0).abs() < 1e-6);
        assert!(x.is_finite());
        let bad = m(1, 1, &[f32::NAN]);
        assert!(!bad.is_finite());
    }

    #[test]
    fn argmax_treats_nan_as_negative_infinity() {
        // NaN entries lose to any finite value; an all-NaN row falls back
        // to index 0; ties keep the lowest index.
        let x = m(3, 3, &[f32::NAN, 2.0, 1.0, f32::NAN, f32::NAN, f32::NAN, 4.0, 4.0, 4.0]);
        assert_eq!(x.argmax_rows(), vec![1, 0, 0]);
        let neg = m(1, 2, &[f32::NEG_INFINITY, -1.0]);
        assert_eq!(neg.argmax_rows(), vec![1]);
    }

    #[test]
    fn rows_slice_and_vstack_inverse() {
        let x = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let top = x.rows_slice(0, 1);
        let rest = x.rows_slice(1, 2);
        let back = Matrix::vstack(&[&top, &rest]);
        assert_eq!(back.data(), x.data());
    }

    #[test]
    fn cosine_identities() {
        assert!((cosine(&[1., 0.], &[1., 0.]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1., 0.], &[0., 1.])).abs() < 1e-6);
        assert!((cosine(&[1., 1.], &[-1., -1.]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0., 0.], &[1., 1.]), 0.0);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    fn int_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 7 + salt) % 13) as f32 - 6.0)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// `matmul`'s and `matmul_tn`'s per-element order: `out[i][j]` starts
    /// at zero and adds `a[i][p] * b[p][j]` for `p` ascending.
    fn ascending_p(a: &Matrix, b: &Matrix) -> Vec<f32> {
        let (m_, k_, n_) = (a.rows(), a.cols(), b.cols());
        let mut out = vec![0.0f32; m_ * n_];
        for i in 0..m_ {
            for j in 0..n_ {
                let mut acc = 0.0f32;
                for p in 0..k_ {
                    acc += a.get(i, p) * b.get(p, j);
                }
                out[i * n_ + j] = acc;
            }
        }
        out
    }

    /// `matmul_nt`'s per-element order (its `dot`): lane `l` adds the
    /// products at `p ≡ l (mod 8)` ascending over the whole eight-wide
    /// chunks, a tail adds the rest, then
    /// `((l0 + l4) + (l1 + l5)) + ((l2 + l6) + (l3 + l7)) + tail`.
    fn eight_lanes(a_row: &[f32], b_row: &[f32]) -> f32 {
        let full = a_row.len() - a_row.len() % 8;
        let mut lanes = [0.0f32; 8];
        for p in 0..full {
            lanes[p % 8] += a_row[p] * b_row[p];
        }
        let mut tail = 0.0f32;
        for p in full..a_row.len() {
            tail += a_row[p] * b_row[p];
        }
        let l = lanes;
        (((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7]))) + tail
    }

    #[test]
    fn gemm_kernels_follow_their_documented_accumulation_order() {
        use rand::SeedableRng;
        // Random non-integer data: unlike small integers, its partial sums
        // round, so any reordering of an element's sum changes its bits.
        // The shapes (m, k, n) straddle the 4-row and 8-column register
        // tiles, TILE_K and TILE_N (5×70·70×300).
        // matmul_nt runs its column kernel only at k = 8 with four rows or
        // more: (26, 6, 26) is `dot`'s tail alone, as in the golden
        // digests' heads; (7, 8, 1), (5, 8, 3) and (9, 8, 6) have fewer
        // than four columns or a column remainder; (3, 8, 26) has one row
        // too few; (26, 9, 26) and (6, 16, 5) sit just past k = 8. Every
        // other matmul_nt shape runs `dot`s two rows at a time, with `dot`
        // alone for an odd last row; the last eight give it one to three
        // rows, odd rows and columns, a single column, and k of 16, 24, 64
        // and 401 (a one-element tail).
        let shapes = [
            (1, 1, 1),
            (5, 3, 9),
            (3, 70, 5),
            (26, 8, 26),
            (62, 8, 62),
            (13, 70, 37),
            (17, 33, 65),
            (7, 64, 33),
            (40, 130, 12),
            (5, 70, 300),
            (130, 520, 500),
            (26, 6, 26),
            (7, 8, 1),
            (5, 8, 3),
            (9, 8, 6),
            (3, 8, 26),
            (26, 9, 26),
            (6, 16, 5),
            (1, 16, 7),
            (2, 24, 5),
            (3, 64, 9),
            (2, 64, 1),
            (3, 401, 33),
            (1, 401, 2),
            (7, 24, 13),
            (9, 401, 64),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for (m_, k_, n_) in shapes {
            let a = crate::init::normal(&mut rng, m_, k_, 1.0);
            let b = crate::init::normal(&mut rng, k_, n_, 1.0);
            let want = bits(&ascending_p(&a, &b));
            assert_eq!(bits(a.matmul(&b).data()), want, "matmul {m_}x{k_}·{k_}x{n_}");
            // Transposing copies values exactly, so aᵀ's matmul_tn must
            // give the same bits.
            let got_tn = a.transpose().matmul_tn(&b);
            assert_eq!(bits(got_tn.data()), want, "matmul_tn {m_}x{k_}·{k_}x{n_}");
            let bt = b.transpose();
            let want_nt: Vec<f32> = (0..m_)
                .flat_map(|i| (0..n_).map(move |j| (i, j)))
                .map(|(i, j)| eight_lanes(a.row(i), bt.row(j)))
                .collect();
            let got_nt = a.matmul_nt(&bt);
            assert_eq!(bits(got_nt.data()), bits(&want_nt), "matmul_nt {m_}x{k_}·{k_}x{n_}");
        }
        // Products that are all -0.0: the lanes and the tail start at
        // +0.0, so every element is +0.0, on both sides of the switch.
        // Random normal data never makes an exact zero.
        for k_ in [3, 8, 11] {
            let a = Matrix::zeros(5, k_);
            let b = Matrix::from_fn(6, k_, |r, c| -1.0 - (r + c) as f32);
            let got = a.matmul_nt(&b);
            assert!(got.data().iter().all(|v| v.to_bits() == 0), "matmul_nt -0.0 at k = {k_}");
            assert_eq!(eight_lanes(a.row(0), b.row(0)).to_bits(), 0);
        }
    }

    #[test]
    fn zeros_in_recycles_backing_without_reallocating() {
        let big = Matrix::zeros(8, 16);
        let backing = big.into_data();
        let ptr = backing.as_ptr();
        let m = Matrix::zeros_in(4, 5, backing);
        assert_eq!((m.rows(), m.cols()), (4, 5));
        assert!(m.data().iter().all(|&v| v == 0.0));
        assert_eq!(m.data().as_ptr(), ptr, "capacity was large enough: no realloc");
    }

    #[test]
    fn matmul_is_thread_count_invariant() {
        let a = int_matrix(64, 96, 3);
        let b = int_matrix(96, 80, 4);
        pool::set_threads(1);
        let c1 = a.matmul(&b);
        let tn1 = a.transpose().matmul_tn(&b);
        let nt1 = a.matmul_nt(&b.transpose());
        let mut s1 = c1.clone();
        s1.softmax_rows();
        let t1 = c1.transpose();
        pool::set_threads(4);
        let c4 = a.matmul(&b);
        let tn4 = a.transpose().matmul_tn(&b);
        let nt4 = a.matmul_nt(&b.transpose());
        let mut s4 = c4.clone();
        s4.softmax_rows();
        let t4 = c4.transpose();
        pool::set_threads(0);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c1), bits(&c4), "matmul");
        assert_eq!(bits(&tn1), bits(&tn4), "matmul_tn");
        assert_eq!(bits(&nt1), bits(&nt4), "matmul_nt");
        assert_eq!(bits(&s1), bits(&s4), "softmax_rows");
        assert_eq!(bits(&t1), bits(&t4), "transpose");
    }
}
