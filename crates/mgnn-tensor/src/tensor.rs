//! Row-major 2-D `f32` tensor with rayon-parallel matrix products.

use rayon::prelude::*;
use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled `rows × cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Construct from a row-major buffer. Panics on shape mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor shape mismatch");
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the raw row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the raw row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, recovering the raw row-major buffer (and its
    /// capacity) — the recycling path of the `PreparedBatch` pool.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Set element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Rows per parallel row block in the matmul family. Blocks keep
    /// the streamed `rhs` panel hot in cache across nearby output rows
    /// and amortize task dispatch.
    const MATMUL_RB: usize = 16;

    /// Matrix product `self · rhs` (`m×k · k×n → m×n`), parallel over
    /// row blocks and register-tiled over output columns.
    ///
    /// Each output row is computed in column tiles (up to 32 wide) held
    /// in registers while `k` ascends, so every output element is summed
    /// from `+0.0` in ascending-`k` order with `a == 0.0` terms skipped —
    /// bitwise-identical to the naive `i-k-j` loop at any thread count.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0f32; m * n];
        if m == 0 || n == 0 {
            return Tensor::from_vec(m, n, out);
        }
        out.par_chunks_mut(n * Self::MATMUL_RB)
            .enumerate()
            .for_each(|(blk, oblock)| {
                let i0 = blk * Self::MATMUL_RB;
                let mut nonzeros = Vec::new();
                for (r, orow) in oblock.chunks_mut(n).enumerate() {
                    let i = i0 + r;
                    let arow = &self.data[i * k..(i + 1) * k];
                    sweep_row(orow, arow.iter().copied(), &rhs.data, false, &mut nonzeros);
                }
            });
        Tensor::from_vec(m, n, out)
    }

    /// `selfᵀ · rhs` (`k×m ᵀ · k×n → m×n`) without materializing the
    /// transpose — the gradient-of-weights product in linear backward.
    ///
    /// The shared `k` axis is cut into the length-only chunk grid of
    /// [`rayon::pool::chunk_len`]. Each chunk's partial is summed from
    /// `+0.0` in ascending row order (skipping `a == 0.0`) in registers,
    /// and the partials are combined in chunk order,
    /// `((p0 + p1) + p2) + …`. Output row blocks run in parallel, so
    /// the result does not depend on the thread count.
    pub fn t_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "t_matmul shape mismatch");
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0f32; m * n];
        if m == 0 || n == 0 {
            return Tensor::from_vec(m, n, out);
        }
        let cl = rayon::pool::chunk_len(k);
        out.par_chunks_mut(n * Self::MATMUL_RB)
            .enumerate()
            .for_each(|(blk, oblock)| {
                let i0 = blk * Self::MATMUL_RB;
                let mut nonzeros = Vec::new();
                for lo in (0..k).step_by(cl) {
                    let hi = (lo + cl).min(k);
                    let brows = &rhs.data[lo * n..hi * n];
                    for (r, orow) in oblock.chunks_mut(n).enumerate() {
                        let acol = (lo..hi).map(|kk| self.data[kk * m + i0 + r]);
                        sweep_row(orow, acol, brows, lo > 0, &mut nonzeros);
                    }
                }
            });
        Tensor::from_vec(m, n, out)
    }

    /// `self · rhsᵀ` (`m×k · n×k ᵀ → m×n`) — the gradient-of-input product.
    ///
    /// Row-block parallel; each dot product uses a fixed 4-lane
    /// unrolled accumulation (combined as `(s0+s1)+(s2+s3)+tail`), so
    /// the result is deterministic at any thread count.
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.cols, "matmul_t shape mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        let mut out = vec![0.0f32; m * n];
        if m == 0 || n == 0 {
            return Tensor::from_vec(m, n, out);
        }
        out.par_chunks_mut(n * Self::MATMUL_RB)
            .enumerate()
            .for_each(|(blk, oblock)| {
                let i0 = blk * Self::MATMUL_RB;
                for (r, orow) in oblock.chunks_mut(n).enumerate() {
                    let i = i0 + r;
                    let arow = &self.data[i * k..(i + 1) * k];
                    for (j, o) in orow.iter_mut().enumerate() {
                        let brow = &rhs.data[j * k..(j + 1) * k];
                        *o = dot_unrolled(arow, brow);
                    }
                }
            });
        Tensor::from_vec(m, n, out)
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Elementwise addition in place.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape());
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Scale every element in place.
    pub fn scale(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Add `row` (length `cols`) to every row — bias broadcast.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols);
        for r in self.data.chunks_mut(self.cols) {
            for (a, &b) in r.iter_mut().zip(row) {
                *a += b;
            }
        }
    }

    /// Sum over rows, producing a length-`cols` vector — bias gradient.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for r in self.data.chunks(self.cols) {
            for (o, &v) in out.iter_mut().zip(r) {
                *o += v;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Concatenate two tensors with equal row counts along columns.
    pub fn concat_cols(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows);
        let cols = self.cols + rhs.cols;
        let mut out = Tensor::zeros(self.rows, cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(rhs.row(i));
        }
        out
    }

    /// Split columns at `at`, inverse of [`Tensor::concat_cols`].
    pub fn split_cols(&self, at: usize) -> (Tensor, Tensor) {
        assert!(at <= self.cols);
        let mut a = Tensor::zeros(self.rows, at);
        let mut b = Tensor::zeros(self.rows, self.cols - at);
        for i in 0..self.rows {
            a.row_mut(i).copy_from_slice(&self.row(i)[..at]);
            b.row_mut(i).copy_from_slice(&self.row(i)[at..]);
        }
        (a, b)
    }
}

/// Output-column tile width of the register-tiled kernels: 32 `f32`
/// lanes are eight independent 4-wide add chains, enough to cover the
/// add latency without spilling the accumulator.
const TILE_W: usize = 32;

/// `orow (=|+=) Σ_kk a_kk · b[kk, ·]` over ascending `kk`, skipping
/// every `a_kk == 0.0` term. `a` yields one coefficient per row of `b`
/// (row length `orow.len()`); with `accumulate` the sum is added onto
/// `orow` (one `+=` per element), otherwise it overwrites it.
///
/// The coefficients are counted first. If all are nonzero, the rows of
/// `b` are streamed as they are. Otherwise the nonzero `(kk, a_kk)`
/// pairs are compacted into `nonzeros` without branching, so the tile
/// loops never branch on a coefficient and a ReLU-sparse row costs no
/// mispredicts per tile. Either way each element is summed from `+0.0`
/// over the same terms in the same order as the naive loop.
#[inline]
fn sweep_row<I>(
    orow: &mut [f32],
    a: I,
    b: &[f32],
    accumulate: bool,
    nonzeros: &mut Vec<(usize, f32)>,
) where
    I: ExactSizeIterator<Item = f32> + Clone,
{
    let n = orow.len();
    let len = a.len();
    if a.clone().filter(|&v| v != 0.0).count() == len {
        row_tiles(orow, a.zip(b.chunks_exact(n)), accumulate);
        return;
    }
    if nonzeros.len() < len {
        nonzeros.resize(len, (0, 0.0));
    }
    let mut nnz = 0;
    for (kk, v) in a.enumerate() {
        nonzeros[nnz] = (kk, v);
        nnz += usize::from(v != 0.0);
    }
    let terms = nonzeros[..nnz]
        .iter()
        .map(|&(kk, v)| (v, &b[kk * n..(kk + 1) * n]));
    row_tiles(orow, terms, accumulate);
}

/// Sweep one output row in register tiles. `terms` yields `(a, b_row)`
/// pairs, all with `a != 0.0`; each tile's accumulator lives in
/// registers for the whole sweep.
///
/// Full [`TILE_W`] tiles come first. The remainder is covered by the
/// narrowest tile that spans it and fits in the row, ending at the last
/// column: it recomputes a few columns already written and drops those
/// lanes, so `n = 47` takes two tiles instead of six. Only a row
/// narrower than that tile falls back to the widest tiles that fit.
#[inline]
fn row_tiles<'b, I>(orow: &mut [f32], terms: I, accumulate: bool)
where
    I: Iterator<Item = (f32, &'b [f32])> + Clone,
{
    let n = orow.len();
    let mut j0 = 0;
    while n - j0 >= TILE_W {
        store_tile(TILE_W, orow, j0, 0, terms.clone(), accumulate);
        j0 += TILE_W;
    }
    while j0 < n {
        let left = n - j0;
        let cover = TILE_WIDTHS.into_iter().rev().find(|&c| c >= left && c <= n);
        if let Some(c) = cover {
            store_tile(c, orow, n - c, c - left, terms, accumulate);
            return;
        }
        let w = TILE_WIDTHS.into_iter().find(|&w| w <= left).unwrap_or(1);
        store_tile(w, orow, j0, 0, terms.clone(), accumulate);
        j0 += w;
    }
}

/// Register-tile widths, widest first.
const TILE_WIDTHS: [usize; 5] = [TILE_W, 16, 8, 4, 1];

/// Dispatch a `width`-column tile (one of [`TILE_WIDTHS`]) to
/// [`store_tile_w`].
#[inline(always)]
fn store_tile<'b>(
    width: usize,
    orow: &mut [f32],
    j0: usize,
    skip: usize,
    terms: impl Iterator<Item = (f32, &'b [f32])>,
    accumulate: bool,
) {
    match width {
        TILE_W => store_tile_w::<TILE_W>(orow, j0, skip, terms, accumulate),
        16 => store_tile_w::<16>(orow, j0, skip, terms, accumulate),
        8 => store_tile_w::<8>(orow, j0, skip, terms, accumulate),
        4 => store_tile_w::<4>(orow, j0, skip, terms, accumulate),
        _ => store_tile_w::<1>(orow, j0, skip, terms, accumulate),
    }
}

/// One `W`-wide register tile at columns `j0..j0 + W`: every lane
/// starts at `+0.0` and adds `a · b_row[j]` term by term. Lanes below
/// `skip` are computed but not stored.
#[inline(always)]
fn store_tile_w<'b, const W: usize>(
    orow: &mut [f32],
    j0: usize,
    skip: usize,
    terms: impl Iterator<Item = (f32, &'b [f32])>,
    accumulate: bool,
) {
    let mut acc = [0.0f32; W];
    for (av, brow) in terms {
        let bt: &[f32; W] = brow[j0..j0 + W].try_into().expect("tile within row");
        for (s, &bv) in acc.iter_mut().zip(bt) {
            *s += av * bv;
        }
    }
    let dst = &mut orow[j0 + skip..j0 + W];
    if accumulate {
        for (d, s) in dst.iter_mut().zip(&acc[skip..]) {
            *d += s;
        }
    } else {
        dst.copy_from_slice(&acc[skip..]);
    }
}

/// Dot product with four independent accumulator lanes and a fixed
/// combine order `(s0+s1)+(s2+s3)+tail` — deterministic and unlocks
/// instruction-level parallelism the single-accumulator loop serializes
/// on the FP add latency chain.
#[inline]
fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        for l in 0..4 {
            lanes[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}×{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = t(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 4, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let via_fused = a.t_matmul(&b);
        let via_explicit = a.transpose().matmul(&b);
        for (x, y) in via_fused.data().iter().zip(via_explicit.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(4, 3, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let via_fused = a.matmul_t(&b);
        let via_explicit = a.matmul(&b.transpose());
        for (x, y) in via_fused.data().iter().zip(via_explicit.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn broadcast_and_sum_rows_are_adjoint() {
        let mut x = Tensor::zeros(3, 2);
        x.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(x.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        assert_eq!(x.sum_rows(), vec![3.0, 6.0]);
    }

    #[test]
    fn concat_split_round_trip() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = t(2, 1, &[5.0, 6.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        let (a2, b2) = c.split_cols(2);
        assert_eq!(a2, a);
        assert_eq!(b2, b);
    }

    #[test]
    fn scale_and_norm() {
        let mut a = t(1, 2, &[3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        a.scale(2.0);
        assert_eq!(a.data(), &[6.0, 8.0]);
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        a.matmul(&b);
    }

    #[test]
    fn zero_sized() {
        let a = Tensor::zeros(0, 5);
        let b = Tensor::zeros(5, 2);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (0, 2));
    }

    /// Pseudo-random but deterministic fill (no RNG dep in this crate).
    fn filled(rows: usize, cols: usize, salt: u32) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| {
                let h = (i as u32).wrapping_add(salt).wrapping_mul(2654435761);
                ((h % 97) as f32 - 48.0) / 16.0
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// Like [`filled`], but with full-mantissa values: sums of
    /// [`filled`]'s sixteenths are exact in any order, so they cannot
    /// tell one summation order from another; these round.
    fn rounding(rows: usize, cols: usize, salt: u32) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| {
                let h = (i as u32).wrapping_add(salt).wrapping_mul(2654435761);
                (h % 100_003) as f32 / 7_919.3 - 6.3
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// [`rounding`] with every third element set to `0.0`, the pattern
    /// a ReLU leaves behind, so the `a == 0.0` skip is exercised.
    fn relu_sparse(rows: usize, cols: usize, salt: u32) -> Tensor {
        let mut t = rounding(rows, cols, salt);
        t.data_mut().iter_mut().step_by(3).for_each(|v| *v = 0.0);
        t
    }

    fn bitwise_eq(x: &[f32], y: &[f32]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// `(rows, k)` shapes straddling the RB=16 row blocks and the
    /// 64-chunk `k` grid, and output widths covering every tile width
    /// and the overlapping remainder tile.
    const PIN_SHAPES: &[(usize, usize)] = &[(1, 1), (15, 17), (16, 256), (17, 257), (40, 300)];
    const PIN_WIDTHS: &[usize] = &[1, 3, 5, 7, 15, 16, 17, 19, 33, 47, 64];

    /// The register-tiled kernel must be *bitwise* identical to the
    /// naive ascending-k triple loop — tiling reorders loops, not the
    /// per-element accumulation — for dense and ReLU-sparse inputs.
    #[test]
    fn tiled_matmul_bitwise_matches_naive() {
        for &(m, k) in PIN_SHAPES {
            for &n in PIN_WIDTHS {
                for a in [rounding(m, k, 1), relu_sparse(m, k, 1)] {
                    let b = rounding(k, n, 2);
                    let mut naive = vec![0.0f32; m * n];
                    for i in 0..m {
                        for kk in 0..k {
                            let av = a.get(i, kk);
                            if av == 0.0 {
                                continue;
                            }
                            for j in 0..n {
                                naive[i * n + j] += av * b.get(kk, j);
                            }
                        }
                    }
                    assert!(
                        bitwise_eq(a.matmul(&b).data(), &naive),
                        "tiled matmul diverged at m={m} k={k} n={n}"
                    );
                }
            }
        }
    }

    /// `t_matmul` must equal, bit for bit, the chunked fold/reduce it
    /// replaced: per-chunk partials over the `rayon::pool::chunk_len`
    /// grid, each summed from 0 in row order (skipping `a == 0.0`),
    /// combined in chunk order.
    #[test]
    fn t_matmul_bitwise_matches_chunked_fold() {
        for &(m, k) in PIN_SHAPES {
            for &n in PIN_WIDTHS {
                for a in [rounding(k, m, 3), relu_sparse(k, m, 3)] {
                    let b = rounding(k, n, 4);
                    let cl = rayon::pool::chunk_len(k);
                    let mut reference: Option<Vec<f32>> = None;
                    for lo in (0..k).step_by(cl) {
                        let mut part = vec![0.0f32; m * n];
                        for kk in lo..(lo + cl).min(k) {
                            for i in 0..m {
                                let av = a.get(kk, i);
                                if av == 0.0 {
                                    continue;
                                }
                                for j in 0..n {
                                    part[i * n + j] += av * b.get(kk, j);
                                }
                            }
                        }
                        reference = Some(match reference {
                            None => part,
                            Some(mut acc) => {
                                acc.iter_mut().zip(&part).for_each(|(x, y)| *x += y);
                                acc
                            }
                        });
                    }
                    let reference = reference.unwrap_or_else(|| vec![0.0; m * n]);
                    assert!(
                        bitwise_eq(a.t_matmul(&b).data(), &reference),
                        "t_matmul diverged at k={k} m={m} n={n}"
                    );
                }
            }
        }
    }

    /// Thread-count independence: the matmul family must return
    /// bitwise-identical outputs when forced onto one thread.
    #[test]
    fn matmul_family_identical_across_thread_caps() {
        let a = filled(37, 129, 3);
        let b = filled(129, 19, 4);
        let at = a.transpose(); // 129×37, so atᵀ·b is valid for t_matmul
        let bt = b.transpose(); // 19×129, so a·btᵀ is valid for matmul_t
        let (mm, tm, mt) =
            rayon::pool::with_max_threads(1, || (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt)));
        assert_eq!(mm, a.matmul(&b));
        assert_eq!(tm, at.t_matmul(&b));
        assert_eq!(mt, a.matmul_t(&bt));
    }
}
