//! Linear algebra, reductions and vector geometry on [`Tensor`].

use crate::{Result, Tensor, TensorError};

/// A read-only `rows × cols` matrix over a flat buffer: element `(i, p)`
/// is `data[i · row_stride + p · col_stride]`.
///
/// [`MatRef::new`] views a row-major buffer; [`MatRef::transposed`] views
/// the transpose of one without copying it. This is the left operand of
/// [`matmul_into`], which reads it one element at a time, so either layout
/// costs the same.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl<'a> MatRef<'a> {
    /// The row-major `rows × cols` matrix in `data`.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len() == rows · cols`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix buffer length");
        MatRef {
            data,
            rows,
            cols,
            row_stride: cols,
            col_stride: 1,
        }
    }

    /// The `rows × cols` transpose of the row-major `cols × rows` matrix in
    /// `data`.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len() == rows · cols`.
    pub fn transposed(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix buffer length");
        MatRef {
            data,
            rows,
            cols,
            row_stride: 1,
            col_stride: rows,
        }
    }

    fn at(&self, i: usize, p: usize) -> f32 {
        self.data[i * self.row_stride + p * self.col_stride]
    }
}

/// Rows of `a` per register tile of the tiled kernel.
const MR: usize = 4;
/// Columns of `b` per register tile of the tiled kernel.
const NR: usize = 8;
/// Largest right operand, in elements, the tiled kernel takes (256 KiB,
/// well inside a per-core L2). Its column strips revisit every row of `b`
/// once per row tile, which pays while `b` stays cached; a larger `b` is
/// streamed row by row instead.
const TILE_MAX_RHS: usize = 64 * 1024;

/// `out = a · b` for an `m × k` matrix `a`, where `b` is a row-major
/// `k × n` matrix and `out` a row-major `m × n` buffer, overwritten.
///
/// Every output element is the sum, in increasing `p` and starting from
/// `+0.0`, of the products `a[i][p] · b[p][j]` with `a[i][p] ≠ 0`, each
/// product rounded before it is added (Rust never fuses a multiply-add).
/// That is the textbook loop, and the result is bit-identical to it
/// whichever of the two kernels runs:
///
/// * **Register-tiled**, when `b` is small (at most 64 Ki elements) and
///   finite: a 4 × 8 tile of accumulators stays in registers across the
///   whole `p` loop. It adds every product, the skipped ones included.
///   That changes no bit: an accumulator that starts at `+0.0` can never
///   become `−0.0` under round-to-nearest (an exact zero sum of non-zero
///   terms is `+0.0`), so adding `±0 · b`, which is `±0` for a finite
///   `b`, leaves it unchanged.
/// * **Streaming** otherwise: the `i-p-j` loop that skips `a[i][p] = 0`.
///   It is exact for non-finite `b` (where `0 · ∞` would be NaN) and
///   reads a large `b` front to back, which its prefetch-friendly order
///   handles better than column strips.
///
/// # Panics
///
/// Panics unless `b.len() == k · n` and `out.len() == m · n`.
pub fn matmul_into(a: MatRef<'_>, b: &[f32], n: usize, out: &mut [f32]) {
    let (m, k) = (a.rows, a.cols);
    assert_eq!(b.len(), k * n, "right operand length");
    assert_eq!(out.len(), m * n, "output length");
    if n == 0 {
        return;
    }
    if k * n <= TILE_MAX_RHS && all_finite(b) {
        matmul_tiled(a, b, n, out);
    } else {
        matmul_streaming(a, b, n, out);
    }
}

/// Whether no element is NaN or ±∞ (all-ones exponent), as one
/// branch-free pass the compiler vectorises.
fn all_finite(v: &[f32]) -> bool {
    const EXP: u32 = 0x7f80_0000;
    !v.iter()
        .fold(false, |any, x| any | (x.to_bits() & EXP == EXP))
}

fn matmul_streaming(a: MatRef<'_>, b: &[f32], n: usize, out: &mut [f32]) {
    out.fill(0.0);
    for (i, orow) in out.chunks_exact_mut(n).enumerate() {
        for (p, brow) in b.chunks_exact(n).enumerate() {
            let av = a.at(i, p);
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

fn matmul_tiled(a: MatRef<'_>, b: &[f32], n: usize, out: &mut [f32]) {
    let (m, k) = (a.rows, a.cols);
    // The row tile's slice of `a`, packed p-major so the kernel reads it
    // front to back whatever `a`'s layout.
    let mut panel = Vec::with_capacity(k * MR);
    let mut i = 0;
    while i < m {
        let rows = (m - i).min(MR);
        panel.clear();
        for p in 0..k {
            panel.extend((i..i + rows).map(|r| a.at(r, p)));
        }
        let tile = &mut out[i * n..(i + rows) * n];
        match rows {
            4 => row_tile::<4>(&panel, b, n, tile),
            3 => row_tile::<3>(&panel, b, n, tile),
            2 => row_tile::<2>(&panel, b, n, tile),
            _ => row_tile::<1>(&panel, b, n, tile),
        }
        i += rows;
    }
}

/// One row tile of [`matmul_tiled`]: `R` rows of the output, in column
/// strips of `NR` (the last strip zero-padded).
fn row_tile<const R: usize>(panel: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    let mut j = 0;
    while j < n {
        let w = (n - j).min(NR);
        // Accumulators are indexed only by constants, so they stay in
        // registers across the `p` loop.
        let mut acc = [[0.0f32; NR]; R];
        if w == NR {
            for (ap, brow) in panel.chunks_exact(R).zip(b.chunks_exact(n)) {
                let bv: &[f32; NR] = brow[j..j + NR].try_into().expect("strip is NR wide");
                madd::<R>(&mut acc, ap, bv);
            }
        } else {
            for (ap, brow) in panel.chunks_exact(R).zip(b.chunks_exact(n)) {
                let bv = std::array::from_fn(|c| brow.get(j + c).copied().unwrap_or(0.0));
                madd::<R>(&mut acc, ap, &bv);
            }
        }
        for (acc_r, orow) in acc.iter().zip(out.chunks_exact_mut(n)) {
            if w == NR {
                orow[j..j + NR].copy_from_slice(acc_r);
            } else {
                for (c, &v) in acc_r.iter().enumerate().take(w) {
                    orow[j + c] = v;
                }
            }
        }
        j += w;
    }
}

#[inline(always)]
fn madd<const R: usize>(acc: &mut [[f32; NR]; R], ap: &[f32], bv: &[f32; NR]) {
    for r in 0..R {
        let av = ap[r];
        for c in 0..NR {
            acc[r][c] += av * bv[c];
        }
    }
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `(m×k) · (k×n) → (m×n)`,
    /// computed by [`matmul_into`] (whose doc states the exact summation
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank 2
    /// and [`TensorError::MatmulDimMismatch`] when inner dimensions differ.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: other.rank(),
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            });
        }
        let mut out = vec![0.0f32; m * n];
        matmul_into(
            MatRef::new(self.as_slice(), m, k),
            other.as_slice(),
            n,
            &mut out,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for empty tensors.
    pub fn mean(&self) -> Result<f32> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        Ok(self.sum() / self.len() as f32)
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for empty tensors.
    pub fn max(&self) -> Result<f32> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        Ok(self
            .as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max))
    }

    /// Minimum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for empty tensors.
    pub fn min(&self) -> Result<f32> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        Ok(self
            .as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min))
    }

    /// Index of the maximum element in the flat buffer (first on ties).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for empty tensors.
    pub fn argmax(&self) -> Result<usize> {
        if self.is_empty() {
            return Err(TensorError::Empty);
        }
        let mut best = 0usize;
        let mut best_v = self.as_slice()[0];
        for (i, &v) in self.as_slice().iter().enumerate().skip(1) {
            if v > best_v {
                best = i;
                best_v = v;
            }
        }
        Ok(best)
    }

    /// Inner product of two same-shape tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn dot(&self, other: &Self) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Euclidean (L2) norm of the tensor viewed as a flat vector.
    ///
    /// Uses `f64` accumulation: parameter vectors here have millions of
    /// coordinates, and `f32` accumulation loses several digits at that size.
    pub fn norm(&self) -> f32 {
        self.as_slice()
            .iter()
            .map(|&a| (a as f64) * (a as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Squared Euclidean norm (avoids the square root).
    pub fn norm_sq(&self) -> f32 {
        self.as_slice()
            .iter()
            .map(|&a| (a as f64) * (a as f64))
            .sum::<f64>() as f32
    }

    /// Euclidean distance between two same-shape tensors.
    ///
    /// This is the metric Multi-Krum scores are built from.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn distance(&self, other: &Self) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum::<f64>()
            .sqrt() as f32)
    }

    /// Cosine similarity `⟨a,b⟩ / (‖a‖‖b‖)`, the quantity reported in the
    /// paper's Table 2 (alignment of difference vectors).
    ///
    /// Returns 0 when either vector is zero.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn cosine_similarity(&self, other: &Self) -> Result<f32> {
        let dot = self.dot(other)? as f64;
        let na = self.norm() as f64;
        let nb = other.norm() as f64;
        if na == 0.0 || nb == 0.0 {
            return Ok(0.0);
        }
        Ok((dot / (na * nb)) as f32)
    }

    /// Arithmetic mean of a non-empty slice of same-shape tensors — the
    /// vulnerable "vanilla" aggregation the paper contrasts against.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty slice and
    /// [`TensorError::ShapeMismatch`] if shapes disagree.
    pub fn mean_of(tensors: &[Tensor]) -> Result<Tensor> {
        let first = tensors.first().ok_or(TensorError::Empty)?;
        let mut acc = first.clone();
        for t in &tensors[1..] {
            acc.add_assign(t)?;
        }
        Ok(acc.scale(1.0 / tensors.len() as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    /// The textbook `i-p-j` product with the zero skip: the oracle every
    /// kernel must equal bit for bit.
    fn reference_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Bit patterns, with every NaN mapped to one: Rust leaves the sign
    /// and payload of a NaN result unspecified (the compiler may swap the
    /// operands of an addition), so only NaN-ness is comparable.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// `len` values from seed `seed`: mostly normal draws, with `±0`
    /// sprinkled in and, when `non_finite`, NaN and `±∞` too.
    fn values(seed: u64, len: usize, non_finite: bool) -> Vec<f32> {
        let mut rng = crate::TensorRng::new(seed);
        (0..len)
            .map(|_| match (rng.uniform(0.0, 1.0) * 10.0) as u32 {
                0 => 0.0,
                1 => -0.0,
                2 if non_finite => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
                    [(rng.uniform(0.0, 3.0) as usize).min(2)],
                _ => rng.normal(0.0, 1.0),
            })
            .collect()
    }

    fn assert_kernels_match(m: usize, k: usize, n: usize, seed: u64, non_finite: bool) {
        let a = values(seed, m * k, non_finite);
        let b = values(seed ^ 0xB, k * n, non_finite);
        let want = bits(&reference_matmul(&a, &b, m, k, n));
        let mut out = vec![f32::NAN; m * n];
        matmul_into(MatRef::new(&a, m, k), &b, n, &mut out);
        assert_eq!(bits(&out), want, "matmul_into {m}x{k}x{n}");
        // The transposed view reads the same matrix from the other layout.
        let at: Vec<f32> = (0..k * m).map(|q| a[(q % m) * k + q / m]).collect();
        out.fill(f32::NAN);
        matmul_into(MatRef::transposed(&at, m, k), &b, n, &mut out);
        assert_eq!(bits(&out), want, "transposed view {m}x{k}x{n}");
        out.fill(f32::NAN);
        matmul_streaming(MatRef::new(&a, m, k), &b, n, &mut out);
        assert_eq!(bits(&out), want, "streaming kernel {m}x{k}x{n}");
        if b.iter().all(|v| v.is_finite()) {
            out.fill(f32::NAN);
            matmul_tiled(MatRef::new(&a, m, k), &b, n, &mut out);
            assert_eq!(bits(&out), want, "tiled kernel {m}x{k}x{n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random shapes (every row and column remainder of the tile),
        /// finite operands with zeros of both signs.
        #[test]
        fn kernels_match_reference_finite(m in 1usize..14, k in 0usize..40, n in 1usize..30, seed in any::<u64>()) {
            assert_kernels_match(m, k, n, seed, false);
        }

        /// Operands with NaN and ±∞: the non-finite fallback.
        #[test]
        fn kernels_match_reference_non_finite(m in 1usize..10, k in 1usize..20, n in 1usize..20, seed in any::<u64>()) {
            assert_kernels_match(m, k, n, seed, true);
        }
    }

    #[test]
    fn kernels_match_reference_at_the_shape_boundary() {
        // k·n = TILE_MAX_RHS takes the tiled kernel, one column more the
        // streaming one; both equal the oracle.
        let k = 256;
        assert_eq!(k * k, TILE_MAX_RHS);
        for (n, seed) in [(k, 1), (k + 1, 2)] {
            assert_kernels_match(5, k, n, seed, false);
        }
    }

    #[test]
    fn a_zero_row_gives_positive_zero() {
        // Zero times finite values sums to +0.0 on both kernels, even when
        // every product is −0.0.
        let b = [1.0, -2.0, 3.0, -4.0];
        for a in [[0.0, -0.0], [-0.0, -0.0]] {
            let mut out = [f32::NAN; 2];
            matmul_into(MatRef::new(&a, 1, 2), &b, 2, &mut out);
            assert_eq!(bits(&out), bits(&[0.0, 0.0]));
        }
    }

    #[test]
    fn matmul_identity() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t(vec![1.0, 2.0], &[2, 1]);
        let b = t(vec![1.0, 2.0], &[2, 1]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        let v = Tensor::from_flat(vec![1.0]);
        assert!(matches!(
            v.matmul(&a),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose().unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.get(&[2, 1]).unwrap(), 6.0);
        assert_eq!(at.transpose().unwrap(), a);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_flat(vec![1.0, -2.0, 3.0]);
        assert_eq!(a.sum(), 2.0);
        assert!((a.mean().unwrap() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(a.max().unwrap(), 3.0);
        assert_eq!(a.min().unwrap(), -2.0);
        assert_eq!(a.argmax().unwrap(), 2);
    }

    #[test]
    fn argmax_first_on_tie() {
        let a = Tensor::from_flat(vec![5.0, 5.0, 1.0]);
        assert_eq!(a.argmax().unwrap(), 0);
    }

    #[test]
    fn dot_and_norm() {
        let a = Tensor::from_flat(vec![3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        let b = Tensor::from_flat(vec![1.0, 0.0]);
        assert_eq!(a.dot(&b).unwrap(), 3.0);
    }

    #[test]
    fn distance_symmetry_and_zero() {
        let a = Tensor::from_flat(vec![1.0, 2.0]);
        let b = Tensor::from_flat(vec![4.0, 6.0]);
        assert_eq!(a.distance(&b).unwrap(), 5.0);
        assert_eq!(b.distance(&a).unwrap(), 5.0);
        assert_eq!(a.distance(&a).unwrap(), 0.0);
    }

    #[test]
    fn cosine_similarity_basics() {
        let a = Tensor::from_flat(vec![1.0, 0.0]);
        let b = Tensor::from_flat(vec![0.0, 1.0]);
        assert_eq!(a.cosine_similarity(&b).unwrap(), 0.0);
        assert!((a.cosine_similarity(&a).unwrap() - 1.0).abs() < 1e-6);
        let na = a.neg();
        assert!((a.cosine_similarity(&na).unwrap() + 1.0).abs() < 1e-6);
        let z = Tensor::zeros(&[2]);
        assert_eq!(a.cosine_similarity(&z).unwrap(), 0.0);
    }

    #[test]
    fn mean_of_tensors() {
        let a = Tensor::from_flat(vec![1.0, 2.0]);
        let b = Tensor::from_flat(vec![3.0, 4.0]);
        let m = Tensor::mean_of(&[a, b]).unwrap();
        assert_eq!(m.as_slice(), &[2.0, 3.0]);
        assert!(matches!(Tensor::mean_of(&[]), Err(TensorError::Empty)));
    }

    #[test]
    fn empty_reductions_err() {
        let e = Tensor::zeros(&[0]);
        assert!(e.mean().is_err());
        assert!(e.max().is_err());
        assert!(e.min().is_err());
        assert!(e.argmax().is_err());
    }

    #[test]
    fn norm_large_vector_f64_accumulation() {
        // 4M elements of 1e-3: exact norm is 1e-3 * sqrt(4e6) = 2.0.
        let n = 4_000_000;
        let a = Tensor::full(&[n], 1e-3);
        assert!((a.norm() - 2.0).abs() < 1e-4);
    }
}
