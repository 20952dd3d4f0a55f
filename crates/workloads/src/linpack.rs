//! Linpack — the pure-computation benchmark (§III-A): LU factorisation
//! with partial pivoting, solve, residual check and MFLOPS reporting,
//! "implemented in ordinary Android Java" in the paper.

use simkit::SimRng;

/// A dense row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of order `n`.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Order of the matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n + c] = v;
    }

    /// Random matrix with entries in `[-0.5, 0.5]` — the classic Linpack
    /// `matgen`.
    pub fn random(n: usize, rng: &mut SimRng) -> Self {
        let mut m = Matrix::zeros(n);
        for v in m.data.iter_mut() {
            *v = rng.uniform01() - 0.5;
        }
        m
    }

    /// y = A·x.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.n..(r + 1) * self.n];
            *yr = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }
}

/// Error when the matrix is singular (zero pivot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Singular {
    /// Column where factorisation failed.
    pub column: usize,
}

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for Singular {}

/// LU factorisation (in place) with partial pivoting — `dgefa`.
/// Returns the pivot index vector.
pub fn lu_factor(a: &mut Matrix) -> Result<Vec<usize>, Singular> {
    let n = a.order();
    let mut pivots = Vec::with_capacity(n);
    for k in 0..n {
        // Find pivot.
        let mut p = k;
        let mut max = a.get(k, k).abs();
        for r in (k + 1)..n {
            let v = a.get(r, k).abs();
            if v > max {
                max = v;
                p = r;
            }
        }
        if max < 1e-300 {
            return Err(Singular { column: k });
        }
        pivots.push(p);
        // Swap rows k and p, then eliminate below over row slices:
        // each element gets `v - factor * u` as in `dgefa`.
        if p != k {
            let (upper, lower) = a.data.split_at_mut(p * n);
            upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
        }
        let (upper, below) = a.data.split_at_mut((k + 1) * n);
        let pivot_row = &upper[k * n..];
        let pivot = pivot_row[k];
        for row in below.chunks_exact_mut(n) {
            let factor = row[k] / pivot;
            row[k] = factor;
            for (v, &u) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                *v -= factor * u;
            }
        }
    }
    Ok(pivots)
}

/// Solve `LU x = b` given the factorisation — `dgesl`.
pub fn lu_solve(lu: &Matrix, pivots: &[usize], b: &[f64]) -> Vec<f64> {
    let n = lu.order();
    assert_eq!(b.len(), n);
    let mut x = b.to_vec();
    // Apply the full permutation first (the factorisation swaps whole
    // rows, LAPACK-style, so P must be applied to b before any
    // elimination — interleaving would corrupt already-reduced entries).
    for (k, &p) in pivots.iter().enumerate().take(n) {
        x.swap(k, p);
    }
    // Forward substitution through L (unit diagonal).
    for k in 0..n {
        for r in (k + 1)..n {
            x[r] -= lu.get(r, k) * x[k];
        }
    }
    // Back substitution.
    for k in (0..n).rev() {
        x[k] /= lu.get(k, k);
        for r in 0..k {
            x[r] -= lu.get(r, k) * x[k];
        }
    }
    x
}

/// Result of one Linpack run.
#[derive(Debug, Clone, PartialEq)]
pub struct LinpackResult {
    /// Matrix order.
    pub n: usize,
    /// Max-norm of `A·x − b` (should be ~1e-10 for well-conditioned A).
    pub residual: f64,
    /// Normalised residual (the Linpack acceptance metric).
    pub normalized_residual: f64,
    /// Floating-point operations performed (2n³/3 + 2n²).
    pub flops: f64,
}

/// Run the Linpack benchmark at order `n` with a seeded generator.
pub fn run(n: usize, rng: &mut SimRng) -> Result<LinpackResult, Singular> {
    let a = Matrix::random(n, rng);
    let x_true = vec![1.0; n];
    let b = a.mul_vec(&x_true);
    let mut lu = a.clone();
    let pivots = lu_factor(&mut lu)?;
    let x = lu_solve(&lu, &pivots, &b);
    // Residual ‖A·x − b‖∞.
    let ax = a.mul_vec(&x);
    let residual = ax
        .iter()
        .zip(&b)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f64, f64::max);
    let norm_a = (0..n)
        .map(|r| (0..n).map(|c| a.get(r, c).abs()).sum::<f64>())
        .fold(0.0f64, f64::max);
    let norm_x = x.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    let eps = f64::EPSILON;
    let normalized_residual = residual / (norm_a * norm_x * n as f64 * eps);
    let nf = n as f64;
    Ok(LinpackResult {
        n,
        residual,
        normalized_residual,
        flops: 2.0 / 3.0 * nf * nf * nf + 2.0 * nf * nf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0x11A9)
    }

    #[test]
    fn solves_known_system() {
        // A = [[2,1],[1,3]], x = [1,2] → b = [4,7].
        let mut a = Matrix::zeros(2);
        a.set(0, 0, 2.0);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 3.0);
        let b = a.mul_vec(&[1.0, 2.0]);
        let mut lu = a.clone();
        let piv = lu_factor(&mut lu).unwrap();
        let x = lu_solve(&lu, &piv, &b);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // a11 = 0 forces a row swap.
        let mut a = Matrix::zeros(2);
        a.set(0, 0, 0.0);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 0.0);
        let b = vec![3.0, 5.0]; // x = [5, 3]
        let mut lu = a.clone();
        let piv = lu_factor(&mut lu).unwrap();
        let x = lu_solve(&lu, &piv, &b);
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::zeros(3);
        let mut lu = a.clone();
        assert_eq!(lu_factor(&mut lu), Err(Singular { column: 0 }));
    }

    #[test]
    fn benchmark_run_passes_residual_check() {
        let r = run(100, &mut rng()).unwrap();
        assert_eq!(r.n, 100);
        // The canonical Linpack pass criterion.
        assert!(
            r.normalized_residual < 16.0,
            "normalized residual {}",
            r.normalized_residual
        );
        assert!(r.residual < 1e-9, "residual {}", r.residual);
        assert!(r.flops > 600_000.0);
    }

    #[test]
    fn flops_grow_cubically() {
        let small = run(40, &mut rng()).unwrap();
        let large = run(80, &mut rng()).unwrap();
        let ratio = large.flops / small.flops;
        assert!(ratio > 7.0 && ratio < 9.0, "ratio {ratio}");
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(50, &mut SimRng::new(9)).unwrap();
        let b = run(50, &mut SimRng::new(9)).unwrap();
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
    }
}
