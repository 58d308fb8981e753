//! Property tests for the linear-algebra substrate against dense models.

use proptest::prelude::*;
use prop_linalg::{conjugate_gradient, tridiagonal_eigen, CsrMatrix};

fn arb_triplets(n: usize) -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    proptest::collection::vec(
        (0..n, 0..n, -4i32..=4).prop_map(|(r, c, v)| (r, c, f64::from(v) * 0.5)),
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// CSR matvec equals the dense-model matvec for arbitrary triplet
    /// soups (duplicates summed).
    #[test]
    fn csr_matvec_matches_dense(
        triplets in arb_triplets(8),
        x in proptest::collection::vec(-3i32..=3, 8),
    ) {
        let x: Vec<f64> = x.into_iter().map(f64::from).collect();
        let m = CsrMatrix::from_triplets(8, 8, &triplets);
        let mut dense = [[0.0f64; 8]; 8];
        for &(r, c, v) in &triplets {
            dense[r][c] += v;
        }
        let got = m.matvec(&x);
        for (r, row) in dense.iter().enumerate() {
            let want: f64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            prop_assert!((got[r] - want).abs() < 1e-12, "row {r}: {} vs {want}", got[r]);
        }
        // get() agrees with the dense model too.
        for (r, row) in dense.iter().enumerate() {
            for (c, &want) in row.iter().enumerate() {
                prop_assert_eq!(m.get(r, c), want);
            }
        }
    }

    /// The tridiagonal QL solver returns an orthonormal eigenbasis with
    /// small residuals for arbitrary symmetric tridiagonal matrices.
    #[test]
    fn tridiagonal_eigen_residuals(
        diag in proptest::collection::vec(-4i32..=4, 2..12),
        off_raw in proptest::collection::vec(-4i32..=4, 11),
    ) {
        let n = diag.len();
        let diag: Vec<f64> = diag.into_iter().map(f64::from).collect();
        let off: Vec<f64> = off_raw[..n - 1].iter().map(|&v| f64::from(v)).collect();
        let (vals, vecs) = tridiagonal_eigen(&diag, &off);
        // Eigenvalues ascending.
        prop_assert!(vals.windows(2).all(|w| w[0] <= w[1] + 1e-10));
        // Residuals and orthonormality.
        for i in 0..n {
            let x = &vecs[i];
            for r in 0..n {
                let mut tx = diag[r] * x[r];
                if r > 0 { tx += off[r - 1] * x[r - 1]; }
                if r + 1 < n { tx += off[r] * x[r + 1]; }
                prop_assert!((tx - vals[i] * x[r]).abs() < 1e-7);
            }
            for (j, y) in vecs.iter().enumerate().skip(i + 1) {
                let d: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
                prop_assert!(d.abs() < 1e-7, "vectors {i},{j} not orthogonal: {d}");
            }
        }
        // Trace is preserved by the spectrum.
        let trace: f64 = diag.iter().sum();
        let spectral_sum: f64 = vals.iter().sum();
        prop_assert!((trace - spectral_sum).abs() < 1e-7);
    }

    /// CG solves arbitrary diagonally dominant SPD systems to tolerance.
    #[test]
    fn cg_solves_spd_systems(
        off in proptest::collection::vec(-2i32..=2, 9),
        rhs in proptest::collection::vec(-3i32..=3, 10),
    ) {
        let n = 10;
        let mut triplets = Vec::new();
        let mut row_abs = vec![0.0f64; n];
        for i in 0..n - 1 {
            let v = f64::from(off[i]);
            if v != 0.0 {
                triplets.push((i, i + 1, v));
                triplets.push((i + 1, i, v));
                row_abs[i] += v.abs();
                row_abs[i + 1] += v.abs();
            }
        }
        for (i, &abs) in row_abs.iter().enumerate() {
            triplets.push((i, i, abs + 1.0)); // strictly dominant diagonal
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets);
        let b: Vec<f64> = rhs.into_iter().map(f64::from).collect();
        let out = conjugate_gradient(&a, &b, 200, 1e-10);
        prop_assert!(out.converged, "residual {}", out.residual_norm);
        let ax = a.matvec(&out.x);
        for (got, want) in ax.iter().zip(&b) {
            prop_assert!((got - want).abs() < 1e-6);
        }
    }
}
