//! Dense `f64` kernels for the simplex engine's `m × m` work: the
//! product-form `B⁻¹` update and Gauss-Jordan elimination
//! ([`sub_scaled`]), the simplex multipliers `y = c_Bᵀ B⁻¹`
//! ([`combine_rows`]) and the basic values `x_B = B⁻¹ w` ([`row_dots`]).
//!
//! Every path computes each element as one rounded multiply followed by
//! one rounded add or subtract — never a fused multiply-add — and sums
//! every output in the same order as the plain scalar loop, so every path
//! returns that loop's bits. On x86-64 CPUs with AVX2 (detected at run
//! time) the work runs four lanes at a time; other CPUs take the scalar
//! loops.

/// `dst[k] -= f * src[k]` for every `k`.
#[inline]
pub(crate) fn sub_scaled(dst: &mut [f64], src: &[f64], f: f64) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `is_x86_feature_detected!("avx2")` just confirmed that
        // this CPU supports the AVX2 instructions the callee is built for.
        unsafe { avx2::sub_scaled(dst, src, f) };
        return;
    }
    scalar::sub_scaled(dst, src, f);
}

/// `out = Σ_i w[i] · row_i` over the rows with `w[i] ≠ 0`, where `rows`
/// holds `w.len()` rows of `out.len()` values, row-major. Each output sums
/// its terms in ascending `i` from `+0.0`: the bits of zeroing `out` and
/// then adding the rows one at a time.
pub(crate) fn combine_rows(out: &mut [f64], rows: &[f64], w: &[f64]) {
    debug_assert_eq!(rows.len(), out.len() * w.len());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `is_x86_feature_detected!("avx2")` just confirmed that
        // this CPU supports the AVX2 instructions the callee is built for.
        unsafe { avx2::combine_rows(out, rows, w) };
        return;
    }
    scalar::combine_rows(out, rows, w);
}

/// `out[i] = rows[i] · v`, where `rows` holds `out.len()` rows of
/// `v.len()` values, row-major. Each dot product sums in ascending index
/// order from `-0.0`: the bits of `Iterator::sum` over the products.
pub(crate) fn row_dots(out: &mut [f64], rows: &[f64], v: &[f64]) {
    // The AVX2 path reads `rows` through raw pointers within this length.
    assert_eq!(rows.len(), out.len() * v.len());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `is_x86_feature_detected!("avx2")` just confirmed that
        // this CPU supports the AVX2 instructions the callee is built for,
        // and the assert above holds its length contract.
        unsafe { avx2::row_dots(out, rows, v) };
        return;
    }
    scalar::row_dots(out, rows, v);
}

mod scalar {
    pub(super) fn sub_scaled(dst: &mut [f64], src: &[f64], f: f64) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d -= f * s;
        }
    }

    pub(super) fn combine_rows(out: &mut [f64], rows: &[f64], w: &[f64]) {
        out.fill(0.0);
        if out.is_empty() {
            return;
        }
        for (row, &f) in rows.chunks_exact(out.len()).zip(w) {
            if f != 0.0 {
                for (o, r) in out.iter_mut().zip(row) {
                    *o += f * r;
                }
            }
        }
    }

    /// Four rows at a time, so four independent sums are in flight.
    pub(super) fn row_dots(out: &mut [f64], rows: &[f64], v: &[f64]) {
        let n = v.len();
        let mut i = 0;
        while i + 4 <= out.len() {
            let quad = &rows[i * n..(i + 4) * n];
            let (r0, r1, r2, r3) = (
                &quad[..n],
                &quad[n..2 * n],
                &quad[2 * n..3 * n],
                &quad[3 * n..],
            );
            let mut s = [-0.0f64; 4];
            for (k, &x) in v.iter().enumerate() {
                s[0] += r0[k] * x;
                s[1] += r1[k] * x;
                s[2] += r2[k] * x;
                s[3] += r3[k] * x;
            }
            out[i..i + 4].copy_from_slice(&s);
            i += 4;
        }
        for (r, o) in out.iter_mut().enumerate().skip(i) {
            *o = rows[r * n..(r + 1) * n]
                .iter()
                .zip(v)
                .map(|(a, b)| a * b)
                .sum();
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_broadcast_sd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_permute2f128_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
        _mm256_unpackhi_pd, _mm256_unpacklo_pd,
    };

    /// # Safety
    ///
    /// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub_scaled(dst: &mut [f64], src: &[f64], f: f64) {
        let fv = _mm256_set1_pd(f);
        for (d, s) in dst.chunks_exact_mut(4).zip(src.chunks_exact(4)) {
            // SAFETY: each unaligned load and store covers one 4-chunk.
            unsafe {
                let p = _mm256_mul_pd(fv, _mm256_loadu_pd(s.as_ptr()));
                let diff = _mm256_sub_pd(_mm256_loadu_pd(d.as_ptr()), p);
                _mm256_storeu_pd(d.as_mut_ptr(), diff);
            }
        }
        let tail = dst.len() - dst.len() % 4;
        super::scalar::sub_scaled(&mut dst[tail..], &src[tail..], f);
    }

    /// Sixteen (then four) output columns stay in registers while every
    /// row streams past, so `out` is written once instead of once per row.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn combine_rows(out: &mut [f64], rows: &[f64], w: &[f64]) {
        let n = out.len();
        let mut k = 0;
        while k + 16 <= n {
            let mut acc = [_mm256_setzero_pd(); 4];
            for (i, &f) in w.iter().enumerate() {
                if f != 0.0 {
                    let fv = _mm256_set1_pd(f);
                    let row = &rows[i * n + k..i * n + k + 16];
                    for (a, quad) in acc.iter_mut().zip(row.chunks_exact(4)) {
                        // SAFETY: `quad` holds four values.
                        let r = unsafe { _mm256_loadu_pd(quad.as_ptr()) };
                        *a = _mm256_add_pd(*a, _mm256_mul_pd(fv, r));
                    }
                }
            }
            for (a, quad) in acc.iter().zip(out[k..k + 16].chunks_exact_mut(4)) {
                // SAFETY: `quad` holds four values.
                unsafe { _mm256_storeu_pd(quad.as_mut_ptr(), *a) };
            }
            k += 16;
        }
        while k + 4 <= n {
            let mut acc = _mm256_setzero_pd();
            for (i, &f) in w.iter().enumerate() {
                if f != 0.0 {
                    let quad = &rows[i * n + k..i * n + k + 4];
                    // SAFETY: `quad` holds four values.
                    let r = unsafe { _mm256_loadu_pd(quad.as_ptr()) };
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(f), r));
                }
            }
            // SAFETY: `k + 4 <= n` keeps the four stored values in `out`.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr().add(k), acc) };
            k += 4;
        }
        for (c, o) in out.iter_mut().enumerate().skip(k) {
            let mut s = 0.0;
            for (i, &f) in w.iter().enumerate() {
                if f != 0.0 {
                    s += f * rows[i * n + c];
                }
            }
            *o = s;
        }
    }

    /// Eight (then four) rows at a time: each 4×4 block is transposed in
    /// registers so that lane `r` carries row `r`'s running sum, which
    /// still adds its products in ascending column order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`),
    /// and `rows.len()` must be `out.len() * v.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_dots(out: &mut [f64], rows: &[f64], v: &[f64]) {
        let n = v.len();
        let mut i = 0;
        let mut s = [0.0f64; 8];
        while i + 4 <= out.len() {
            let wide = i + 8 <= out.len();
            let mut acc = [_mm256_set1_pd(-0.0); 2];
            let mut k = 0;
            while k + 4 <= n {
                // SAFETY: with `rows.len() == out.len() * n` (the caller's
                // contract), `i + 4 <= out.len()` (`i + 8` when `wide`) and
                // `k + 4 <= n` keep each block's four rows of four values,
                // and `v[k..k + 4]`, in bounds.
                unsafe {
                    acc[0] = dot_block(acc[0], rows.as_ptr().add(i * n + k), n, v.as_ptr().add(k));
                    if wide {
                        let p = rows.as_ptr().add((i + 4) * n + k);
                        acc[1] = dot_block(acc[1], p, n, v.as_ptr().add(k));
                    }
                }
                k += 4;
            }
            let h = if wide { 8 } else { 4 };
            // SAFETY: `s` holds eight values.
            unsafe {
                _mm256_storeu_pd(s.as_mut_ptr(), acc[0]);
                _mm256_storeu_pd(s.as_mut_ptr().add(4), acc[1]);
            }
            for (r, sr) in s[..h].iter_mut().enumerate() {
                for c in k..n {
                    *sr += rows[(i + r) * n + c] * v[c];
                }
            }
            out[i..i + h].copy_from_slice(&s[..h]);
            i += h;
        }
        for (r, o) in out.iter_mut().enumerate().skip(i) {
            *o = rows[r * n..(r + 1) * n]
                .iter()
                .zip(v)
                .map(|(a, b)| a * b)
                .sum();
        }
    }

    /// `acc + Σ_c col_c · v[c]` for one 4×4 block starting at `p` (rows
    /// `stride` apart), the four columns added one after the other.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, and `p` must be valid for reads of four
    /// values at `p`, `p + stride`, `p + 2·stride`, `p + 3·stride`, as
    /// must `v` for four values.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn dot_block(acc: __m256d, p: *const f64, stride: usize, v: *const f64) -> __m256d {
        // SAFETY: the caller's contract above.
        unsafe {
            let r0 = _mm256_loadu_pd(p);
            let r1 = _mm256_loadu_pd(p.add(stride));
            let r2 = _mm256_loadu_pd(p.add(2 * stride));
            let r3 = _mm256_loadu_pd(p.add(3 * stride));
            let t0 = _mm256_unpacklo_pd(r0, r1);
            let t1 = _mm256_unpackhi_pd(r0, r1);
            let t2 = _mm256_unpacklo_pd(r2, r3);
            let t3 = _mm256_unpackhi_pd(r2, r3);
            let cols = [
                _mm256_permute2f128_pd(t0, t2, 0x20),
                _mm256_permute2f128_pd(t1, t3, 0x20),
                _mm256_permute2f128_pd(t0, t2, 0x31),
                _mm256_permute2f128_pd(t1, t3, 0x31),
            ];
            let mut acc = acc;
            for (c, col) in cols.into_iter().enumerate() {
                acc = _mm256_add_pd(acc, _mm256_mul_pd(col, _mm256_broadcast_sd(&*v.add(c))));
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LENS: [usize; 6] = [0, 1, 3, 5, 17, 75];

    /// Values that stress rounding and signed zeros: ±0.0, subnormals,
    /// and magnitudes from 1e-300 to 1e300 side by side.
    fn values(len: usize, seed: u64) -> Vec<f64> {
        const POOL: [f64; 12] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 3.0,
            5e-324,
            1.0,
            -1.5,
            0.1,
            1e-300,
            -3.7e300,
            123_456.789,
            -9.094_947_017_729_282e-13,
        ];
        let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let scale = if z & 1 << 20 != 0 { 3.25 } else { 1.0 };
                POOL[(z >> 33) as usize % POOL.len()] * scale
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn check_sub_scaled(kernel: fn(&mut [f64], &[f64], f64)) {
        for len in LENS {
            for seed in 0..40u64 {
                let dst = values(len, seed);
                let src = values(len, seed + 1000);
                for f in [0.0, -0.0, 1.0, -0.75, 5e-324, 3.0e-310, 1e200, -7.25e-3] {
                    let mut want = dst.clone();
                    for (d, s) in want.iter_mut().zip(&src) {
                        *d -= f * s;
                    }
                    let mut got = dst.clone();
                    kernel(&mut got, &src, f);
                    assert_eq!(bits(&got), bits(&want), "len {len} seed {seed} f {f:e}");
                }
            }
        }
    }

    fn check_combine_rows(kernel: fn(&mut [f64], &[f64], &[f64])) {
        for cols in LENS {
            for nrows in LENS {
                for seed in 0..6u64 {
                    let rows = values(cols * nrows, seed);
                    let w = values(nrows, seed + 77);
                    let mut want = vec![0.0; cols];
                    for (i, &f) in w.iter().enumerate() {
                        if f != 0.0 {
                            for (c, o) in want.iter_mut().enumerate() {
                                *o += f * rows[i * cols + c];
                            }
                        }
                    }
                    let mut got = vec![f64::NAN; cols];
                    kernel(&mut got, &rows, &w);
                    assert_eq!(bits(&got), bits(&want), "{nrows}x{cols} seed {seed}");
                }
            }
        }
    }

    fn check_row_dots(kernel: fn(&mut [f64], &[f64], &[f64])) {
        for cols in LENS {
            for nrows in LENS {
                for seed in 0..6u64 {
                    let rows = values(cols * nrows, seed);
                    let v = values(cols, seed + 55);
                    let want: Vec<f64> = (0..nrows)
                        .map(|i| {
                            let row = &rows[i * cols..(i + 1) * cols];
                            row.iter().zip(&v).map(|(a, b)| a * b).sum()
                        })
                        .collect();
                    let mut got = vec![f64::NAN; nrows];
                    kernel(&mut got, &rows, &v);
                    assert_eq!(bits(&got), bits(&want), "{nrows}x{cols} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn scalar_kernels_match_the_plain_loops() {
        check_sub_scaled(scalar::sub_scaled);
        check_combine_rows(scalar::combine_rows);
        check_row_dots(scalar::row_dots);
    }

    #[test]
    fn dispatched_kernels_match_the_plain_loops() {
        check_sub_scaled(sub_scaled);
        check_combine_rows(combine_rows);
        check_row_dots(row_dots);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_match_the_plain_loops() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // SAFETY (every closure): AVX2 support was checked just above, and
        // the checks build `rows` as `out.len() * v.len()` values.
        check_sub_scaled(|d, s, f| unsafe { avx2::sub_scaled(d, s, f) });
        check_combine_rows(|o, r, w| unsafe { avx2::combine_rows(o, r, w) });
        check_row_dots(|o, r, v| unsafe { avx2::row_dots(o, r, v) });
    }
}
