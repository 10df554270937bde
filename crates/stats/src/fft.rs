//! Minimal radix-2 fast Fourier transform.
//!
//! The workspace deliberately avoids an external FFT dependency: the spectral estimation
//! needs of jitter analysis (periodograms of ≤ a few million points, power-of-two sizes)
//! are served by a plain iterative radix-2 Cooley–Tukey transform.

use serde::{Deserialize, Serialize};

use crate::{Result, StatsError};

/// A complex number with `f64` components.
///
/// Only the operations required by the FFT and spectral estimators are provided.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from its real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    pub fn zero() -> Self {
        Self { re: 0.0, im: 0.0 }
    }

    /// Creates a purely real complex number.
    pub fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// `e^{iθ}` for a phase angle `θ` in radians.
    pub fn from_polar_unit(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiplies by a real scalar.
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

/// Returns the smallest power of two that is `>= n` (and at least 1).
pub fn next_power_of_two(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Returns `true` if `n` is a power of two (and non-zero).
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

fn bit_reverse_permute(buf: &mut [Complex]) {
    let n = buf.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
}

fn fft_in_place(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    bit_reverse_permute(buf);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let angle = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar_unit(angle);
        let mut start = 0;
        while start < n {
            let mut w = Complex::from_real(1.0);
            for k in 0..len / 2 {
                let u = buf[start + k];
                let v = buf[start + k + len / 2] * w;
                buf[start + k] = u + v;
                buf[start + k + len / 2] = u - v;
                w = w * wlen;
            }
            start += len;
        }
        len <<= 1;
    }
}

/// A preplanned radix-2 FFT of one fixed power-of-two size.
///
/// The plan precomputes the twiddle factors `e^{-2πik/N}` once, so repeated transforms
/// (e.g. the overlap-save convolution blocks of `ptrng_noise::flicker`) run in place with
/// zero per-call allocation.  The table-driven butterflies are also slightly more
/// accurate than the incremental-rotation loop used by the one-shot [`fft`]/[`ifft`]
/// helpers, because each twiddle is evaluated directly instead of by repeated
/// multiplication.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// `twiddles[k] = e^{-2πik/n}` for `k < n/2`.
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Plans transforms of length `n` (a power of two).
    ///
    /// # Errors
    ///
    /// Returns an error when `n` is not a power of two.
    pub fn new(n: usize) -> Result<Self> {
        if !is_power_of_two(n) {
            return Err(StatsError::InvalidParameter {
                name: "n",
                reason: format!("FFT length must be a power of two, got {n}"),
            });
        }
        let twiddles = (0..n / 2)
            .map(|k| Complex::from_polar_unit(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        Ok(Self { n, twiddles })
    }

    fn transform(&self, buf: &mut [Complex], inverse: bool) {
        debug_assert_eq!(buf.len(), self.n);
        bit_reverse_permute(buf);
        let n = self.n;
        let mut len = 2;
        while len <= n {
            // Twiddle for butterfly k at this stage: e^{∓2πik/len} = twiddles[k·(n/len)].
            let stride = n / len;
            let mut start = 0;
            while start < n {
                for k in 0..len / 2 {
                    let mut w = self.twiddles[k * stride];
                    if inverse {
                        w = w.conj();
                    }
                    let u = buf[start + k];
                    let v = buf[start + k + len / 2] * w;
                    buf[start + k] = u + v;
                    buf[start + k + len / 2] = u - v;
                }
                start += len;
            }
            len <<= 1;
        }
    }

    /// In-place forward transform (`X[k] = Σ_n x[n]·e^{-2πikn/N}`, no normalization).
    ///
    /// # Errors
    ///
    /// Returns an error when `buf.len()` differs from the planned length.
    pub fn forward(&self, buf: &mut [Complex]) -> Result<()> {
        self.check_len(buf)?;
        self.transform(buf, false);
        Ok(())
    }

    /// In-place inverse transform, normalized by `1/N`.
    ///
    /// # Errors
    ///
    /// Returns an error when `buf.len()` differs from the planned length.
    pub fn inverse(&self, buf: &mut [Complex]) -> Result<()> {
        self.check_len(buf)?;
        self.transform(buf, true);
        let scale = 1.0 / self.n as f64;
        for x in buf {
            *x = x.scale(scale);
        }
        Ok(())
    }

    fn check_len(&self, buf: &[Complex]) -> Result<()> {
        if buf.len() != self.n {
            return Err(StatsError::InvalidParameter {
                name: "buf",
                reason: format!("planned for length {}, got {}", self.n, buf.len()),
            });
        }
        Ok(())
    }
}

/// Forward discrete Fourier transform of a power-of-two-length complex buffer.
///
/// Uses the convention `X[k] = Σ_n x[n]·e^{-2πikn/N}` (no normalization).
///
/// # Errors
///
/// Returns an error when the input length is not a power of two.
pub fn fft(input: &[Complex]) -> Result<Vec<Complex>> {
    if !is_power_of_two(input.len()) {
        return Err(StatsError::InvalidParameter {
            name: "input",
            reason: format!("FFT length must be a power of two, got {}", input.len()),
        });
    }
    let mut buf = input.to_vec();
    fft_in_place(&mut buf, false);
    Ok(buf)
}

/// Inverse discrete Fourier transform (normalized by `1/N`).
///
/// # Errors
///
/// Returns an error when the input length is not a power of two.
pub fn ifft(input: &[Complex]) -> Result<Vec<Complex>> {
    if !is_power_of_two(input.len()) {
        return Err(StatsError::InvalidParameter {
            name: "input",
            reason: format!("FFT length must be a power of two, got {}", input.len()),
        });
    }
    let mut buf = input.to_vec();
    fft_in_place(&mut buf, true);
    let scale = 1.0 / buf.len() as f64;
    for x in &mut buf {
        *x = x.scale(scale);
    }
    Ok(buf)
}

/// Circular autocovariance of a real signal computed via the Wiener–Khinchin theorem
/// (FFT of the signal, squared magnitude, inverse FFT).  The mean is removed first and
/// the signal is zero-padded to at least twice its length so the estimate is linear
/// (non-circular) up to `max_lag`.
///
/// # Errors
///
/// Returns an error when the input has fewer than two samples or `max_lag` is out of
/// range.
pub fn autocovariance_fft(input: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    if input.len() < 2 {
        return Err(StatsError::SeriesTooShort {
            len: input.len(),
            needed: 2,
        });
    }
    if max_lag >= input.len() {
        return Err(StatsError::InvalidParameter {
            name: "max_lag",
            reason: format!("must be < series length {}, got {max_lag}", input.len()),
        });
    }
    let n = input.len();
    let mean = input.iter().sum::<f64>() / n as f64;
    let padded = next_power_of_two(2 * n);
    let mut buf = vec![Complex::zero(); padded];
    for (i, &x) in input.iter().enumerate() {
        buf[i] = Complex::from_real(x - mean);
    }
    fft_in_place(&mut buf, false);
    for x in &mut buf {
        *x = Complex::from_real(x.norm_sqr());
    }
    fft_in_place(&mut buf, true);
    // Without the 1/P normalization of `ifft`, buf[lag].re = P · Σ_n y[n]·y[n+lag];
    // the biased autocovariance estimate divides the lagged product sum by n.
    let scale = 1.0 / (padded as f64 * n as f64);
    Ok((0..=max_lag).map(|lag| buf[lag].re * scale).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::zero(); 8];
        x[0] = Complex::from_real(1.0);
        let spec = fft(&x).unwrap();
        for c in spec {
            assert_close(c.re, 1.0, 1e-12);
            assert_close(c.im, 0.0, 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_concentrates_at_dc() {
        let x = vec![Complex::from_real(2.5); 16];
        let spec = fft(&x).unwrap();
        assert_close(spec[0].re, 40.0, 1e-9);
        for c in &spec[1..] {
            assert!(c.norm_sqr().sqrt() < 1e-9);
        }
    }

    #[test]
    fn fft_locates_a_pure_tone() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                Complex::from_real(
                    (2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64).cos(),
                )
            })
            .collect();
        let spec = fft(&x).unwrap();
        let mags: Vec<f64> = spec.iter().map(|c| c.norm_sqr().sqrt()).collect();
        // Energy concentrated in bins k0 and n-k0.
        assert!(mags[k0] > 30.0);
        assert!(mags[n - k0] > 30.0);
        for (k, m) in mags.iter().enumerate() {
            if k != k0 && k != n - k0 {
                assert!(*m < 1e-9, "bin {k} has magnitude {m}");
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let spec = fft(&x).unwrap();
        let back = ifft(&spec).unwrap();
        for (a, b) in x.iter().zip(back.iter()) {
            assert_close(a.re, b.re, 1e-10);
            assert_close(a.im, b.im, 1e-10);
        }
    }

    #[test]
    fn parseval_identity_holds() {
        let x: Vec<Complex> = (0..128)
            .map(|i| Complex::new((i as f64 * 0.13).sin(), (i as f64 * 0.31).cos()))
            .collect();
        let spec = fft(&x).unwrap();
        let time_energy: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert_close(time_energy, freq_energy, 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn rejects_non_power_of_two() {
        let x = vec![Complex::zero(); 12];
        assert!(fft(&x).is_err());
        assert!(ifft(&x).is_err());
    }

    #[test]
    fn power_of_two_helpers() {
        assert_eq!(next_power_of_two(0), 1);
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(5), 8);
        assert!(is_power_of_two(8));
        assert!(!is_power_of_two(12));
        assert!(!is_power_of_two(0));
    }

    #[test]
    fn autocovariance_fft_matches_direct_estimate() {
        let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.37).sin() + 0.5).collect();
        let n = x.len();
        let mean = x.iter().sum::<f64>() / n as f64;
        let max_lag = 10;
        let via_fft = autocovariance_fft(&x, max_lag).unwrap();
        for lag in 0..=max_lag {
            let direct: f64 = (0..n - lag)
                .map(|i| (x[i] - mean) * (x[i + lag] - mean))
                .sum::<f64>()
                / n as f64;
            assert_close(via_fft[lag], direct, 1e-8 * direct.abs().max(1.0));
        }
    }

    #[test]
    fn plan_matches_one_shot_transforms() {
        let x: Vec<Complex> = (0..256)
            .map(|i| Complex::new((i as f64 * 0.17).sin(), (i as f64 * 0.41).cos()))
            .collect();
        let plan = FftPlan::new(256).unwrap();
        let mut buf = x.clone();
        plan.forward(&mut buf).unwrap();
        let reference = fft(&x).unwrap();
        for (a, b) in buf.iter().zip(reference.iter()) {
            assert_close(a.re, b.re, 1e-9);
            assert_close(a.im, b.im, 1e-9);
        }
        plan.inverse(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(x.iter()) {
            assert_close(a.re, b.re, 1e-10);
            assert_close(a.im, b.im, 1e-10);
        }
    }

    #[test]
    fn plan_validates_lengths() {
        assert!(FftPlan::new(12).is_err());
        let plan = FftPlan::new(8).unwrap();
        assert_eq!(plan.n, 8);
        let mut wrong = vec![Complex::zero(); 4];
        assert!(plan.forward(&mut wrong).is_err());
        assert!(plan.inverse(&mut wrong).is_err());
    }

    #[test]
    fn autocovariance_fft_rejects_bad_lag() {
        assert!(autocovariance_fft(&[1.0, 2.0, 3.0], 3).is_err());
        assert!(autocovariance_fft(&[1.0], 0).is_err());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip_fft_ifft(values in proptest::collection::vec(-1e3f64..1e3, 1..64)) {
                let n = next_power_of_two(values.len());
                let mut x = vec![Complex::zero(); n];
                for (i, v) in values.iter().enumerate() {
                    x[i] = Complex::from_real(*v);
                }
                let back = ifft(&fft(&x).unwrap()).unwrap();
                for (a, b) in x.iter().zip(back.iter()) {
                    prop_assert!((a.re - b.re).abs() < 1e-7);
                    prop_assert!(b.im.abs() < 1e-7);
                }
            }

            #[test]
            fn linearity_of_fft(
                a in proptest::collection::vec(-10.0f64..10.0, 16),
                b in proptest::collection::vec(-10.0f64..10.0, 16),
            ) {
                let ca: Vec<Complex> = a.iter().map(|&v| Complex::from_real(v)).collect();
                let cb: Vec<Complex> = b.iter().map(|&v| Complex::from_real(v)).collect();
                let sum: Vec<Complex> = ca.iter().zip(cb.iter()).map(|(x, y)| *x + *y).collect();
                let fa = fft(&ca).unwrap();
                let fb = fft(&cb).unwrap();
                let fsum = fft(&sum).unwrap();
                for k in 0..16 {
                    let lin = fa[k] + fb[k];
                    prop_assert!((lin.re - fsum[k].re).abs() < 1e-7);
                    prop_assert!((lin.im - fsum[k].im).abs() < 1e-7);
                }
            }
        }
    }
}
