//! Simple least-squares linear regression over `u64` pairs.
//!
//! The backbone of functional mappings (§5.2.1: "we implement the mapping
//! function as a simple linear regression").

use tsunami_core::Value;

/// A fitted line `y = slope * x + intercept` over `f64` space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
}

impl LinearModel {
    /// Identity model (`y = x`).
    pub fn identity() -> Self {
        Self {
            slope: 1.0,
            intercept: 0.0,
        }
    }

    /// A constant model (`y = c`), used for degenerate fits.
    pub fn constant(c: f64) -> Self {
        Self {
            slope: 0.0,
            intercept: c,
        }
    }

    /// Fits a least-squares line to `(x, y)` pairs given as `f64`s.
    ///
    /// Degenerate inputs (empty, single point, or zero x-variance) fall back
    /// to a constant model at the mean of `y`.
    pub fn fit_f64(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len());
        let n = xs.len();
        if n == 0 {
            return Self::constant(0.0);
        }
        let mean_x = xs.iter().sum::<f64>() / n as f64;
        let mean_y = ys.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Self::constant(mean_y);
        }
        let mut cov = 0.0;
        let mut var = 0.0;
        for i in 0..n {
            let dx = xs[i] - mean_x;
            cov += dx * (ys[i] - mean_y);
            var += dx * dx;
        }
        if var == 0.0 {
            return Self::constant(mean_y);
        }
        let slope = cov / var;
        Self {
            slope,
            intercept: mean_y - slope * mean_x,
        }
    }

    /// Fits a least-squares line to integer `(x, y)` pairs.
    pub fn fit(xs: &[Value], ys: &[Value]) -> Self {
        let xf: Vec<f64> = xs.iter().map(|&v| v as f64).collect();
        let yf: Vec<f64> = ys.iter().map(|&v| v as f64).collect();
        Self::fit_f64(&xf, &yf)
    }

    /// Predicted `y` for an `x`.
    #[inline]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Predicted `y` for an integer `x`, clamped to the `u64` domain.
    #[inline]
    pub fn predict_value(&self, x: Value) -> Value {
        let y = self.predict(x as f64);
        if y <= 0.0 {
            0
        } else if y >= u64::MAX as f64 {
            u64::MAX
        } else {
            y as Value
        }
    }

    /// Size of the model in bytes (two `f64`s).
    pub fn size_bytes(&self) -> usize {
        2 * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_line() {
        let xs: Vec<Value> = (0..100).collect();
        let ys: Vec<Value> = xs.iter().map(|&x| 3 * x + 7).collect();
        let m = LinearModel::fit(&xs, &ys);
        assert!((m.slope - 3.0).abs() < 1e-9);
        assert!((m.intercept - 7.0).abs() < 1e-6);
        assert_eq!(m.predict_value(10), 37);
    }

    #[test]
    fn fits_noisy_line_approximately() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 2.0 * x + 5.0 + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let m = LinearModel::fit_f64(&xs, &ys);
        assert!((m.slope - 2.0).abs() < 0.05);
        assert!((m.intercept - 5.0).abs() < 2.0);
    }

    #[test]
    fn degenerate_inputs_fall_back_to_constant() {
        assert_eq!(LinearModel::fit(&[], &[]), LinearModel::constant(0.0));
        let single = LinearModel::fit(&[5], &[42]);
        assert_eq!(single.predict_value(123), 42);
        // Zero variance in x.
        let flat = LinearModel::fit(&[3, 3, 3], &[1, 2, 3]);
        assert_eq!(flat.slope, 0.0);
        assert!((flat.intercept - 2.0).abs() < 1e-9);
    }

    #[test]
    fn predict_value_clamps_to_u64_domain() {
        let m = LinearModel {
            slope: -1.0,
            intercept: 0.0,
        };
        assert_eq!(m.predict_value(10), 0);
        let m = LinearModel {
            slope: 1e30,
            intercept: 0.0,
        };
        assert_eq!(m.predict_value(u64::MAX), u64::MAX);
    }

    #[test]
    fn identity_and_size() {
        let m = LinearModel::identity();
        assert_eq!(m.predict_value(17), 17);
        assert_eq!(m.size_bytes(), 16);
    }
}
