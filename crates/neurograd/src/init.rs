//! Seeded weight initialisation (Kaiming/He and plain normal schemes).
//!
//! All initialisers draw from an explicit [`rand::Rng`] so every experiment
//! in the reproduction is reproducible from a `u64` seed.

use rand::Rng;

use crate::matrix::Matrix;

/// Samples a standard normal via the Box–Muller transform.
///
/// Implemented locally to avoid a `rand_distr` dependency.
pub(crate) fn sample_standard_normal(rng: &mut impl Rng) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2: f32 = rng.gen::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        return r * (2.0 * std::f32::consts::PI * u2).cos();
    }
}

/// Kaiming/He normal initialisation for ReLU nets: `N(0, sqrt(2/fan_in))`.
pub fn kaiming_normal(rows: usize, cols: usize, fan_in: usize, rng: &mut impl Rng) -> Matrix {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    let data = (0..rows * cols).map(|_| sample_standard_normal(rng) * std).collect();
    Matrix::from_vec(rows, cols, data).expect("sized by construction")
}

/// Normal initialisation with explicit standard deviation (used by the
/// Pix2Pix reference implementation: `N(0, 0.02)`).
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Matrix {
    let data = (0..rows * cols).map(|_| sample_standard_normal(rng) * std).collect();
    Matrix::from_vec(rows, cols, data).expect("sized by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    #[test]
    fn kaiming_std_is_plausible() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = kaiming_normal(64, 64, 64, &mut rng);
        let mean = m.mean();
        let var =
            m.as_slice().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / m.len() as f32;
        let expected = 2.0 / 64.0;
        assert!((var - expected).abs() < expected * 0.3, "var = {var}");
    }

    #[test]
    fn normal_scales_with_std() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = normal(50, 50, 0.02, &mut rng);
        assert!(m.as_slice().iter().all(|x| x.abs() < 0.15)); // ~6 sigma bound
        assert!(m.as_slice().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = kaiming_normal(4, 4, 4, &mut StdRng::seed_from_u64(42));
        let b = kaiming_normal(4, 4, 4, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
        let c = kaiming_normal(4, 4, 4, &mut StdRng::seed_from_u64(43));
        assert_ne!(a, c);
    }

    #[test]
    fn box_muller_is_finite_and_varied() {
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<f32> = (0..1000).map(|_| sample_standard_normal(&mut rng)).collect();
        assert!(samples.iter().all(|x| x.is_finite()));
        let mean = samples.iter().sum::<f32>() / 1000.0;
        assert!(mean.abs() < 0.15, "mean = {mean}");
    }
}
