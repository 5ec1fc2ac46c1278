//! Tests for the veil overlay, kept as an experimentation API: no dataset
//! configuration applies it, so no figure bench exercises it (ROADMAP
//! item 9 plans where such experiment results get recorded).

use fbp_imagegen::painter::apply_veil;
use fbp_imagegen::{extract_histogram, HistogramConfig, Image, Rgb};
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn veil_moves_mass_into_low_saturation_row() {
    let cfg = HistogramConfig::default();
    // Fully saturated red image: all mass in bin 3 (hue 0, sat row 3).
    let mut img = Image::solid(32, 32, Rgb::new(1.0, 0.0, 0.0));
    let before = extract_histogram(&img, &cfg);
    assert!((before[3] - 1.0).abs() < 1e-12);

    let mut rng = StdRng::seed_from_u64(5);
    apply_veil(&mut img, 0.5, &mut rng);
    let after = extract_histogram(&img, &cfg);
    // Saturated-red mass shrank; low-saturation row (s_idx = 0 across all
    // hue bins) gained.
    assert!(after[3] < before[3]);
    let low_sat_mass: f64 = (0..8).map(|h| after[h * 4]).sum();
    assert!(
        low_sat_mass > 0.2,
        "veil should populate the low-saturation row: {low_sat_mass}"
    );
    // Histogram stays normalized.
    assert!((after.iter().sum::<f64>() - 1.0).abs() < 1e-12);
}

#[test]
fn veil_fraction_zero_is_identity() {
    let mut img = Image::solid(8, 8, Rgb::new(0.0, 1.0, 0.0));
    let before = img.pixels().to_vec();
    let mut rng = StdRng::seed_from_u64(1);
    apply_veil(&mut img, 0.0, &mut rng);
    assert_eq!(img.pixels(), &before[..]);
}

#[test]
fn veil_fraction_clamped() {
    // Fractions above 1 must not panic and may repaint everything.
    let mut img = Image::solid(8, 8, Rgb::new(0.0, 0.0, 1.0));
    let mut rng = StdRng::seed_from_u64(2);
    apply_veil(&mut img, 5.0, &mut rng);
    let cfg = HistogramConfig::default();
    let h = extract_histogram(&img, &cfg);
    assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
}
