//! Property-based coded-vs-`f64` diagonal equivalence.
//!
//! The default simulator stores an integer-weighted (or dyadic-weighted)
//! diagonal as `CostVec::Coded` — `u16` codes into the sorted distinct
//! costs — built once at precompute from an `i32` FWHT. Its contract (see
//! `qokit_costvec::costvec`):
//!
//! * a decoded cost has the bits of the `f64` FWHT precompute's, so every
//!   amplitude and energy of the default simulator is **bit-identical** to
//!   a simulator over `CostVec::F64(precompute_fwht(..))`, under
//!   {Interleaved, Split} × {Serial, Rayon} × pool sizes {1, 2, 4};
//! * `value`, `to_f64_vec`, `extrema`, `ground_state_indices` and
//!   `overlap` agree bit for bit too;
//! * diagonals the codes cannot hold exactly or compactly stay
//!   `CostVec::F64` with the bits of today's precompute.
//!
//! Forced-parallel policies (`min_len = 1`, tiny `min_chunk`) make the pool
//! paths — of the coder as well as the kernels — engage on small vectors.

use proptest::prelude::*;
use qokit::costvec::precompute_fwht;
use qokit::prelude::*;
use qokit::terms::labs::labs_terms;
use qokit::terms::maxcut::{all_to_all_terms, maxcut_polynomial};
use rand::SeedableRng;

/// Every layout × executor × pool size the equivalence must hold under.
fn policies() -> Vec<ExecPolicy> {
    let mut out = Vec::new();
    for layout in [Layout::Interleaved, Layout::Split] {
        for base in [
            ExecPolicy::serial(),
            ExecPolicy::rayon().with_min_len(1).with_min_chunk(4),
        ] {
            for threads in [1usize, 2, 4] {
                out.push(base.with_threads(threads).with_layout(layout));
            }
        }
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn amp_bits(s: &StateVec) -> Vec<(u64, u64)> {
    s.amplitudes()
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

/// Asserts the default simulator is bit-identical to one over the `f64`
/// FWHT diagonal under every policy; returns whether it was coded.
fn assert_default_matches_f64(poly: &SpinPolynomial, gammas: &[f64], betas: &[f64]) -> bool {
    let f64_costs = precompute_fwht(poly, Backend::Serial);
    let mut coded = None;
    for exec in policies() {
        let options = SimOptions {
            exec,
            ..SimOptions::default()
        };
        let sim = FurSimulator::with_options(poly, options.clone());
        let reference = FurSimulator::from_cost_vector(CostVec::F64(f64_costs.clone()), options);
        let (c, f) = (sim.cost_diagonal(), reference.cost_diagonal());
        let is_coded = matches!(c, CostVec::Coded { .. });
        assert_eq!(*coded.get_or_insert(is_coded), is_coded, "{exec:?}");

        // The diagonal itself.
        assert_eq!(bits(&c.to_f64_vec()), bits(&f64_costs), "{exec:?}");
        assert!((0..c.len()).all(|x| c.value(x).to_bits() == f.value(x).to_bits()));
        let ((lo, hi), (flo, fhi)) = (c.extrema(), f.extrema());
        assert_eq!((lo.to_bits(), hi.to_bits()), (flo.to_bits(), fhi.to_bits()));
        assert_eq!(c.ground_state_indices(1e-9), f.ground_state_indices(1e-9));

        // The evolution and its outputs.
        let (r, rf) = (
            sim.simulate_qaoa(gammas, betas),
            reference.simulate_qaoa(gammas, betas),
        );
        assert_eq!(amp_bits(r.state()), amp_bits(rf.state()), "{exec:?}");
        assert_eq!(
            sim.get_expectation(&r).to_bits(),
            reference.get_expectation(&rf).to_bits(),
            "{exec:?}"
        );
        assert_eq!(
            c.overlap(r.state().amplitudes()).to_bits(),
            f.overlap(rf.state().amplitudes()).to_bits()
        );
        let split = SplitStateVec::from(r.state());
        let (re, im) = split.planes();
        assert_eq!(
            c.expectation_split(re, im, exec).to_bits(),
            f.expectation_split(re, im, exec).to_bits(),
            "{exec:?}"
        );
    }
    coded.unwrap_or(false)
}

/// Strategy: a polynomial on `1..=12` variables whose weights are integers
/// in `[-16, 16)`, halved when `half` (MaxCut's ½ grid).
fn integer_poly_strategy(half: bool) -> impl Strategy<Value = SpinPolynomial> {
    (1usize..=12).prop_flat_map(move |n| {
        prop::collection::vec(
            (
                -16i64..16,
                prop::bits::u64::between(0, n).prop_map(move |m| m & ((1u64 << n) - 1)),
            ),
            1..24,
        )
        .prop_map(move |pairs| {
            let scale = if half { 0.5 } else { 1.0 };
            let terms = pairs
                .into_iter()
                .map(|(w, m)| Term::from_mask(w as f64 * scale, m))
                .collect();
            SpinPolynomial::new(n, terms)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn integer_weights_match_f64(
        poly in integer_poly_strategy(false),
        gammas in prop::collection::vec(-1.5f64..1.5, 2),
        betas in prop::collection::vec(-1.5f64..1.5, 2),
    ) {
        assert_default_matches_f64(&poly, &gammas, &betas);
    }

    #[test]
    fn half_integer_weights_match_f64(
        poly in integer_poly_strategy(true),
        gammas in prop::collection::vec(-1.5f64..1.5, 2),
        betas in prop::collection::vec(-1.5f64..1.5, 2),
    ) {
        assert_default_matches_f64(&poly, &gammas, &betas);
    }
}

#[test]
fn labs_is_coded_and_matches_f64() {
    for n in 8..=16 {
        let coded = assert_default_matches_f64(&labs_terms(n), &[0.21, -0.4], &[0.63, 0.17]);
        assert!(coded, "LABS n = {n} must take the coded diagonal");
    }
}

#[test]
fn three_regular_maxcut_is_coded_and_matches_f64() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let poly = maxcut_polynomial(&Graph::random_regular(12, 3, &mut rng));
    let coded = assert_default_matches_f64(&poly, &[0.33, 0.8], &[-0.45, 0.2]);
    assert!(
        coded,
        "half-integer MaxCut weights must take the coded diagonal"
    );
}

#[test]
fn uncodable_diagonals_stay_f64_with_todays_bits() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let cases = [
        ("0.3-weighted all-to-all", all_to_all_terms(7, 0.3)),
        (
            "Gaussian SK",
            qokit::terms::sk::SkInstance::random_gaussian(8, &mut rng).to_terms(),
        ),
        (
            "span of 2^16 or more",
            SpinPolynomial::new(6, vec![Term::new(70_000.0, &[0]), Term::new(1.0, &[1, 2])]),
        ),
        (
            "weights past i32",
            SpinPolynomial::new(5, vec![Term::new(3.0e9, &[0]), Term::new(1.0, &[1])]),
        ),
        (
            "constant polynomial",
            SpinPolynomial::new(4, vec![Term::constant(2.5)]),
        ),
        ("n = 1", SpinPolynomial::new(1, vec![Term::new(1.0, &[0])])),
    ];
    for (name, poly) in cases {
        let sim = FurSimulator::new(&poly);
        match sim.cost_diagonal() {
            CostVec::F64(v) => {
                assert_eq!(
                    bits(v),
                    bits(&precompute_fwht(&poly, Backend::Serial)),
                    "{name}"
                )
            }
            other => panic!("{name}: expected F64, got {other:?}"),
        }
        let coded = assert_default_matches_f64(&poly, &[0.7], &[0.3]);
        assert!(!coded, "{name}");
    }
}
