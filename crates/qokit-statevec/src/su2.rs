//! Algorithm 1 & 2 of the paper: in-place "fast SU(2)" butterfly kernels.
//!
//! `apply_mat2` applies `I ⊗ … ⊗ U ⊗ … ⊗ I` (single-qubit gate `U` on qubit
//! `q`) by mixing amplitude pairs whose indices differ in bit `q` —
//! Algorithm 1 with the paper's 1-based `d` replaced by `q = d − 1` (pair
//! stride `2^q`).
//!
//! `apply_uniform_mat2` is Algorithm 2: the same `U` applied to every qubit
//! in ascending order. For `U = e^{-iβX}` that is the whole
//! transverse-field mixer `e^{-iβΣᵢXᵢ}`, which [`apply_x_mixer`] runs with
//! a pair update specialised to `Rx` (real `cos β`/`sin β`: 8 multiplies per
//! pair instead of the general complex 2×2 product's 16).
//!
//! None of these sweeps the state once per qubit. They all run on the
//! two-pass cache-blocked traversal of `crate::blocked`: first every qubit
//! below `b = 16` inside 1 MiB blocks of `2^16` amplitudes, then the
//! qubits from `b` up on column tiles of the same size. So a mixer layer
//! reads the state twice (for `n ≤ 26`), in place, with no scratch memory —
//! the paper's advantage over the FWHT-sandwich approach (see `fwht`) kept.
//! Each amplitude pair sees the same operations in the same order as in a
//! qubit-by-qubit sweep, so results are bit-identical to that schedule and
//! across pool sizes.
//!
//! The `Rx` update equals the general product with `Mat2::rx(β)` except
//! for the sign of an exact zero (the general product adds `0·x` terms).
//!
//! Every entry point takes `impl Into<ExecPolicy>`; parallel sweeps split
//! over blocks and tiles, never below the policy's `min_chunk`.

use crate::blocked::{sweep, Lanes, Planes};
use crate::complex::C64;
use crate::exec::ExecPolicy;
use crate::matrices::Mat2;

/// Mixes two runs pairwise: `(lo_k, hi_k) ← U · (lo_k, hi_k)`.
#[inline(always)]
fn mix_runs(lo: &mut [C64], hi: &mut [C64], u: &Mat2) {
    for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
        let x0 = *l;
        let x1 = *h;
        *l = u.m[0][0] * x0 + u.m[0][1] * x1;
        *h = u.m[1][0] * x0 + u.m[1][1] * x1;
    }
}

/// The `Rx` pair update over two runs, `(x0, x1) ← (c·x0 − i s·x1,
/// −i s·x0 + c·x1)` with `c = cos β`, `s = sin β`: the interleaved twin of
/// the plane-wise `su4::xy_lanes`, with the same per-element operations.
#[inline(always)]
fn rx_runs(lo: &mut [C64], hi: &mut [C64], c: f64, s: f64) {
    for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
        let (x0, x1) = (*l, *h);
        *l = C64::new(c * x0.re + s * x1.im, c * x0.im - s * x1.re);
        *h = C64::new(s * x0.im + c * x1.re, c * x1.im - s * x0.re);
    }
}

/// Number of qubits of a power-of-two state length.
fn qubits_of(len: usize) -> usize {
    debug_assert!(len.is_power_of_two());
    len.trailing_zeros() as usize
}

/// Serial Algorithm 1: applies `U` to qubit `q` of the state in place.
///
/// # Panics
/// If `q` is out of range for the vector length.
pub fn apply_mat2_serial(amps: &mut [C64], q: usize, u: &Mat2) {
    apply_mat2(amps, q, u, ExecPolicy::serial());
}

/// Pool-parallel Algorithm 1 with default thresholds. Falls back to the
/// serial sweep for small vectors where task overhead dominates.
pub fn apply_mat2_rayon(amps: &mut [C64], q: usize, u: &Mat2) {
    apply_mat2(amps, q, u, ExecPolicy::rayon());
}

/// Policy-dispatched Algorithm 1.
///
/// # Panics
/// If `q` is out of range for the vector length.
#[inline]
pub fn apply_mat2(amps: &mut [C64], q: usize, u: &Mat2, exec: impl Into<ExecPolicy>) {
    sweep(Lanes::new(amps), q..q + 1, &exec.into(), |_, lo, hi| {
        mix_runs(lo, hi, u)
    });
}

/// Algorithm 2: applies the same `U` to **every** qubit, i.e. `U^{⊗n}`,
/// in place, with the general 2×2 pair update.
pub fn apply_uniform_mat2(amps: &mut [C64], u: &Mat2, exec: impl Into<ExecPolicy>) {
    let n = qubits_of(amps.len());
    sweep(Lanes::new(amps), 0..n, &exec.into(), |_, lo, hi| {
        mix_runs(lo, hi, u)
    });
}

/// The transverse-field mixer `e^{-iβΣᵢXᵢ}` in place: Algorithm 2 for
/// `U = Mat2::rx(β)` with the specialised `Rx` pair update.
pub fn apply_x_mixer(amps: &mut [C64], beta: f64, exec: impl Into<ExecPolicy>) {
    let n = qubits_of(amps.len());
    let (s, c) = beta.sin_cos();
    sweep(Lanes::new(amps), 0..n, &exec.into(), |_, lo, hi| {
        rx_runs(lo, hi, c, s)
    });
}

/// Generalized Algorithm 2 with a per-qubit matrix: applies
/// `U_{n-1} ⊗ … ⊗ U_1 ⊗ U_0` (qubit `i` receives `us[i]`).
///
/// # Panics
/// If `us.len()` does not match the qubit count of the vector.
pub fn apply_mat2_sequence(amps: &mut [C64], us: &[Mat2], exec: impl Into<ExecPolicy>) {
    let n = qubits_of(amps.len());
    assert_eq!(us.len(), n, "need one matrix per qubit");
    sweep(Lanes::new(amps), 0..n, &exec.into(), |q, lo, hi| {
        mix_runs(lo, hi, &us[q])
    });
}

// ------------------------------------------------------------ split-plane

/// The 2×2 complex matrix flattened into broadcast plane coefficients
/// `[ar, ai, br, bi, cr, ci, dr, di]` for the plane-wise mix.
#[inline]
fn mat2_planes(u: &Mat2) -> [f64; 8] {
    [
        u.m[0][0].re,
        u.m[0][0].im,
        u.m[0][1].re,
        u.m[0][1].im,
        u.m[1][0].re,
        u.m[1][0].im,
        u.m[1][1].re,
        u.m[1][1].im,
    ]
}

/// Plane-wise pair mix over four equal-length lane runs: the split twin of
/// [`mix_runs`], with no complex multiplies in the loop — four independent
/// `f64` output streams the autovectorizer packs (or the explicit `simd`
/// path handles).
#[inline]
fn mix_planes(rl: &mut [f64], il: &mut [f64], rh: &mut [f64], ih: &mut [f64], m: &[f64; 8]) {
    #[cfg(feature = "simd")]
    if crate::simd::su2_mix_f64(rl, il, rh, ih, m) {
        return;
    }
    let n = rl.len();
    let [ar, ai, br, bi, cr, ci, dr, di] = *m;
    // Equal-length reslices let the compiler drop the bounds checks.
    let (il, rh, ih) = (&mut il[..n], &mut rh[..n], &mut ih[..n]);
    for k in 0..n {
        let (xr0, xi0, xr1, xi1) = (rl[k], il[k], rh[k], ih[k]);
        rl[k] = ((ar * xr0 - ai * xi0) + br * xr1) - bi * xi1;
        il[k] = ((ar * xi0 + ai * xr0) + br * xi1) + bi * xr1;
        rh[k] = ((cr * xr0 - ci * xi0) + dr * xr1) - di * xi1;
        ih[k] = ((cr * xi0 + ci * xr0) + dr * xi1) + di * xr1;
    }
}

/// Serial split-plane Algorithm 1: applies `U` to qubit `q` of the
/// `re`/`im` planes in place.
///
/// # Panics
/// If plane lengths differ, or `q` is out of range.
pub fn apply_mat2_split_serial(re: &mut [f64], im: &mut [f64], q: usize, u: &Mat2) {
    apply_mat2_split(re, im, q, u, ExecPolicy::serial());
}

/// Policy-dispatched split-plane Algorithm 1.
///
/// # Panics
/// If plane lengths differ, or `q` is out of range.
#[inline]
pub fn apply_mat2_split(
    re: &mut [f64],
    im: &mut [f64],
    q: usize,
    u: &Mat2,
    exec: impl Into<ExecPolicy>,
) {
    let m = mat2_planes(u);
    sweep(
        Planes::new(re, im),
        q..q + 1,
        &exec.into(),
        |_, (rl, il), (rh, ih)| mix_planes(rl, il, rh, ih, &m),
    );
}

/// Split-plane Algorithm 2: applies the same `U` to every qubit of the
/// `re`/`im` planes with the general pair update.
///
/// # Panics
/// If plane lengths differ.
pub fn apply_uniform_mat2_split(
    re: &mut [f64],
    im: &mut [f64],
    u: &Mat2,
    exec: impl Into<ExecPolicy>,
) {
    let n = qubits_of(re.len());
    let m = mat2_planes(u);
    sweep(
        Planes::new(re, im),
        0..n,
        &exec.into(),
        |_, (rl, il), (rh, ih)| mix_planes(rl, il, rh, ih, &m),
    );
}

/// Split-plane [`apply_x_mixer`]: the transverse-field mixer on the
/// `re`/`im` planes, with the same per-element operations.
///
/// # Panics
/// If plane lengths differ.
pub fn apply_x_mixer_split(re: &mut [f64], im: &mut [f64], beta: f64, exec: impl Into<ExecPolicy>) {
    let n = qubits_of(re.len());
    let (s, c) = beta.sin_cos();
    sweep(
        Planes::new(re, im),
        0..n,
        &exec.into(),
        |_, (rl, il), (rh, ih)| crate::su4::xy_lanes(rl, il, rh, ih, c, s),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Backend;
    use crate::reference;
    use crate::state::StateVec;

    fn assert_close(a: &[C64], b: &[C64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(x.approx_eq(*y, tol), "index {i}: {x} vs {y}");
        }
    }

    fn random_state(n: usize, seed: u64) -> StateVec {
        // Deterministic pseudo-random amplitudes (splitmix64-based).
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z = z ^ (z >> 31);
            (z as f64 / u64::MAX as f64) - 0.5
        };
        let mut v =
            StateVec::from_amplitudes((0..1usize << n).map(|_| C64::new(next(), next())).collect());
        v.normalize();
        v
    }

    #[test]
    fn matches_reference_on_every_qubit() {
        let n = 5;
        for q in 0..n {
            let mut s = random_state(n, 42 + q as u64);
            let expect = reference::apply_1q_reference(s.amplitudes(), q, &Mat2::rx(0.37));
            apply_mat2_serial(s.amplitudes_mut(), q, &Mat2::rx(0.37));
            assert_close(s.amplitudes(), &expect, 1e-12);
        }
    }

    #[test]
    fn rayon_matches_serial() {
        // Exercise both the multi-block and single-block parallel paths.
        for n in [4usize, 14] {
            for q in [0, n / 2, n - 1] {
                let u = Mat2::ry(1.1).matmul(&Mat2::rz(0.3));
                let mut a = random_state(n, 7);
                let mut b = a.clone();
                apply_mat2_serial(a.amplitudes_mut(), q, &u);
                apply_mat2_rayon(b.amplitudes_mut(), q, &u);
                assert_close(a.amplitudes(), b.amplitudes(), 1e-12);
            }
        }
    }

    #[test]
    fn forced_parallel_matches_serial_small() {
        // A min_len/min_chunk of 1 drives the parallel path on small states,
        // exercising real pool splits regardless of the machine size.
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(1);
        for n in [3usize, 6, 10] {
            for q in 0..n {
                let u = Mat2::ry(0.7).matmul(&Mat2::rz(1.9));
                let mut a = random_state(n, 100 + q as u64);
                let mut b = a.clone();
                apply_mat2_serial(a.amplitudes_mut(), q, &u);
                apply_mat2(b.amplitudes_mut(), q, &u, forced);
                assert_close(a.amplitudes(), b.amplitudes(), 1e-12);
            }
        }
    }

    #[test]
    fn preserves_norm() {
        let mut s = random_state(8, 3);
        apply_uniform_mat2(s.amplitudes_mut(), &Mat2::rx(0.9), Backend::Serial);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn hadamard_on_all_gives_uniform() {
        let n = 6;
        let mut s = StateVec::zero_state(n);
        apply_uniform_mat2(s.amplitudes_mut(), &Mat2::hadamard(), Backend::Serial);
        let expect = StateVec::uniform_superposition(n);
        assert!(s.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn x_on_qubit_flips_basis_state() {
        let mut s = StateVec::basis_state(4, 0b0010);
        apply_mat2_serial(s.amplitudes_mut(), 3, &Mat2::pauli_x());
        assert_eq!(s.amplitudes()[0b1010], C64::ONE);
    }

    #[test]
    fn inverse_round_trips() {
        let u = Mat2::rx(0.77);
        let mut s = random_state(7, 11);
        let orig = s.clone();
        apply_uniform_mat2(s.amplitudes_mut(), &u, Backend::Serial);
        apply_uniform_mat2(s.amplitudes_mut(), &u.dagger(), Backend::Serial);
        assert!(s.max_abs_diff(&orig) < 1e-10);
    }

    #[test]
    fn sequence_applies_per_qubit() {
        let n = 3;
        let us = [Mat2::rx(0.1), Mat2::ry(0.2), Mat2::rz(0.3)];
        let mut s = random_state(n, 5);
        let mut expect = s.amplitudes().to_vec();
        for (q, u) in us.iter().enumerate() {
            expect = reference::apply_1q_reference(&expect, q, u);
        }
        apply_mat2_sequence(s.amplitudes_mut(), &us, Backend::Serial);
        assert_close(s.amplitudes(), &expect, 1e-12);
    }

    #[test]
    fn split_matches_interleaved_on_every_qubit() {
        let n = 8;
        let u = Mat2::rx(0.83).matmul(&Mat2::rz(0.41));
        for q in 0..n {
            let s = random_state(n, 300 + q as u64);
            let mut interleaved = s.clone();
            apply_mat2_serial(interleaved.amplitudes_mut(), q, &u);
            let mut split = crate::split::SplitStateVec::from(&s);
            let (re, im) = split.planes_mut();
            apply_mat2_split_serial(re, im, q, &u);
            assert!(
                split.max_abs_diff_interleaved(interleaved.amplitudes()) < 1e-12,
                "qubit {q}"
            );
        }
    }

    #[test]
    fn split_forced_parallel_matches_serial() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(1);
        let n = 9;
        let u = Mat2::ry(1.3).matmul(&Mat2::rz(0.7));
        for q in [0usize, 4, n - 1] {
            let s = random_state(n, 400 + q as u64);
            let mut a = crate::split::SplitStateVec::from(&s);
            let mut b = a.clone();
            {
                let (re, im) = a.planes_mut();
                apply_mat2_split_serial(re, im, q, &u);
            }
            {
                let (re, im) = b.planes_mut();
                apply_mat2_split(re, im, q, &u, forced);
            }
            assert_eq!(a, b, "qubit {q}: split kernel is split-invariant");
        }
    }

    #[test]
    fn split_uniform_matches_interleaved_mixer() {
        let n = 7;
        let u = Mat2::rx(0.59);
        let s = random_state(n, 500);
        let mut interleaved = s.clone();
        apply_uniform_mat2(interleaved.amplitudes_mut(), &u, Backend::Serial);
        let mut split = crate::split::SplitStateVec::from(&s);
        let (re, im) = split.planes_mut();
        apply_uniform_mat2_split(re, im, &u, Backend::Serial);
        assert!(split.max_abs_diff_interleaved(interleaved.amplitudes()) < 1e-12);
    }

    /// Pass-1 block width in qubits for 16-byte amplitudes (1 MiB blocks).
    const B: usize = 16;

    fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    #[test]
    fn x_mixer_matches_reference_across_the_block_boundary() {
        let beta = 0.71;
        for n in [3usize, B - 1, B, B + 1, 20] {
            let s = random_state(n, 600 + n as u64);
            let mut expect = s.amplitudes().to_vec();
            for q in 0..n {
                expect = reference::apply_1q_reference(&expect, q, &Mat2::rx(beta));
            }
            for policy in [ExecPolicy::serial(), ExecPolicy::rayon()] {
                let mut got = s.clone();
                apply_x_mixer(got.amplitudes_mut(), beta, policy);
                assert_close(got.amplitudes(), &expect, 1e-12);
                let mut split = crate::split::SplitStateVec::from(&s);
                let (re, im) = split.planes_mut();
                apply_x_mixer_split(re, im, beta, policy);
                assert!(split.max_abs_diff_interleaved(&expect) <= 1e-12, "n = {n}");
            }
        }
    }

    #[test]
    fn x_mixer_is_bit_identical_across_pools_and_to_the_unblocked_schedule() {
        use crate::blocked::{sweep_unblocked, Lanes, Planes};
        let beta = 1.13f64;
        let (sin, cos) = beta.sin_cos();
        let forced = ExecPolicy::rayon().with_min_len(1);
        for n in [5usize, 11, B + 2] {
            let s = random_state(n, 700 + n as u64);
            let mut plain = s.clone();
            sweep_unblocked(Lanes::new(plain.amplitudes_mut()), 0..n, |_, lo, hi| {
                rx_runs(lo, hi, cos, sin)
            });
            let mut plain_split = crate::split::SplitStateVec::from(&s);
            let (re, im) = plain_split.planes_mut();
            sweep_unblocked(Planes::new(re, im), 0..n, |_, (rl, il), (rh, ih)| {
                crate::su4::xy_lanes(rl, il, rh, ih, cos, sin)
            });
            for threads in [1usize, 2, 4] {
                for min_chunk in [1usize, 64, 1 << 12] {
                    let policy = forced.with_min_chunk(min_chunk).with_threads(threads);
                    let mut got = s.clone();
                    apply_x_mixer(got.amplitudes_mut(), beta, policy);
                    assert_eq!(
                        bits(got.amplitudes()),
                        bits(plain.amplitudes()),
                        "{policy:?}"
                    );
                    let mut split = crate::split::SplitStateVec::from(&s);
                    let (re, im) = split.planes_mut();
                    apply_x_mixer_split(re, im, beta, policy);
                    let same = split
                        .planes()
                        .0
                        .iter()
                        .zip(plain_split.planes().0)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                        && split
                            .planes()
                            .1
                            .iter()
                            .zip(plain_split.planes().1)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "split, n = {n}, {policy:?}");
                }
            }
        }
    }

    #[test]
    fn rx_update_equals_the_general_product() {
        // Equal under `==`: only the sign of an exact zero may differ.
        for n in [4usize, 13] {
            let beta = 0.29;
            let mut rx = random_state(n, 800 + n as u64);
            let mut general = rx.clone();
            apply_x_mixer(rx.amplitudes_mut(), beta, Backend::Serial);
            apply_uniform_mat2(general.amplitudes_mut(), &Mat2::rx(beta), Backend::Serial);
            assert_eq!(rx.amplitudes(), general.amplitudes(), "n = {n}");
        }
    }

    #[test]
    fn mixer_order_is_irrelevant() {
        // The e^{-iβxᵢ} factors commute, so qubit order must not matter.
        let n = 5;
        let u = Mat2::rx(0.63);
        let mut fwd = random_state(n, 9);
        let mut rev = fwd.clone();
        for q in 0..n {
            apply_mat2_serial(fwd.amplitudes_mut(), q, &u);
        }
        for q in (0..n).rev() {
            apply_mat2_serial(rev.amplitudes_mut(), q, &u);
        }
        assert!(fwd.max_abs_diff(&rev) < 1e-12);
    }
}
