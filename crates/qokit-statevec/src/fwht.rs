//! Fast Walsh–Hadamard transform (FWHT).
//!
//! Two roles in this reproduction:
//!
//! 1. **Cost-vector precomputation.** The spin polynomial of Eq. 1 is a
//!    sparse Walsh spectrum: `f(x) = Σ_k w_k (−1)^{popcount(x & m_k)}` is
//!    the (unnormalized) WHT of the coefficient vector `ŵ[m_k] = w_k`. One
//!    `O(n·2^n)` FWHT therefore evaluates every `f(x)` at once — this is our
//!    CPU substitute for the paper's massively parallel GPU precompute
//!    kernel (see `qokit-costvec`).
//!
//! 2. **The Ref.\[43\] ablation.** The paper's conclusion contrasts its
//!    one-pass in-place mixer (Algorithms 1–2) with the earlier
//!    FWHT-sandwich approach, which needs a forward transform, a diagonal,
//!    an inverse transform, and an extra state copy. We implement that
//!    approach too (`apply_x_mixer_fwht*`) so the comparison can be
//!    benchmarked (`abl_fwht`).
//!
//! Every entry point takes `impl Into<ExecPolicy>`, so both a bare
//! [`Backend`](crate::exec::Backend) and a tuned [`ExecPolicy`] select the
//! executor and split sizes.

use crate::blocked::{sweep, Lanes};
use crate::complex::C64;
use crate::exec::ExecPolicy;
use rayon::prelude::*;
use std::ops::{Add, Sub};

/// Complex butterfly over two runs: `(lo_k, hi_k) ← (lo_k + hi_k, lo_k − hi_k)`.
#[inline(always)]
fn butterfly_runs(lo: &mut [C64], hi: &mut [C64]) {
    for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
        let x0 = *l;
        let x1 = *h;
        *l = x0 + x1;
        *h = x0 - x1;
    }
}

/// In-place unnormalized FWHT of a complex vector: applies the butterfly
/// `(x0, x1) ← (x0 + x1, x0 − x1)` over every bit. Self-inverse up to a
/// factor `N = 2^n`.
pub fn fwht_serial(amps: &mut [C64]) {
    fwht(amps, ExecPolicy::serial());
}

/// Pool-parallel unnormalized FWHT with default thresholds (falls back to
/// the serial sweep below [`crate::exec::PAR_MIN_LEN`]).
pub fn fwht_rayon(amps: &mut [C64]) {
    fwht(amps, ExecPolicy::rayon());
}

/// Policy-dispatched unnormalized FWHT, on the cache-blocked traversal of
/// the `su2` kernels: bit-identical to the stride-by-stride schedule for
/// every policy.
#[inline]
pub fn fwht(amps: &mut [C64], exec: impl Into<ExecPolicy>) {
    let n = amps.len().trailing_zeros() as usize;
    debug_assert!(amps.len().is_power_of_two());
    sweep(Lanes::new(amps), 0..n, &exec.into(), |_, lo, hi| {
        butterfly_runs(lo, hi)
    });
}

/// Butterfly over two equal-length real runs:
/// `(lo_k, hi_k) ← (lo_k + hi_k, lo_k − hi_k)`.
///
/// The body is two independent streams of adds/subs — exactly the shape
/// the autovectorizer packs.
#[inline(always)]
fn butterfly_scalar<T: Copy + Add<Output = T> + Sub<Output = T>>(lo: &mut [T], hi: &mut [T]) {
    debug_assert_eq!(lo.len(), hi.len());
    for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
        let x0 = *l;
        let x1 = *h;
        *l = x0 + x1;
        *h = x0 - x1;
    }
}

/// A real lane type the blocked FWHT runs on: `f64` for the cost
/// precompute, `i32` for its integer route (`qokit-costvec` codes an
/// integer-weighted diagonal without an `f64` pass). Both add and subtract
/// exactly while no partial sum leaves the type's exact range, so the
/// transform of integer input is the same integers in either type.
pub trait FwhtLane: Copy + Send + Sync + 'static + Add<Output = Self> + Sub<Output = Self> {
    /// Butterfly over two equal-length runs:
    /// `(lo_k, hi_k) ← (lo_k + hi_k, lo_k − hi_k)`.
    #[inline(always)]
    fn butterfly(lo: &mut [Self], hi: &mut [Self]) {
        butterfly_scalar(lo, hi);
    }
}

/// With the `simd` feature the explicit AVX2/NEON path runs instead of the
/// scalar body; IEEE add/sub is exact per lane, so both are bit-identical.
impl FwhtLane for f64 {
    #[inline]
    fn butterfly(lo: &mut [f64], hi: &mut [f64]) {
        #[cfg(feature = "simd")]
        if crate::simd::butterfly_f64(lo, hi) {
            return;
        }
        butterfly_scalar(lo, hi);
    }
}

/// Integer lanes: the caller bounds `Σ|input|` by `i32::MAX`, which bounds
/// every partial sum, so no butterfly overflows.
impl FwhtLane for i32 {}

/// In-place unnormalized FWHT of a **real** vector — the form used by the
/// cost-vector precompute, where both the sparse spectrum and the result
/// are real.
///
/// Runs on the cache-blocked traversal: the low passes inside 1 MiB blocks,
/// then the high passes on column tiles, i.e. the factorization
/// `H_{2^n} = (H_R ⊗ I_C)(I_R ⊗ H_C)`. Every element goes through the same
/// butterfly DAG in the same per-node operand order as the stride-by-stride
/// schedule — only the traversal order of independent nodes changes — so
/// the result is bit-identical to it, serial or parallel.
pub fn fwht_real<T: FwhtLane>(vals: &mut [T], exec: impl Into<ExecPolicy>) {
    let n = vals.len().trailing_zeros() as usize;
    debug_assert!(vals.len().is_power_of_two());
    sweep(Lanes::new(vals), 0..n, &exec.into(), |_, lo, hi| {
        T::butterfly(lo, hi)
    });
}

/// Split-complex FWHT: transforms the `re` and `im` planes of a
/// [`crate::split::SplitStateVec`] independently.
///
/// The complex butterfly `(x0, x1) ← (x0 + x1, x0 − x1)` never mixes real
/// and imaginary parts, so the split-layout transform is literally two
/// independent **real** transforms ([`fwht_real`]) — each a pure `f64`
/// stream the autovectorizer packs, each cache-blocked.
///
/// # Panics
/// If the planes have different lengths.
pub fn fwht_split(re: &mut [f64], im: &mut [f64], exec: impl Into<ExecPolicy>) {
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    let policy = exec.into();
    fwht_real(re, policy);
    fwht_real(im, policy);
}

/// The transverse-field mixer via the Ref.\[43\] FWHT sandwich, **in place**:
/// `e^{-iβΣX} = H^{⊗n} · diag(e^{-iβ(n-2·popcount)}) · H^{⊗n}`.
///
/// Costs two full FWHT passes plus a diagonal pass — versus one butterfly
/// pass for Algorithm 2. The `1/N` normalization of the double transform is
/// folded into the diagonal.
pub fn apply_x_mixer_fwht_inplace(amps: &mut [C64], beta: f64, exec: impl Into<ExecPolicy>) {
    let policy = exec.into();
    // One install for the whole sandwich; the inner fwht calls run inline
    // on the already-entered pool.
    policy.install(|| {
        let len = amps.len();
        let n = len.trailing_zeros() as i32;
        fwht(amps, policy);
        let inv_n = 1.0 / len as f64;
        let diag_at = |x: usize| {
            let z = n - 2 * (x.count_ones() as i32);
            C64::cis(-beta * z as f64).scale(inv_n)
        };
        if policy.parallel(len) {
            amps.par_iter_mut()
                .with_min_len(policy.min_chunk)
                .enumerate()
                .for_each(|(x, a)| *a *= diag_at(x));
        } else {
            for (x, a) in amps.iter_mut().enumerate() {
                *a *= diag_at(x);
            }
        }
        fwht(amps, policy);
    });
}

/// The Ref.\[43\] mixer as literally described: allocates a scratch copy of
/// the state (their FWHT is out-of-place). Functionally identical to
/// [`apply_x_mixer_fwht_inplace`]; exists so the `abl_fwht` benchmark can
/// charge the extra `2^n` allocation the paper calls out.
pub fn apply_x_mixer_fwht_copying(amps: &mut [C64], beta: f64, exec: impl Into<ExecPolicy>) {
    let mut scratch = amps.to_vec();
    apply_x_mixer_fwht_inplace(&mut scratch, beta, exec);
    amps.copy_from_slice(&scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Backend;
    use crate::matrices::Mat2;
    use crate::state::StateVec;
    use crate::su2::apply_uniform_mat2;

    fn random_state(n: usize, seed: u64) -> StateVec {
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
    fn fwht_is_self_inverse_up_to_n() {
        let mut s = random_state(8, 1);
        let orig = s.clone();
        fwht_serial(s.amplitudes_mut());
        fwht_serial(s.amplitudes_mut());
        let scale = 1.0 / s.dim() as f64;
        for (a, b) in s.amplitudes().iter().zip(orig.amplitudes().iter()) {
            assert!(a.scale(scale).approx_eq(*b, 1e-10));
        }
    }

    #[test]
    fn fwht_matches_hadamard_on_all_qubits() {
        let n = 7;
        let mut via_fwht = random_state(n, 2);
        let mut via_gates = via_fwht.clone();
        fwht_serial(via_fwht.amplitudes_mut());
        // Unnormalized FWHT = (√2 H)^{⊗n} = 2^{n/2}·H^{⊗n}.
        apply_uniform_mat2(
            via_gates.amplitudes_mut(),
            &Mat2::hadamard(),
            Backend::Serial,
        );
        let scale = 1.0 / (via_fwht.dim() as f64).sqrt();
        for (a, b) in via_fwht
            .amplitudes()
            .iter()
            .zip(via_gates.amplitudes().iter())
        {
            assert!(a.scale(scale).approx_eq(*b, 1e-10));
        }
    }

    #[test]
    fn fwht_rayon_matches_serial() {
        let mut a = random_state(14, 3);
        let mut b = a.clone();
        fwht_serial(a.amplitudes_mut());
        fwht_rayon(b.amplitudes_mut());
        assert!(a.max_abs_diff(&b) < 1e-9);
    }

    #[test]
    fn fwht_forced_parallel_matches_serial_small() {
        // min_len = 1 engages the parallel path even on tiny vectors; the
        // odd min_chunk values check block alignment survives hand tuning.
        for min_chunk in [2usize, 3, 7] {
            let forced = ExecPolicy::rayon()
                .with_min_len(1)
                .with_min_chunk(min_chunk);
            for n in [2usize, 5, 9] {
                let mut a = random_state(n, 11 + n as u64);
                let mut b = a.clone();
                fwht_serial(a.amplitudes_mut());
                fwht(b.amplitudes_mut(), forced);
                assert!(
                    a.max_abs_diff(&b) < 1e-9,
                    "n = {n}, min_chunk = {min_chunk}"
                );
            }
        }
    }

    #[test]
    fn fwht_f64_matches_complex() {
        let n = 10;
        let vals: Vec<f64> = (0..1usize << n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut re = vals.clone();
        fwht_real(&mut re, Backend::Serial);
        let mut cx: Vec<C64> = vals.iter().map(|&v| C64::from_re(v)).collect();
        fwht_serial(&mut cx);
        for (r, c) in re.iter().zip(cx.iter()) {
            assert!((r - c.re).abs() < 1e-9);
            assert!(c.im.abs() < 1e-12);
        }
        let mut rp = vals.clone();
        fwht_real(
            &mut rp,
            ExecPolicy::rayon().with_min_len(1).with_min_chunk(4),
        );
        for (a, b) in rp.iter().zip(re.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn fwht_of_delta_is_walsh_character() {
        // δ_m transforms to x ↦ (−1)^{popcount(x & m)}.
        let n = 5;
        let m = 0b10110usize;
        let mut v = vec![C64::ZERO; 1 << n];
        v[m] = C64::ONE;
        fwht_serial(&mut v);
        for (x, a) in v.iter().enumerate() {
            let sign = if (x & m).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            assert!(a.approx_eq(C64::from_re(sign), 1e-12), "x = {x}");
        }
    }

    #[test]
    fn fwht_mixer_matches_algorithm_2() {
        for n in [3usize, 8] {
            let beta = 0.83;
            let mut sandwich = random_state(n, 4);
            let mut butterfly = sandwich.clone();
            apply_x_mixer_fwht_inplace(sandwich.amplitudes_mut(), beta, Backend::Serial);
            apply_uniform_mat2(butterfly.amplitudes_mut(), &Mat2::rx(beta), Backend::Serial);
            assert!(
                sandwich.max_abs_diff(&butterfly) < 1e-10,
                "n = {n}: FWHT sandwich must equal the one-pass mixer"
            );
        }
    }

    #[test]
    fn fwht_mixer_copying_matches_inplace() {
        let mut a = random_state(9, 5);
        let mut b = a.clone();
        apply_x_mixer_fwht_inplace(a.amplitudes_mut(), 0.4, Backend::Serial);
        apply_x_mixer_fwht_copying(b.amplitudes_mut(), 0.4, Backend::Serial);
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn fwht_mixer_preserves_norm() {
        let mut s = random_state(10, 6);
        apply_x_mixer_fwht_inplace(s.amplitudes_mut(), 1.9, Backend::Rayon);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn blocked_fwht_is_bit_identical_to_passes() {
        // 2^18 doubles: two 1 MiB blocks serially, so both blocked passes
        // (low passes per block, column-tiled high passes) engage; the
        // forced-parallel policies cut it into many smaller blocks and tiles.
        let vals: Vec<f64> = (0..1usize << 18)
            .map(|i| (i as f64 * 0.7321).sin())
            .collect();
        let mut plain = vals.clone();
        crate::blocked::sweep_unblocked(Lanes::new(&mut plain), 0..18, |_, lo, hi| {
            f64::butterfly(lo, hi)
        });
        let forced = ExecPolicy::rayon().with_min_len(1);
        let policies = [
            ExecPolicy::serial(),
            ExecPolicy::rayon(),
            forced.with_min_chunk(1).with_threads(2),
            forced.with_min_chunk(64).with_threads(4),
            forced.with_min_chunk(1 << 12).with_threads(1),
        ];
        for policy in policies {
            let mut blocked = vals.clone();
            fwht_real(&mut blocked, policy);
            assert!(
                plain == blocked,
                "{policy:?}: blocked schedule must be bit-identical"
            );
        }
    }

    #[test]
    fn i32_fwht_matches_f64_bit_for_bit() {
        // 2^18 integers in [-4096, 4096): Σ|v| ≤ 2^30, so no i32 partial
        // sum overflows and every f64 partial sum is an exact integer.
        let ints: Vec<i32> = (0..1i64 << 18)
            .map(|i| ((i * 2_654_435_761) % 8192) as i32 - 4096)
            .collect();
        let floats: Vec<f64> = ints.iter().map(|&v| v as f64).collect();
        let forced = ExecPolicy::rayon().with_min_len(1);
        let policies = [
            ExecPolicy::serial(),
            ExecPolicy::rayon(),
            forced.with_min_chunk(1).with_threads(2),
            forced.with_min_chunk(64).with_threads(4),
            forced.with_min_chunk(1 << 12).with_threads(1),
        ];
        for policy in policies {
            let mut a = ints.clone();
            fwht_real(&mut a, policy);
            let mut b = floats.clone();
            fwht_real(&mut b, policy);
            assert!(
                a.iter()
                    .zip(&b)
                    .all(|(&i, &f)| (i as f64).to_bits() == f.to_bits()),
                "{policy:?}: i32 lanes must reproduce the f64 transform"
            );
        }
    }

    #[test]
    fn fwht_split_matches_complex() {
        for n in [3usize, 9, 13] {
            let s = random_state(n, 21 + n as u64);
            let mut interleaved = s.clone();
            fwht_serial(interleaved.amplitudes_mut());
            let mut split = crate::split::SplitStateVec::from(&s);
            let (re, im) = split.planes_mut();
            fwht_split(re, im, Backend::Serial);
            assert_eq!(
                split.max_abs_diff_interleaved(interleaved.amplitudes()),
                0.0,
                "n = {n}: plane-wise butterflies are the same adds/subs"
            );
        }
    }

    #[test]
    fn fwht_split_forced_parallel_matches_serial() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(4);
        let s = random_state(10, 77);
        let mut a = crate::split::SplitStateVec::from(&s);
        let mut b = a.clone();
        let (re, im) = a.planes_mut();
        fwht_split(re, im, Backend::Serial);
        let (re, im) = b.planes_mut();
        fwht_split(re, im, forced);
        assert_eq!(a, b, "parallel split FWHT must match serial exactly");
    }
}
