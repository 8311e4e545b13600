//! Diagonal-operator kernels: the phase operator and the objective.
//!
//! These two kernels are the paper's central payoff. Once the cost vector
//! `⃗C` is precomputed, one QAOA phase operator is a single elementwise
//! product `ψ_k ← e^{-iγ c_k} ψ_k` (`apply_phase`), and the QAOA objective
//! `⟨γβ|Ĉ|γβ⟩` is a single inner product `Σ c_k |ψ_k|²` (`expectation`) —
//! no gates, no extra state copies.
//!
//! Each kernel comes in three variants, one per stored diagonal:
//!
//! * `f64` — the costs themselves.
//! * `u16` — the affine quantized vector of §V-B of the paper
//!   (`value = offset + scale·q`), decoded on the fly so the 2-byte
//!   representation never inflates to 8 bytes in memory.
//! * `coded` — `value = levels[codes[x]]`: a `u16` code per entry into a
//!   sorted table of the distinct costs. `qokit-costvec` builds it once, at
//!   precompute, for integer (or dyadic) weights; `levels[codes[x]]` has the
//!   bits of the `f64` cost, so the coded kernels reproduce the `f64` ones
//!   bit for bit.
//!
//! # The phase table
//!
//! Costs of the common problems sit on an integer grid: the LABS diagonal
//! at `n = 22` (`labs_terms`) spans 1637 integer levels, 201 of them
//! taken, over 4M entries. The coded kernels use that directly: the codes
//! are built once, when the diagonal is precomputed, so a phase call
//! computes `t[k] = cis(−γ·levels[k])` once per distinct level and then
//! multiplies `ψ_x` by `t[codes[x]]`, with no scan of the diagonal.
//!
//! The `f64` and `u16` entry points (interleaved, split, serial, parallel)
//! serve what is not coded — the `f64` vectors of `CostVec::F64`, the
//! §V-B `u16` vectors, and raw cost slices such as the distributed ranks'
//! — and rediscover the grid on every call through one private table:
//!
//! 1. Scan the diagonal's finite extrema `lo ≤ hi` (for `u16`, of the
//!    codes `q`).
//! 2. If the grid `lo, lo + 1, …` covers `[lo, hi]` in at most
//!    `min(2^n, 2^16)` levels (a table of ≤ 1 MiB), build
//!    `t[k] = cis(−γ·c(lo + k))`, where `c` is the identity for `f64` and
//!    `offset + scale·q` for `u16`.
//! 3. For each entry `x`, use `t[k]` with `k = (x − lo) as usize` when
//!    `lo + k` equals `x` bit for bit.
//! 4. Otherwise — off-grid, NaN, ±∞, −0.0, or no table — compute
//!    `cis(−γ·c(x))` for that entry.
//!
//! A table entry is computed by the same expression, from the same bits,
//! as the per-entry `cis` it replaces, so either table gives a phase
//! bit-identical to calling `C64::cis(−γ·c_k)` on every entry, while an
//! integer-valued diagonal costs about one `sin_cos` per distinct level
//! instead of one per amplitude.
//!
//! Every dispatcher takes `impl Into<ExecPolicy>`; parallel sweeps split by
//! the policy's chunking thresholds.

use crate::complex::C64;
use crate::exec::ExecPolicy;
use rayon::prelude::*;

/// Most levels a phase table holds: `2^16` entries, 1 MiB of `C64`.
const MAX_TABLE_LEVELS: usize = 1 << 16;

/// The per-call phase factors `e^{-iγ c(x)}` of one diagonal (see the
/// module docs). Entries `x` are `f64` costs, or `u16` codes read as `f64`.
struct PhaseTable {
    gamma: f64,
    /// `(offset, scale)` decoding a `u16` code `x` to `offset + scale·x`;
    /// `None` when entries are the costs themselves.
    decode: Option<(f64, f64)>,
    /// Grid origin: the smallest finite entry.
    lo: f64,
    /// `t[k] = cis(−γ·c(lo + k))`; empty when the span does not fit.
    t: Vec<C64>,
}

impl PhaseTable {
    fn new<L>(entries: &[L], gamma: f64, decode: Option<(f64, f64)>, policy: &ExecPolicy) -> Self
    where
        L: Copy + Into<f64> + Sync,
    {
        let empty = (f64::INFINITY, f64::NEG_INFINITY);
        let finite = |x: f64| if x.is_finite() { (x, x) } else { empty };
        let widen = |a: (f64, f64), b: (f64, f64)| (a.0.min(b.0), a.1.max(b.1));
        let (lo, hi) = if policy.parallel(entries.len()) {
            entries
                .par_iter()
                .with_min_len(policy.min_chunk)
                .map(|&x| finite(x.into()))
                .reduce(|| empty, widen)
        } else {
            entries.iter().map(|&x| finite(x.into())).fold(empty, widen)
        };
        let mut table = PhaseTable {
            gamma,
            decode,
            lo,
            t: Vec::new(),
        };
        if lo <= hi && hi - lo < entries.len().min(MAX_TABLE_LEVELS) as f64 {
            let levels = (hi - lo) as usize + 1;
            table.t = (0..levels)
                .map(|k| C64::cis(-gamma * table.cost(lo + k as f64)))
                .collect();
        }
        table
    }

    #[inline(always)]
    fn cost(&self, x: f64) -> f64 {
        match self.decode {
            None => x,
            Some((offset, scale)) => offset + scale * x,
        }
    }

    /// `cis(−γ·c(x))`, from the table when `x` sits exactly on its grid.
    #[inline(always)]
    fn factor(&self, x: f64) -> C64 {
        // Saturating cast: NaN and values below `lo` give 0, +∞ gives
        // `usize::MAX`; the bitwise check then sends them to `cis`.
        let k = (x - self.lo) as usize;
        match self.t.get(k) {
            Some(&z) if (self.lo + k as f64).to_bits() == x.to_bits() => z,
            _ => C64::cis(-self.gamma * self.cost(x)),
        }
    }
}

/// The one phase kernel behind every interleaved entry point.
fn phase<L>(
    amps: &mut [C64],
    entries: &[L],
    gamma: f64,
    decode: Option<(f64, f64)>,
    policy: ExecPolicy,
) where
    L: Copy + Into<f64> + Sync,
{
    assert_eq!(amps.len(), entries.len(), "cost vector length mismatch");
    if policy.parallel(amps.len()) {
        policy.install(|| {
            let table = PhaseTable::new(entries, gamma, decode, &policy);
            amps.par_iter_mut()
                .with_min_len(policy.min_chunk)
                .zip(entries.par_iter().with_min_len(policy.min_chunk))
                .for_each(|(a, &x)| *a *= table.factor(x.into()));
        });
    } else {
        let table = PhaseTable::new(entries, gamma, decode, &policy);
        for (a, &x) in amps.iter_mut().zip(entries.iter()) {
            *a *= table.factor(x.into());
        }
    }
}

/// Serial phase operator: `ψ_k ← e^{-iγ c_k} ψ_k`.
///
/// # Panics
/// If `amps` and `costs` lengths differ.
pub fn apply_phase_serial(amps: &mut [C64], costs: &[f64], gamma: f64) {
    phase(amps, costs, gamma, None, ExecPolicy::serial());
}

/// Pool-parallel phase operator with default thresholds.
pub fn apply_phase_rayon(amps: &mut [C64], costs: &[f64], gamma: f64) {
    apply_phase(amps, costs, gamma, ExecPolicy::rayon());
}

/// Policy-dispatched phase operator.
#[inline]
pub fn apply_phase(amps: &mut [C64], costs: &[f64], gamma: f64, exec: impl Into<ExecPolicy>) {
    phase(amps, costs, gamma, None, exec.into());
}

/// Serial phase operator over a quantized `u16` cost vector with
/// `c_k = offset + scale·q_k`.
pub fn apply_phase_u16_serial(
    amps: &mut [C64],
    costs: &[u16],
    offset: f64,
    scale: f64,
    gamma: f64,
) {
    phase(
        amps,
        costs,
        gamma,
        Some((offset, scale)),
        ExecPolicy::serial(),
    );
}

/// Pool-parallel phase operator over a quantized `u16` cost vector with
/// default thresholds.
pub fn apply_phase_u16_rayon(amps: &mut [C64], costs: &[u16], offset: f64, scale: f64, gamma: f64) {
    apply_phase_u16(amps, costs, offset, scale, gamma, ExecPolicy::rayon());
}

/// Policy-dispatched phase operator over a quantized `u16` cost vector.
pub fn apply_phase_u16(
    amps: &mut [C64],
    costs: &[u16],
    offset: f64,
    scale: f64,
    gamma: f64,
    exec: impl Into<ExecPolicy>,
) {
    phase(amps, costs, gamma, Some((offset, scale)), exec.into());
}

/// Applies an arbitrary complex diagonal: `ψ_k ← d_k ψ_k`.
pub fn apply_diagonal(amps: &mut [C64], diag: &[C64], exec: impl Into<ExecPolicy>) {
    assert_eq!(amps.len(), diag.len(), "diagonal length mismatch");
    let policy = exec.into();
    if policy.parallel(amps.len()) {
        policy.install(|| {
            amps.par_iter_mut()
                .with_min_len(policy.min_chunk)
                .zip(diag.par_iter().with_min_len(policy.min_chunk))
                .for_each(|(a, d)| *a *= *d);
        });
    } else {
        for (a, d) in amps.iter_mut().zip(diag.iter()) {
            *a *= *d;
        }
    }
}

/// Serial objective: `⟨ψ|Ĉ|ψ⟩ = Σ c_k |ψ_k|²`.
pub fn expectation_serial(amps: &[C64], costs: &[f64]) -> f64 {
    assert_eq!(amps.len(), costs.len(), "cost vector length mismatch");
    amps.iter()
        .zip(costs.iter())
        .map(|(a, &c)| c * a.norm_sqr())
        .sum()
}

/// Pool-parallel objective with default thresholds.
pub fn expectation_rayon(amps: &[C64], costs: &[f64]) -> f64 {
    expectation(amps, costs, ExecPolicy::rayon())
}

/// Policy-dispatched objective.
#[inline]
pub fn expectation(amps: &[C64], costs: &[f64], exec: impl Into<ExecPolicy>) -> f64 {
    assert_eq!(amps.len(), costs.len(), "cost vector length mismatch");
    let policy = exec.into();
    if policy.parallel(amps.len()) {
        policy.install(|| {
            amps.par_iter()
                .with_min_len(policy.min_chunk)
                .zip(costs.par_iter().with_min_len(policy.min_chunk))
                .map(|(a, &c)| c * a.norm_sqr())
                .sum()
        })
    } else {
        expectation_serial(amps, costs)
    }
}

/// Objective over a quantized `u16` cost vector.
pub fn expectation_u16(
    amps: &[C64],
    costs: &[u16],
    offset: f64,
    scale: f64,
    exec: impl Into<ExecPolicy>,
) -> f64 {
    assert_eq!(amps.len(), costs.len(), "cost vector length mismatch");
    let policy = exec.into();
    // Σ (offset + scale·q)|ψ|² = offset·‖ψ‖² + scale·Σ q|ψ|². Using the
    // actual norm (not assuming 1) keeps the identity exact for unnormalized
    // test vectors.
    let (raw, norm): (f64, f64) = if policy.parallel(amps.len()) {
        policy.install(|| {
            let raw = amps
                .par_iter()
                .with_min_len(policy.min_chunk)
                .zip(costs.par_iter().with_min_len(policy.min_chunk))
                .map(|(a, &q)| q as f64 * a.norm_sqr())
                .sum();
            let norm = amps
                .par_iter()
                .with_min_len(policy.min_chunk)
                .map(|a| a.norm_sqr())
                .sum();
            (raw, norm)
        })
    } else {
        (
            amps.iter()
                .zip(costs.iter())
                .map(|(a, &q)| q as f64 * a.norm_sqr())
                .sum(),
            amps.iter().map(|a| a.norm_sqr()).sum(),
        )
    };
    offset * norm + scale * raw
}

/// Total probability mass on the given basis indices — used for the
/// ground-state overlap `Σ_{x: c_x = min} |ψ_x|²`.
pub fn probability_mass(amps: &[C64], indices: &[usize]) -> f64 {
    indices.iter().map(|&i| amps[i].norm_sqr()).sum()
}

// ------------------------------------------------------------ split-plane

/// One split-plane phase rotation by `z = cis(θ)`, written to match the
/// interleaved `ψ ← ψ·z` exactly: `re' = r·cos − i·sin`,
/// `im' = r·sin + i·cos`.
#[inline(always)]
fn phase_rotate(r: &mut f64, i: &mut f64, z: C64) {
    let (r0, i0) = (*r, *i);
    *r = r0 * z.re - i0 * z.im;
    *i = r0 * z.im + i0 * z.re;
}

/// The one phase kernel behind every split-plane entry point.
fn phase_split<L>(
    re: &mut [f64],
    im: &mut [f64],
    entries: &[L],
    gamma: f64,
    decode: Option<(f64, f64)>,
    policy: ExecPolicy,
) where
    L: Copy + Into<f64> + Sync,
{
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    assert_eq!(re.len(), entries.len(), "cost vector length mismatch");
    if policy.parallel(re.len()) {
        let chunk = policy.chunk_len(re.len(), 1);
        policy.install(|| {
            let table = PhaseTable::new(entries, gamma, decode, &policy);
            re.par_chunks_mut(chunk)
                .zip(im.par_chunks_mut(chunk))
                .zip(entries.par_chunks(chunk))
                .for_each(|((rc, ic), xc)| {
                    for ((r, i), &x) in rc.iter_mut().zip(ic.iter_mut()).zip(xc.iter()) {
                        phase_rotate(r, i, table.factor(x.into()));
                    }
                });
        });
    } else {
        let table = PhaseTable::new(entries, gamma, decode, &policy);
        for ((r, i), &x) in re.iter_mut().zip(im.iter_mut()).zip(entries.iter()) {
            phase_rotate(r, i, table.factor(x.into()));
        }
    }
}

/// Split-plane phase operator: `ψ_k ← e^{-iγ c_k} ψ_k` on `re`/`im` planes.
/// Bit-identical to [`apply_phase`] on the interleaved layout (same
/// per-element operations in the same order).
///
/// # Panics
/// If plane and cost-vector lengths differ.
pub fn apply_phase_split(
    re: &mut [f64],
    im: &mut [f64],
    costs: &[f64],
    gamma: f64,
    exec: impl Into<ExecPolicy>,
) {
    phase_split(re, im, costs, gamma, None, exec.into());
}

/// Split-plane phase operator over a quantized `u16` cost vector with
/// `c_k = offset + scale·q_k`. Bit-identical to [`apply_phase_u16`].
///
/// # Panics
/// If plane and cost-vector lengths differ.
pub fn apply_phase_u16_split(
    re: &mut [f64],
    im: &mut [f64],
    costs: &[u16],
    offset: f64,
    scale: f64,
    gamma: f64,
    exec: impl Into<ExecPolicy>,
) {
    phase_split(re, im, costs, gamma, Some((offset, scale)), exec.into());
}

/// Split-plane objective: `Σ c_k (re_k² + im_k²)`. Serially bit-identical
/// to [`expectation`] (same per-element products and summation order);
/// parallel partial sums associate along the split tree like every other
/// reduction here.
///
/// # Panics
/// If plane and cost-vector lengths differ.
pub fn expectation_split(
    re: &[f64],
    im: &[f64],
    costs: &[f64],
    exec: impl Into<ExecPolicy>,
) -> f64 {
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    assert_eq!(re.len(), costs.len(), "cost vector length mismatch");
    let policy = exec.into();
    if policy.parallel(re.len()) {
        policy.install(|| {
            re.par_iter()
                .with_min_len(policy.min_chunk)
                .zip(im.par_iter().with_min_len(policy.min_chunk))
                .zip(costs.par_iter().with_min_len(policy.min_chunk))
                .map(|((&r, &i), &c)| c * (r * r + i * i))
                .sum()
        })
    } else {
        re.iter()
            .zip(im.iter())
            .zip(costs.iter())
            .map(|((&r, &i), &c)| c * (r * r + i * i))
            .sum()
    }
}

/// Split-plane objective over a quantized `u16` cost vector — the plane
/// twin of [`expectation_u16`], using the same
/// `offset·‖ψ‖² + scale·Σ q|ψ|²` decomposition.
///
/// # Panics
/// If plane and cost-vector lengths differ.
pub fn expectation_u16_split(
    re: &[f64],
    im: &[f64],
    costs: &[u16],
    offset: f64,
    scale: f64,
    exec: impl Into<ExecPolicy>,
) -> f64 {
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    assert_eq!(re.len(), costs.len(), "cost vector length mismatch");
    let policy = exec.into();
    let (raw, norm): (f64, f64) = if policy.parallel(re.len()) {
        policy.install(|| {
            let raw = re
                .par_iter()
                .with_min_len(policy.min_chunk)
                .zip(im.par_iter().with_min_len(policy.min_chunk))
                .zip(costs.par_iter().with_min_len(policy.min_chunk))
                .map(|((&r, &i), &q)| q as f64 * (r * r + i * i))
                .sum();
            let norm = re
                .par_iter()
                .with_min_len(policy.min_chunk)
                .zip(im.par_iter().with_min_len(policy.min_chunk))
                .map(|(&r, &i)| r * r + i * i)
                .sum();
            (raw, norm)
        })
    } else {
        (
            re.iter()
                .zip(im.iter())
                .zip(costs.iter())
                .map(|((&r, &i), &q)| q as f64 * (r * r + i * i))
                .sum(),
            re.iter().zip(im.iter()).map(|(&r, &i)| r * r + i * i).sum(),
        )
    };
    offset * norm + scale * raw
}

// ------------------------------------------------------------------ coded

/// The phase factors of a coded diagonal: `t[k] = cis(−γ·levels[k])`.
fn level_factors(levels: &[f64], gamma: f64) -> Vec<C64> {
    levels.iter().map(|&c| C64::cis(-gamma * c)).collect()
}

/// Phase operator over a coded diagonal `c_x = levels[codes[x]]`: one
/// `cis` per level, then `ψ_x ← t[codes[x]]·ψ_x`. Bit-identical to
/// [`apply_phase`] on the decoded costs.
///
/// # Panics
/// If `amps` and `codes` lengths differ, or a code has no level.
pub fn apply_phase_coded(
    amps: &mut [C64],
    codes: &[u16],
    levels: &[f64],
    gamma: f64,
    exec: impl Into<ExecPolicy>,
) {
    assert_eq!(amps.len(), codes.len(), "cost vector length mismatch");
    let policy = exec.into();
    let t = level_factors(levels, gamma);
    if policy.parallel(amps.len()) {
        policy.install(|| {
            amps.par_iter_mut()
                .with_min_len(policy.min_chunk)
                .zip(codes.par_iter().with_min_len(policy.min_chunk))
                .for_each(|(a, &q)| *a *= t[q as usize]);
        });
    } else {
        for (a, &q) in amps.iter_mut().zip(codes.iter()) {
            *a *= t[q as usize];
        }
    }
}

/// Split-plane twin of [`apply_phase_coded`]; bit-identical to it.
///
/// # Panics
/// If plane and code lengths differ, or a code has no level.
pub fn apply_phase_coded_split(
    re: &mut [f64],
    im: &mut [f64],
    codes: &[u16],
    levels: &[f64],
    gamma: f64,
    exec: impl Into<ExecPolicy>,
) {
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    assert_eq!(re.len(), codes.len(), "cost vector length mismatch");
    let policy = exec.into();
    let t = level_factors(levels, gamma);
    if policy.parallel(re.len()) {
        let chunk = policy.chunk_len(re.len(), 1);
        policy.install(|| {
            re.par_chunks_mut(chunk)
                .zip(im.par_chunks_mut(chunk))
                .zip(codes.par_chunks(chunk))
                .for_each(|((rc, ic), qc)| {
                    for ((r, i), &q) in rc.iter_mut().zip(ic.iter_mut()).zip(qc.iter()) {
                        phase_rotate(r, i, t[q as usize]);
                    }
                });
        });
    } else {
        for ((r, i), &q) in re.iter_mut().zip(im.iter_mut()).zip(codes.iter()) {
            phase_rotate(r, i, t[q as usize]);
        }
    }
}

/// Objective over a coded diagonal: `Σ levels[codes[x]]·|ψ_x|²`, with the
/// products and summation order of [`expectation`], so bit-identical to it
/// on the decoded costs under every policy.
///
/// # Panics
/// If `amps` and `codes` lengths differ, or a code has no level.
pub fn expectation_coded(
    amps: &[C64],
    codes: &[u16],
    levels: &[f64],
    exec: impl Into<ExecPolicy>,
) -> f64 {
    assert_eq!(amps.len(), codes.len(), "cost vector length mismatch");
    let policy = exec.into();
    if policy.parallel(amps.len()) {
        policy.install(|| {
            amps.par_iter()
                .with_min_len(policy.min_chunk)
                .zip(codes.par_iter().with_min_len(policy.min_chunk))
                .map(|(a, &q)| levels[q as usize] * a.norm_sqr())
                .sum()
        })
    } else {
        amps.iter()
            .zip(codes.iter())
            .map(|(a, &q)| levels[q as usize] * a.norm_sqr())
            .sum()
    }
}

/// Split-plane twin of [`expectation_coded`]; bit-identical to
/// [`expectation_split`] on the decoded costs.
///
/// # Panics
/// If plane and code lengths differ, or a code has no level.
pub fn expectation_coded_split(
    re: &[f64],
    im: &[f64],
    codes: &[u16],
    levels: &[f64],
    exec: impl Into<ExecPolicy>,
) -> f64 {
    assert_eq!(re.len(), im.len(), "plane length mismatch");
    assert_eq!(re.len(), codes.len(), "cost vector length mismatch");
    let policy = exec.into();
    if policy.parallel(re.len()) {
        policy.install(|| {
            re.par_iter()
                .with_min_len(policy.min_chunk)
                .zip(im.par_iter().with_min_len(policy.min_chunk))
                .zip(codes.par_iter().with_min_len(policy.min_chunk))
                .map(|((&r, &i), &q)| levels[q as usize] * (r * r + i * i))
                .sum()
        })
    } else {
        re.iter()
            .zip(im.iter())
            .zip(codes.iter())
            .map(|((&r, &i), &q)| levels[q as usize] * (r * r + i * i))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Backend;
    use crate::reference;
    use crate::state::StateVec;

    fn ramp_costs(len: usize) -> Vec<f64> {
        (0..len).map(|i| (i as f64) * 0.25 - 3.0).collect()
    }

    #[test]
    fn phase_matches_reference() {
        let n = 6;
        let s = StateVec::uniform_superposition(n);
        let costs = ramp_costs(s.dim());
        let expect = reference::apply_phase_reference(s.amplitudes(), &costs, 0.8);
        let mut got = s.clone();
        apply_phase_serial(got.amplitudes_mut(), &costs, 0.8);
        for (a, b) in got.amplitudes().iter().zip(expect.iter()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn phase_rayon_matches_serial() {
        let n = 14;
        let mut a = StateVec::uniform_superposition(n);
        let mut b = a.clone();
        let costs = ramp_costs(a.dim());
        apply_phase_serial(a.amplitudes_mut(), &costs, 1.3);
        apply_phase_rayon(b.amplitudes_mut(), &costs, 1.3);
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn phase_forced_parallel_matches_serial_small() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(2);
        let n = 7;
        let mut a = StateVec::uniform_superposition(n);
        let mut b = a.clone();
        let costs = ramp_costs(a.dim());
        apply_phase_serial(a.amplitudes_mut(), &costs, 1.3);
        apply_phase(b.amplitudes_mut(), &costs, 1.3, forced);
        // Elementwise kernels are bit-identical regardless of the split.
        assert!(a.max_abs_diff(&b) == 0.0);
    }

    #[test]
    fn phase_preserves_probabilities() {
        let n = 8;
        let mut s = StateVec::uniform_superposition(n);
        let p_before = s.probabilities();
        let costs = ramp_costs(s.dim());
        apply_phase_serial(s.amplitudes_mut(), &costs, 2.1);
        let p_after = s.probabilities();
        for (x, y) in p_before.iter().zip(p_after.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn phase_u16_matches_f64() {
        let n = 10;
        let dim = 1usize << n;
        // Integer-valued costs in [-8, 8): representable exactly as
        // offset + scale·u16.
        let costs_f: Vec<f64> = (0..dim).map(|i| ((i % 17) as f64) - 8.0).collect();
        let costs_q: Vec<u16> = (0..dim).map(|i| (i % 17) as u16).collect();
        let (offset, scale) = (-8.0, 1.0);
        let mut a = StateVec::uniform_superposition(n);
        let mut b = a.clone();
        apply_phase_serial(a.amplitudes_mut(), &costs_f, 0.71);
        apply_phase_u16_serial(b.amplitudes_mut(), &costs_q, offset, scale, 0.71);
        assert!(a.max_abs_diff(&b) < 1e-12);

        let mut c = StateVec::uniform_superposition(n);
        apply_phase_u16_rayon(c.amplitudes_mut(), &costs_q, offset, scale, 0.71);
        assert!(a.max_abs_diff(&c) < 1e-12);
    }

    #[test]
    fn expectation_matches_reference() {
        let n = 7;
        let s = StateVec::dicke_state(n, 3);
        let costs = ramp_costs(s.dim());
        let expect = reference::expectation_reference(s.amplitudes(), &costs);
        assert!((expectation_serial(s.amplitudes(), &costs) - expect).abs() < 1e-12);
        assert!((expectation_rayon(s.amplitudes(), &costs) - expect).abs() < 1e-12);
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(2);
        assert!((expectation(s.amplitudes(), &costs, forced) - expect).abs() < 1e-12);
    }

    #[test]
    fn expectation_of_basis_state_reads_cost() {
        let s = StateVec::basis_state(5, 19);
        let costs = ramp_costs(s.dim());
        assert!((expectation_serial(s.amplitudes(), &costs) - costs[19]).abs() < 1e-12);
    }

    #[test]
    fn expectation_u16_matches_f64() {
        let n = 9;
        let dim = 1usize << n;
        let costs_f: Vec<f64> = (0..dim).map(|i| 0.5 * ((i % 23) as f64) - 2.0).collect();
        let costs_q: Vec<u16> = (0..dim).map(|i| (i % 23) as u16).collect();
        let s = StateVec::uniform_superposition(n);
        let e_f = expectation_serial(s.amplitudes(), &costs_f);
        let e_q = expectation_u16(s.amplitudes(), &costs_q, -2.0, 0.5, Backend::Serial);
        assert!((e_f - e_q).abs() < 1e-10);
        let e_qr = expectation_u16(s.amplitudes(), &costs_q, -2.0, 0.5, Backend::Rayon);
        assert!((e_f - e_qr).abs() < 1e-10);
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(2);
        let e_qf = expectation_u16(s.amplitudes(), &costs_q, -2.0, 0.5, forced);
        assert!((e_f - e_qf).abs() < 1e-10);
    }

    #[test]
    fn probability_mass_sums_selected() {
        let s = StateVec::uniform_superposition(4);
        let m = probability_mass(s.amplitudes(), &[0, 1, 2, 3]);
        assert!((m - 4.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn phase_rejects_length_mismatch() {
        let mut s = StateVec::zero_state(3);
        apply_phase_serial(s.amplitudes_mut(), &[0.0; 4], 1.0);
    }

    #[test]
    fn split_phase_and_expectation_match_interleaved() {
        let n = 9;
        let s = StateVec::dicke_state(n, 4);
        let costs = ramp_costs(s.dim());
        let mut interleaved = s.clone();
        apply_phase_serial(interleaved.amplitudes_mut(), &costs, 0.93);
        let mut split = crate::split::SplitStateVec::from(&s);
        {
            let (re, im) = split.planes_mut();
            apply_phase_split(re, im, &costs, 0.93, Backend::Serial);
        }
        assert_eq!(
            split.max_abs_diff_interleaved(interleaved.amplitudes()),
            0.0,
            "split phase twin uses identical per-element ops"
        );
        let (re, im) = split.planes();
        let e_split = expectation_split(re, im, &costs, Backend::Serial);
        let e_inter = expectation_serial(interleaved.amplitudes(), &costs);
        assert_eq!(e_split, e_inter, "serial reductions share summation order");
    }

    #[test]
    fn split_phase_forced_parallel_matches_serial() {
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(2);
        let n = 8;
        let s = StateVec::uniform_superposition(n);
        let costs = ramp_costs(s.dim());
        let mut a = crate::split::SplitStateVec::from(&s);
        let mut b = a.clone();
        {
            let (re, im) = a.planes_mut();
            apply_phase_split(re, im, &costs, 1.21, Backend::Serial);
        }
        {
            let (re, im) = b.planes_mut();
            apply_phase_split(re, im, &costs, 1.21, forced);
        }
        assert_eq!(a, b, "elementwise split kernel is split-invariant");
        let (re, im) = a.planes();
        let e_s = expectation_split(re, im, &costs, Backend::Serial);
        let e_p = expectation_split(re, im, &costs, forced);
        assert!((e_s - e_p).abs() < 1e-12);
    }

    #[test]
    fn split_u16_matches_f64_split() {
        let n = 9;
        let dim = 1usize << n;
        let costs_f: Vec<f64> = (0..dim).map(|i| ((i % 17) as f64) - 8.0).collect();
        let costs_q: Vec<u16> = (0..dim).map(|i| (i % 17) as u16).collect();
        let (offset, scale) = (-8.0, 1.0);
        let s = StateVec::uniform_superposition(n);
        let mut a = crate::split::SplitStateVec::from(&s);
        let mut b = a.clone();
        {
            let (re, im) = a.planes_mut();
            apply_phase_split(re, im, &costs_f, 0.71, Backend::Serial);
        }
        {
            let (re, im) = b.planes_mut();
            apply_phase_u16_split(re, im, &costs_q, offset, scale, 0.71, Backend::Serial);
        }
        assert_eq!(a, b, "u16 decode reproduces the f64 costs exactly here");
        let (re, im) = a.planes();
        let e_f = expectation_split(re, im, &costs_f, Backend::Serial);
        let e_q = expectation_u16_split(re, im, &costs_q, offset, scale, Backend::Serial);
        assert!((e_f - e_q).abs() < 1e-10);
    }

    /// LABS sidelobe energy `Σ_k C_k(x)²` of every basis state.
    fn labs_diagonal(n: usize) -> Vec<f64> {
        let spin = |x: usize, i: usize| if x >> i & 1 == 1 { -1i64 } else { 1 };
        (0..1usize << n)
            .map(|x| {
                (1..n)
                    .map(|k| {
                        let c: i64 = (0..n - k).map(|i| spin(x, i) * spin(x, i + k)).sum();
                        (c * c) as f64
                    })
                    .sum()
            })
            .collect()
    }

    /// Negative cut size of a ring with chords, `−Σ_{(i,j)} [x_i ≠ x_j]`.
    fn maxcut_diagonal(n: usize) -> Vec<f64> {
        let edges: Vec<(usize, usize)> = (0..n)
            .map(|i| (i, (i + 1) % n))
            .chain((0..n / 2).map(|i| (i, i + n / 2)))
            .collect();
        (0..1usize << n)
            .map(|x| {
                -(edges
                    .iter()
                    .filter(|&&(i, j)| (x >> i ^ x >> j) & 1 == 1)
                    .count() as f64)
            })
            .collect()
    }

    /// Listing 1's all-to-all couplings `0.3·Σ_{i<j} s_i s_j`: off the
    /// integer grid almost everywhere.
    fn all_to_all_diagonal(n: usize) -> Vec<f64> {
        let spin = |x: usize, i: usize| if x >> i & 1 == 1 { -1.0 } else { 1.0 };
        (0..1usize << n)
            .map(|x| {
                let mut c = 0.0;
                for i in 0..n {
                    for j in i + 1..n {
                        c += 0.3 * (spin(x, i) * spin(x, j));
                    }
                }
                c
            })
            .collect()
    }

    fn phased_state(n: usize) -> StateVec {
        let mut s = StateVec::dicke_state(n, n / 2);
        apply_phase_serial(s.amplitudes_mut(), &ramp_costs(1 << n), 0.37);
        s
    }

    fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
        amps.iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    /// Checks every phase entry point against per-element `C64::cis`, bit
    /// for bit, serially and under a forced-parallel policy.
    fn assert_phase_is_per_element_cis(costs: &[f64], gamma: f64) {
        let n = costs.len().trailing_zeros() as usize;
        let s = phased_state(n);
        let expect: Vec<C64> = s
            .amplitudes()
            .iter()
            .zip(costs)
            .map(|(&a, &c)| a * C64::cis(-gamma * c))
            .collect();
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(16);
        for policy in [ExecPolicy::serial(), forced.with_threads(2)] {
            let mut inter = s.clone();
            apply_phase(inter.amplitudes_mut(), costs, gamma, policy);
            assert_eq!(bits(inter.amplitudes()), bits(&expect), "{policy:?}");
            let mut split = crate::split::SplitStateVec::from(&s);
            let (re, im) = split.planes_mut();
            apply_phase_split(re, im, costs, gamma, policy);
            let mut back = s.clone();
            split.write_interleaved(back.amplitudes_mut());
            assert_eq!(bits(back.amplitudes()), bits(&expect), "split, {policy:?}");
        }
    }

    #[test]
    fn phase_table_matches_per_element_cis_on_labs_and_maxcut() {
        for gamma in [0.41, -2.7] {
            assert_phase_is_per_element_cis(&labs_diagonal(10), gamma);
            assert_phase_is_per_element_cis(&maxcut_diagonal(11), gamma);
        }
        // The integer diagonals really take the table: one entry per level
        // of the span, far fewer than amplitudes.
        let labs = labs_diagonal(12);
        let table = PhaseTable::new(&labs, 0.41, None, &ExecPolicy::serial());
        let (lo, hi) = labs
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &c| (l.min(c), h.max(c)));
        assert_eq!(table.lo, lo);
        assert_eq!(table.t.len(), (hi - lo) as usize + 1);
        assert!(table.t.len() < labs.len() / 4);
    }

    #[test]
    fn u16_phase_table_matches_per_element_decode() {
        let n = 10;
        let codes: Vec<u16> = labs_diagonal(n).iter().map(|&c| c as u16 / 4).collect();
        let (offset, scale, gamma) = (-3.25, 0.5, 0.83);
        let s = phased_state(n);
        let expect: Vec<C64> = s
            .amplitudes()
            .iter()
            .zip(&codes)
            .map(|(&a, &q)| a * C64::cis(-gamma * (offset + scale * q as f64)))
            .collect();
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(16);
        for policy in [ExecPolicy::serial(), forced.with_threads(2)] {
            let mut inter = s.clone();
            apply_phase_u16(inter.amplitudes_mut(), &codes, offset, scale, gamma, policy);
            assert_eq!(bits(inter.amplitudes()), bits(&expect), "{policy:?}");
            let mut split = crate::split::SplitStateVec::from(&s);
            let (re, im) = split.planes_mut();
            apply_phase_u16_split(re, im, &codes, offset, scale, gamma, policy);
            let mut back = s.clone();
            split.write_interleaved(back.amplitudes_mut());
            assert_eq!(bits(back.amplitudes()), bits(&expect), "split, {policy:?}");
        }
    }

    #[test]
    fn phase_falls_back_off_the_grid() {
        let n = 9;
        // Off-grid: the 0.3-weighted all-to-all couplings.
        assert_phase_is_per_element_cis(&all_to_all_diagonal(n), 0.66);
        // One NaN and one ±∞ entry among integers.
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut odd = labs_diagonal(n);
            odd[5] = f64::NAN;
            odd[77] = inf;
            odd[200] = -0.0;
            assert_phase_is_per_element_cis(&odd, 0.66);
            let table = PhaseTable::new(&odd, 0.66, None, &ExecPolicy::serial());
            assert!(
                !table.t.is_empty(),
                "non-finite entries leave the grid intact"
            );
        }
        // A span of 2^n or more: no table at all.
        let wide: Vec<f64> = (0..1usize << n).map(|i| (i * 3) as f64).collect();
        assert!(PhaseTable::new(&wide, 0.66, None, &ExecPolicy::serial())
            .t
            .is_empty());
        assert_phase_is_per_element_cis(&wide, 0.66);
        // Partly on the grid: every other entry sits half-way between levels.
        let half: Vec<f64> = (0..1usize << n)
            .map(|i| (i % 37) as f64 + if i % 2 == 1 { 0.5 } else { 0.0 })
            .collect();
        assert_phase_is_per_element_cis(&half, 0.66);
    }

    #[test]
    fn coded_kernels_match_f64_bit_for_bit() {
        let n = 10;
        let costs = labs_diagonal(n);
        let mut levels = costs.clone();
        levels.sort_by(f64::total_cmp);
        levels.dedup();
        let codes: Vec<u16> = costs
            .iter()
            .map(|c| levels.binary_search_by(|l| l.total_cmp(c)).unwrap() as u16)
            .collect();
        let s = phased_state(n);
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(16);
        for policy in [ExecPolicy::serial(), forced.with_threads(2)] {
            let (mut f, mut c) = (s.clone(), s.clone());
            apply_phase(f.amplitudes_mut(), &costs, -1.3, policy);
            apply_phase_coded(c.amplitudes_mut(), &codes, &levels, -1.3, policy);
            assert_eq!(bits(c.amplitudes()), bits(f.amplitudes()), "{policy:?}");
            assert_eq!(
                expectation_coded(c.amplitudes(), &codes, &levels, policy).to_bits(),
                expectation(f.amplitudes(), &costs, policy).to_bits()
            );
            let (mut fs, mut cs) = (
                crate::split::SplitStateVec::from(&s),
                crate::split::SplitStateVec::from(&s),
            );
            let (re, im) = fs.planes_mut();
            apply_phase_split(re, im, &costs, -1.3, policy);
            let (re, im) = cs.planes_mut();
            apply_phase_coded_split(re, im, &codes, &levels, -1.3, policy);
            assert_eq!(fs, cs, "split, {policy:?}");
            let ((fr, fi), (cr, ci)) = (fs.planes(), cs.planes());
            assert_eq!(
                expectation_coded_split(cr, ci, &codes, &levels, policy).to_bits(),
                expectation_split(fr, fi, &costs, policy).to_bits()
            );
        }
    }

    #[test]
    fn diagonal_identity_is_noop() {
        let mut s = StateVec::uniform_superposition(5);
        let orig = s.clone();
        let diag = vec![C64::ONE; s.dim()];
        apply_diagonal(s.amplitudes_mut(), &diag, Backend::Serial);
        assert!(s.max_abs_diff(&orig) < 1e-15);
    }
}
