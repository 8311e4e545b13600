//! The stored cost diagonal `⃗C` and its three representations.
//!
//! | variant | bytes per entry | holds | built by |
//! |---|---|---|---|
//! | [`CostVec::F64`] | 8 | the costs | [`CostVec::from_polynomial`], or [`CostVec::from_polynomial_coded`] when the costs cannot be coded |
//! | [`CostVec::Coded`] | 2 (+ 8 per distinct cost) | `levels[codes[x]]` | [`CostVec::from_polynomial_coded`] — the default `FurSimulator` diagonal |
//! | [`CostVec::U16`] | 2 | `offset + step·data[x]` | [`CostVec::quantize_exact`], [`CostVec::quantize_lossy`] |
//!
//! The paper stores the precomputed diagonal either as `f64` (default) or —
//! when the cost values are integers of known range, as for LABS where
//! `max f < 2^16` for `n < 65` (§V-B) — as `u16`, which cuts the memory
//! overhead of the cost vector to 2 bytes against 16 bytes per `complex128`
//! amplitude: the "+12.5 %" figure of the introduction.
//!
//! `Coded` reaches the same 2 bytes without rounding anything. When the
//! polynomial's weights are integers after one power-of-two scale (LABS;
//! MaxCut's ½), the FWHT precompute runs on `i32` and each cost becomes a
//! code into the sorted table of the distinct costs that occur. A decoded
//! cost has the bits of the `f64` one, so every kernel on a coded diagonal
//! is bit-identical to the `f64` kernel, and the phase needs one `cis` per
//! distinct cost, with no per-call scan of the diagonal.

use crate::precompute::{precompute, precompute_fwht, precompute_fwht_i32, PrecomputeMethod};
use qokit_statevec::diag;
use qokit_statevec::exec::ExecPolicy;
use qokit_statevec::C64;
use qokit_terms::SpinPolynomial;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU16, Ordering};

/// Error cases for `u16` quantization.
#[derive(Clone, Debug, PartialEq)]
pub enum QuantizeError {
    /// A value is not an integer multiple of the step after shifting
    /// (exact mode only).
    NotIntegral {
        /// Offending vector index.
        index: usize,
        /// Offending value.
        value: f64,
    },
    /// The value range does not fit `u16` at the requested step.
    RangeTooWide {
        /// Observed `max − min`.
        span: f64,
        /// Largest span representable: `step · 65535`.
        representable: f64,
    },
    /// A value is NaN or infinite — no finite grid can represent it.
    /// Without this check a NaN slips through both the span and the
    /// integrality comparisons (every `NaN > x` is false) and `NaN as u16`
    /// silently lands on level 0.
    NonFinite {
        /// Offending vector index.
        index: usize,
        /// Offending value.
        value: f64,
    },
}

impl std::fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantizeError::NotIntegral { index, value } => {
                write!(f, "cost[{index}] = {value} is not on the quantization grid")
            }
            QuantizeError::RangeTooWide {
                span,
                representable,
            } => {
                write!(
                    f,
                    "cost span {span} exceeds u16-representable {representable}"
                )
            }
            QuantizeError::NonFinite { index, value } => {
                write!(f, "cost[{index}] = {value} is not finite")
            }
        }
    }
}

impl std::error::Error for QuantizeError {}

/// The code `k` whose decode `offset + step·k` reproduces `value` bit for
/// bit, if one exists — the acceptance rule of every exact `u16` quantizer,
/// so a value just off the grid is refused rather than rounded onto it.
pub fn grid_code(value: f64, offset: f64, step: f64) -> Option<u16> {
    // Saturating cast: NaN and out-of-range levels decode to something
    // else and fail the check.
    let k = ((value - offset) / step).round() as u16;
    ((offset + step * k as f64).to_bits() == value.to_bits()).then_some(k)
}

/// The precomputed cost diagonal, in one of three representations (see the
/// module docs).
#[derive(Clone, Debug)]
pub enum CostVec {
    /// Full-precision values.
    F64(Vec<f64>),
    /// Coded values: `c_x = levels[codes[x]]`.
    Coded {
        /// Per-entry index into `levels`; every code must have a level.
        codes: Vec<u16>,
        /// The distinct costs, ascending, each used by some code.
        levels: Vec<f64>,
    },
    /// Quantized values: `c_x = offset + step·data[x]`.
    U16 {
        /// Quantized levels.
        data: Vec<u16>,
        /// Value of level 0.
        offset: f64,
        /// Grid step between adjacent levels.
        step: f64,
    },
}

impl CostVec {
    /// Precomputes the diagonal for a polynomial (`f64` representation).
    pub fn from_polynomial(
        poly: &SpinPolynomial,
        method: PrecomputeMethod,
        exec: impl Into<ExecPolicy>,
    ) -> Self {
        CostVec::F64(precompute(poly, method, exec))
    }

    /// Precomputes the diagonal by FWHT and stores it [`CostVec::Coded`]
    /// when that is exact and smaller:
    ///
    /// * every weight is an integer after one power-of-two scale, and the
    ///   scaled weights sum in absolute value to at most `i32::MAX`;
    /// * the costs span at most `u16::MAX` grid steps;
    /// * there are at least two distinct costs (one is a global phase);
    /// * codes plus levels take fewer bytes than the `f64` vector.
    ///
    /// Otherwise returns [`CostVec::F64`] with the bits of
    /// [`precompute_fwht`]. The coded route never builds an `f64` vector:
    /// the transform runs on 4-byte `i32` lanes, which are dropped once
    /// the 2-byte codes are written. Vectors of at least the policy's
    /// `min_len` are coded in parallel, smaller ones serially.
    pub fn from_polynomial_coded(poly: &SpinPolynomial, exec: impl Into<ExecPolicy>) -> Self {
        let policy = exec.into();
        match precompute_fwht_i32(poly, policy) {
            Some((vals, scale)) => code_integers(vals, scale, policy),
            None => CostVec::F64(precompute_fwht(poly, policy)),
        }
    }

    /// Exact `u16` quantization on the integer grid `offset + step·k`:
    /// every value must already be of that form (the LABS case with
    /// `step = 1`), reproduced bit for bit by its decode (see
    /// [`grid_code`]). Fails loudly rather than rounding.
    pub fn quantize_exact(costs: &[f64], step: f64) -> Result<Self, QuantizeError> {
        assert!(step > 0.0, "quantization step must be positive");
        if let Some((index, &value)) = costs.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(QuantizeError::NonFinite { index, value });
        }
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = max - min;
        let representable = step * u16::MAX as f64;
        // The non-finite scan above means `span` is never NaN here — at
        // worst `+inf` from two huge finite extrema, which `>` catches.
        if span > representable + 1e-9 {
            return Err(QuantizeError::RangeTooWide {
                span,
                representable,
            });
        }
        let mut data = Vec::with_capacity(costs.len());
        for (index, &value) in costs.iter().enumerate() {
            match grid_code(value, min, step) {
                Some(k) => data.push(k),
                None => return Err(QuantizeError::NotIntegral { index, value }),
            }
        }
        Ok(CostVec::U16 {
            data,
            offset: min,
            step,
        })
    }

    /// Lossy `u16` quantization onto a uniform 65536-level grid spanning
    /// `[min, max]`. Returns the vector and the worst-case absolute
    /// rounding error (`≤ step/2`).
    pub fn quantize_lossy(costs: &[f64]) -> (Self, f64) {
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (max - min).max(f64::MIN_POSITIVE);
        let step = span / u16::MAX as f64;
        let mut worst = 0.0f64;
        let data = costs
            .iter()
            .map(|&v| {
                let level = ((v - min) / step).round().min(u16::MAX as f64);
                let err = (min + step * level - v).abs();
                worst = worst.max(err);
                level as u16
            })
            .collect();
        (
            CostVec::U16 {
                data,
                offset: min,
                step,
            },
            worst,
        )
    }

    /// Number of entries (`2^n`).
    pub fn len(&self) -> usize {
        match self {
            CostVec::F64(v) => v.len(),
            CostVec::Coded { codes, .. } => codes.len(),
            CostVec::U16 { data, .. } => data.len(),
        }
    }

    /// `true` when empty (never for a real cost vector).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of qubits `n` (`len = 2^n`).
    pub fn n_qubits(&self) -> usize {
        debug_assert!(self.len().is_power_of_two());
        self.len().trailing_zeros() as usize
    }

    /// The cost value at index `x`.
    #[inline]
    pub fn value(&self, x: usize) -> f64 {
        match self {
            CostVec::F64(v) => v[x],
            CostVec::Coded { codes, levels } => levels[codes[x] as usize],
            CostVec::U16 { data, offset, step } => offset + step * data[x] as f64,
        }
    }

    /// Materializes the full-precision vector (allocates for `Coded` and
    /// `U16`).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            CostVec::F64(v) => v.clone(),
            CostVec::Coded { codes, levels } => codes.iter().map(|&q| levels[q as usize]).collect(),
            CostVec::U16 { data, offset, step } => {
                data.iter().map(|&q| offset + step * q as f64).collect()
            }
        }
    }

    /// Applies the QAOA phase operator `ψ_x ← e^{-iγ c_x} ψ_x` in place —
    /// the paper's single elementwise product per layer.
    pub fn apply_phase(&self, amps: &mut [C64], gamma: f64, exec: impl Into<ExecPolicy>) {
        match self {
            CostVec::F64(v) => diag::apply_phase(amps, v, gamma, exec),
            CostVec::Coded { codes, levels } => {
                diag::apply_phase_coded(amps, codes, levels, gamma, exec)
            }
            CostVec::U16 { data, offset, step } => {
                diag::apply_phase_u16(amps, data, *offset, *step, gamma, exec)
            }
        }
    }

    /// The QAOA objective `⟨ψ|Ĉ|ψ⟩ = Σ c_x |ψ_x|²` — the paper's single
    /// inner product.
    pub fn expectation(&self, amps: &[C64], exec: impl Into<ExecPolicy>) -> f64 {
        match self {
            CostVec::F64(v) => diag::expectation(amps, v, exec),
            CostVec::Coded { codes, levels } => diag::expectation_coded(amps, codes, levels, exec),
            CostVec::U16 { data, offset, step } => {
                diag::expectation_u16(amps, data, *offset, *step, exec)
            }
        }
    }

    /// Split-plane twin of [`CostVec::apply_phase`]: rotates the `re`/`im`
    /// planes of a [`qokit_statevec::SplitStateVec`] in place.
    pub fn apply_phase_split(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        gamma: f64,
        exec: impl Into<ExecPolicy>,
    ) {
        match self {
            CostVec::F64(v) => diag::apply_phase_split(re, im, v, gamma, exec),
            CostVec::Coded { codes, levels } => {
                diag::apply_phase_coded_split(re, im, codes, levels, gamma, exec)
            }
            CostVec::U16 { data, offset, step } => {
                diag::apply_phase_u16_split(re, im, data, *offset, *step, gamma, exec)
            }
        }
    }

    /// Split-plane twin of [`CostVec::expectation`].
    pub fn expectation_split(&self, re: &[f64], im: &[f64], exec: impl Into<ExecPolicy>) -> f64 {
        match self {
            CostVec::F64(v) => diag::expectation_split(re, im, v, exec),
            CostVec::Coded { codes, levels } => {
                diag::expectation_coded_split(re, im, codes, levels, exec)
            }
            CostVec::U16 { data, offset, step } => {
                diag::expectation_u16_split(re, im, data, *offset, *step, exec)
            }
        }
    }

    /// Minimum and maximum cost values.
    pub fn extrema(&self) -> (f64, f64) {
        let fold = |v: &[f64]| {
            v.iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &c| {
                    (lo.min(c), hi.max(c))
                })
        };
        match self {
            CostVec::F64(v) => fold(v),
            // Every level is used, so the levels' extrema are the costs'.
            CostVec::Coded { levels, .. } => fold(levels),
            CostVec::U16 { data, offset, step } => {
                let (lo, hi) = data
                    .iter()
                    .fold((u16::MAX, 0u16), |(lo, hi), &q| (lo.min(q), hi.max(q)));
                (offset + step * lo as f64, offset + step * hi as f64)
            }
        }
    }

    /// Indices of all minimum-cost (ground) states, within tolerance `tol`.
    pub fn ground_state_indices(&self, tol: f64) -> Vec<usize> {
        let (min, _) = self.extrema();
        (0..self.len())
            .filter(|&x| self.value(x) <= min + tol)
            .collect()
    }

    /// Ground-state overlap `Σ_{x: c_x = min} |ψ_x|²` — QOKit's
    /// `get_overlap`.
    pub fn overlap(&self, amps: &[C64]) -> f64 {
        let ground = self.ground_state_indices(1e-9);
        diag::probability_mass(amps, &ground)
    }

    /// Bytes held by the stored representation.
    pub fn memory_bytes(&self) -> usize {
        match self {
            CostVec::F64(v) => v.len() * std::mem::size_of::<f64>(),
            CostVec::Coded { codes, levels } => {
                codes.len() * std::mem::size_of::<u16>() + levels.len() * std::mem::size_of::<f64>()
            }
            CostVec::U16 { data, .. } => data.len() * std::mem::size_of::<u16>(),
        }
    }

    /// Memory overhead of this cost vector relative to the `complex128`
    /// state vector it accompanies — the paper's 12.5 % claim is
    /// `overhead_vs_state() == 0.125` for the `U16` representation (and
    /// just above it for `Coded`, whose level table adds 8 bytes per
    /// distinct cost).
    pub fn overhead_vs_state(&self) -> f64 {
        let state_bytes = self.len() * qokit_statevec::AMP_BYTES;
        self.memory_bytes() as f64 / state_bytes as f64
    }
}

/// Codes the integer diagonal `c_x = vals[x]·scale` (see
/// [`CostVec::from_polynomial_coded`] for when it qualifies), or widens it
/// to [`CostVec::F64`] when it does not. Three passes over `vals` — extrema,
/// used levels, codes — each parallel only when `policy` says so for the
/// length, and none allocating per chunk.
fn code_integers(vals: Vec<i32>, scale: f64, policy: ExecPolicy) -> CostVec {
    let len = vals.len();
    let par = policy.parallel(len);
    let widen = |vals: Vec<i32>| {
        let decode = |&v: &i32| v as f64 * scale;
        CostVec::F64(if par {
            policy.install(|| {
                vals.par_iter()
                    .with_min_len(policy.min_chunk)
                    .map(decode)
                    .collect()
            })
        } else {
            vals.iter().map(decode).collect()
        })
    };
    let empty = (i32::MAX, i32::MIN);
    let merge = |a: (i32, i32), b: (i32, i32)| (a.0.min(b.0), a.1.max(b.1));
    let (lo, hi) = if par {
        policy.install(|| {
            vals.par_iter()
                .with_min_len(policy.min_chunk)
                .map(|&v| (v, v))
                .reduce(|| empty, merge)
        })
    } else {
        vals.iter().map(|&v| (v, v)).fold(empty, merge)
    };
    if hi as i64 - lo as i64 > u16::MAX as i64 {
        return widen(vals);
    }
    let offset = |v: i32| (v as i64 - lo as i64) as usize;
    // One slot per grid step: nonzero once its level occurs, then its code.
    let mut slots: Vec<AtomicU16> = (lo..=hi).map(|_| AtomicU16::new(0)).collect();
    let mark = |&v: &i32| {
        let slot = &slots[offset(v)];
        // Load first: a slot's cache line is written once, then only read.
        // Relaxed suffices: a slot publishes no other data, and the pool's
        // join orders every store before the reads below.
        if slot.load(Ordering::Relaxed) == 0 {
            slot.store(1, Ordering::Relaxed);
        }
    };
    if par {
        policy.install(|| {
            vals.par_iter()
                .with_min_len(policy.min_chunk)
                .for_each(mark)
        });
    } else {
        vals.iter().for_each(mark);
    }
    let used = slots
        .iter()
        .filter(|s| s.load(Ordering::Relaxed) != 0)
        .count();
    let coded_bytes = len * std::mem::size_of::<u16>() + used * std::mem::size_of::<f64>();
    if used < 2 || coded_bytes >= len * std::mem::size_of::<f64>() {
        return widen(vals);
    }
    let mut levels = Vec::with_capacity(used);
    for (v, slot) in (lo..=hi).zip(&mut slots) {
        let slot = slot.get_mut();
        if *slot != 0 {
            *slot = levels.len() as u16;
            levels.push(v as f64 * scale);
        }
    }
    let code = |&v: &i32| slots[offset(v)].load(Ordering::Relaxed);
    let codes = if par {
        policy.install(|| {
            vals.par_iter()
                .with_min_len(policy.min_chunk)
                .map(code)
                .collect()
        })
    } else {
        vals.iter().map(code).collect()
    };
    CostVec::Coded { codes, levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qokit_statevec::{Backend, StateVec};
    use qokit_terms::labs::labs_terms;
    use qokit_terms::maxcut::maxcut_polynomial;
    use qokit_terms::Graph;

    fn labs_costvec(n: usize) -> CostVec {
        CostVec::from_polynomial(&labs_terms(n), PrecomputeMethod::Fwht, Backend::Serial)
    }

    #[test]
    fn exact_quantization_roundtrips_labs() {
        let cv = labs_costvec(10);
        let f64s = cv.to_f64_vec();
        // LABS paper costs are integers on a step-1/2 grid? They are
        // integers: weights are 1 and 2 with ±1 products.
        let q = CostVec::quantize_exact(&f64s, 1.0).expect("LABS costs are integral");
        for (x, &v) in f64s.iter().enumerate() {
            assert_eq!(q.value(x), v, "x = {x}");
        }
    }

    #[test]
    fn exact_quantization_rejects_non_integral() {
        let err = CostVec::quantize_exact(&[0.0, 0.5, 1.0], 1.0).unwrap_err();
        assert!(matches!(err, QuantizeError::NotIntegral { index: 1, .. }));
    }

    #[test]
    fn exact_quantization_rejects_wide_range() {
        let err = CostVec::quantize_exact(&[0.0, 70000.0], 1.0).unwrap_err();
        assert!(matches!(err, QuantizeError::RangeTooWide { .. }));
    }

    #[test]
    fn exact_quantization_rejects_nan_instead_of_level_zero() {
        // Regression: a NaN cost used to slip through both checks (every
        // `NaN > x` is false) and quantize to level 0 — i.e. the global
        // minimum — silently corrupting that state's energy.
        let err = CostVec::quantize_exact(&[0.0, f64::NAN, 2.0], 1.0).unwrap_err();
        assert!(
            matches!(err, QuantizeError::NonFinite { index: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn exact_quantization_rejects_infinities() {
        // +inf everywhere made the span NaN (`inf − inf`), which also
        // passed the old `>` range check and landed on level 0.
        let err = CostVec::quantize_exact(&[f64::INFINITY; 4], 1.0).unwrap_err();
        assert!(matches!(err, QuantizeError::NonFinite { index: 0, .. }));
        let err = CostVec::quantize_exact(&[0.0, f64::NEG_INFINITY], 1.0).unwrap_err();
        assert!(matches!(err, QuantizeError::NonFinite { index: 1, .. }));
    }

    #[test]
    fn lossy_quantization_error_bound() {
        let costs: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin() * 3.0).collect();
        let (q, worst) = CostVec::quantize_lossy(&costs);
        let step = match &q {
            CostVec::U16 { step, .. } => *step,
            _ => unreachable!(),
        };
        assert!(worst <= step / 2.0 + 1e-12);
        for (x, &v) in costs.iter().enumerate() {
            assert!((q.value(x) - v).abs() <= worst + 1e-12);
        }
    }

    #[test]
    fn memory_overhead_figures() {
        let cv = labs_costvec(8);
        // f64 representation: 8/16 = 50 % of the state vector.
        assert!((cv.overhead_vs_state() - 0.5).abs() < 1e-12);
        let q = CostVec::quantize_exact(&cv.to_f64_vec(), 1.0).unwrap();
        // u16 representation: 2/16 = 12.5 % — the paper's headline figure.
        assert!((q.overhead_vs_state() - 0.125).abs() < 1e-12);
        assert_eq!(q.memory_bytes(), 2 * 256);
    }

    #[test]
    fn phase_and_expectation_agree_across_representations() {
        let n = 9;
        let cv = labs_costvec(n);
        let q = CostVec::quantize_exact(&cv.to_f64_vec(), 1.0).unwrap();
        let mut a = StateVec::uniform_superposition(n);
        let mut b = a.clone();
        cv.apply_phase(a.amplitudes_mut(), 0.37, Backend::Serial);
        q.apply_phase(b.amplitudes_mut(), 0.37, Backend::Rayon);
        assert!(a.max_abs_diff(&b) < 1e-10);
        let ea = cv.expectation(a.amplitudes(), Backend::Serial);
        let eb = q.expectation(b.amplitudes(), Backend::Rayon);
        assert!((ea - eb).abs() < 1e-9);
    }

    #[test]
    fn uniform_state_expectation_is_mean_cost() {
        let n = 8;
        let cv = labs_costvec(n);
        let s = StateVec::uniform_superposition(n);
        let mean = cv.to_f64_vec().iter().sum::<f64>() / cv.len() as f64;
        assert!((cv.expectation(s.amplitudes(), Backend::Serial) - mean).abs() < 1e-9);
    }

    #[test]
    fn ground_states_match_brute_force() {
        let g = Graph::ring(6, 1.0);
        let poly = maxcut_polynomial(&g);
        let cv = CostVec::from_polynomial(&poly, PrecomputeMethod::Direct, Backend::Serial);
        let (fmin, args) = poly.brute_force_minimum();
        let (lo, _) = cv.extrema();
        assert!((lo - fmin).abs() < 1e-12);
        let ground: Vec<u64> = cv
            .ground_state_indices(1e-9)
            .iter()
            .map(|&x| x as u64)
            .collect();
        assert_eq!(ground, args);
    }

    #[test]
    fn overlap_of_ground_basis_state_is_one() {
        let g = Graph::ring(6, 1.0);
        let cv = CostVec::from_polynomial(
            &maxcut_polynomial(&g),
            PrecomputeMethod::Direct,
            Backend::Serial,
        );
        let ground = cv.ground_state_indices(1e-9)[0];
        let s = StateVec::basis_state(6, ground);
        assert!((cv.overlap(s.amplitudes()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_of_uniform_state_counts_ground_states() {
        let n = 6;
        let g = Graph::ring(n, 1.0);
        let cv = CostVec::from_polynomial(
            &maxcut_polynomial(&g),
            PrecomputeMethod::Direct,
            Backend::Serial,
        );
        let s = StateVec::uniform_superposition(n);
        let k = cv.ground_state_indices(1e-9).len() as f64;
        assert!((cv.overlap(s.amplitudes()) - k / 64.0).abs() < 1e-12);
    }

    #[test]
    fn split_phase_and_expectation_match_interleaved() {
        let n = 9;
        for cv in [
            labs_costvec(n),
            CostVec::quantize_exact(&labs_costvec(n).to_f64_vec(), 1.0).unwrap(),
        ] {
            let mut inter = StateVec::uniform_superposition(n);
            let mut split = qokit_statevec::SplitStateVec::from(&inter);
            cv.apply_phase(inter.amplitudes_mut(), 0.41, Backend::Serial);
            {
                let (re, im) = split.planes_mut();
                cv.apply_phase_split(re, im, 0.41, Backend::Serial);
            }
            // Identical per-element arithmetic in both layouts.
            assert_eq!(split.max_abs_diff_interleaved(inter.amplitudes()), 0.0);
            let (re, im) = split.planes();
            let es = cv.expectation_split(re, im, Backend::Serial);
            let ei = cv.expectation(inter.amplitudes(), Backend::Serial);
            assert_eq!(es, ei);
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn labs_and_maxcut_code_to_the_f64_bits() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        let cases = [
            labs_terms(11),
            maxcut_polynomial(&Graph::random_regular(10, 3, &mut rng)),
        ];
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(8);
        for poly in cases {
            let f64s = crate::precompute_fwht(&poly, Backend::Serial);
            let serial = CostVec::from_polynomial_coded(&poly, Backend::Serial);
            let CostVec::Coded { codes, levels } = &serial else {
                panic!("integer and half-integer weights must code");
            };
            assert!(levels.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            let mut used = vec![false; levels.len()];
            codes.iter().for_each(|&q| used[q as usize] = true);
            assert!(used.iter().all(|&u| u), "every level is used");
            assert_eq!(bits(&serial.to_f64_vec()), bits(&f64s));
            assert_eq!(
                serial.memory_bytes(),
                2 * f64s.len() + 8 * levels.len(),
                "codes plus levels"
            );
            let parallel = CostVec::from_polynomial_coded(&poly, forced.with_threads(2));
            assert_eq!(bits(&parallel.to_f64_vec()), bits(&f64s), "parallel coder");
        }
    }

    #[test]
    fn exact_quantization_refuses_near_misses() {
        // Within the old 1e-6 tolerance, but not on the grid.
        let err = CostVec::quantize_exact(&[0.0, 2.0000001], 1.0).unwrap_err();
        assert!(matches!(err, QuantizeError::NotIntegral { index: 1, .. }));
        assert_eq!(grid_code(5.0, -3.0, 0.5), Some(16));
        assert_eq!(grid_code(5.25, -3.0, 0.5), None);
        assert_eq!(grid_code(f64::NAN, 0.0, 1.0), None);
        assert_eq!(grid_code(70000.0, 0.0, 1.0), None, "past u16::MAX");
    }

    #[test]
    fn extrema_consistent_between_representations() {
        let cv = labs_costvec(9);
        let q = CostVec::quantize_exact(&cv.to_f64_vec(), 1.0).unwrap();
        let (a, b) = cv.extrema();
        let (c, d) = q.extrema();
        assert!((a - c).abs() < 1e-9 && (b - d).abs() < 1e-9);
    }
}
