//! The cache-blocked traversal every butterfly kernel runs on.
//!
//! The `su2` gates and mixers and the `fwht` transforms are all the same
//! shape: for each qubit `q` of a range, in ascending order, one pair
//! operation on every amplitude pair whose indices differ only in bit `q`.
//! Run qubit by qubit, that is one full sweep of the state per qubit.
//! [`sweep`] runs the same pair operations in two cache-resident passes:
//!
//! 1. **Low qubits** (`q < b`): the state is cut into contiguous blocks of
//!    `2^b` amplitudes, `BLOCK_BYTES` (1 MiB, half of a 2 MiB per-core L2)
//!    each — `b = 16` for 16-byte amplitudes, `b = 17` for bare `f64`s.
//!    Every low-qubit pass over a block runs before the next block is read.
//! 2. **High qubits** (`q ≥ b`), in groups of `g ≤ b − log2(min tile)`
//!    qubits: view each `2^{q_hi}`-amplitude slab as `2^g` rows of
//!    `2^{q_lo}` amplitudes. A group's butterflies pair whole rows, so the
//!    slab is cut into column tiles of `2^g` row segments, and all of the
//!    group's passes finish on one block-sized tile before the next. Up to
//!    `n = 26` one group covers every high qubit, so the traversal reads
//!    the state twice in all.
//!
//! Both passes hand the pair operation two equal-length runs (`lo`, `hi`)
//! whose elements pair up index by index. Each pair operation reads the
//! same two inputs it reads in the qubit-by-qubit schedule: partners at
//! qubit `q` share a block (pass 1) or a tile (pass 2), and both have been
//! through every pass of the qubits below `q` first. Results are therefore
//! bit-identical to that schedule for any pair operation, and for any block
//! shape or pool size.
//!
//! Under a parallel policy, pass 1 splits over blocks and pass 2 over
//! tiles, each task being one block or tile. Blocks shrink until there are
//! at least `2^PAR_SPLIT_BITS` tasks, but never below the policy's
//! `min_chunk` amplitudes.

use crate::exec::ExecPolicy;
use std::marker::PhantomData;
use std::ops::Range;

/// Bytes of state one block (pass 1) or tile (pass 2) covers.
const BLOCK_BYTES: usize = 1 << 20;

/// Bytes of the shortest row segment a pass-2 tile reads: whole cache lines
/// and a long enough stream for the prefetcher.
const MIN_TILE_BYTES: usize = 1 << 10;

/// A parallel traversal aims for at least `2^PAR_SPLIT_BITS` tasks per pass.
const PAR_SPLIT_BITS: usize = 3;

/// Amplitude storage the traversal addresses by offset: one slice
/// ([`Lanes`]) or a `re`/`im` plane pair ([`Planes`]).
pub(crate) trait Store: Copy + Send + Sync {
    /// Bytes one amplitude occupies, summed over the store's arrays.
    const AMP_BYTES: usize;
    /// A run of consecutive amplitudes, borrowed for `'r`.
    type Run<'r>;
    /// Number of amplitudes.
    fn len(&self) -> usize;
    /// The amplitudes `[off, off + len)`.
    ///
    /// # Safety
    /// The range is in bounds, no other live run overlaps it, and `'r`
    /// ends before the store's own borrow does.
    unsafe fn run<'r>(self, off: usize, len: usize) -> Self::Run<'r>;
}

/// A mutable slice the traversal may cut into runs. It holds the slice's
/// exclusive borrow for `'a`.
pub(crate) struct Lanes<'a, T> {
    ptr: *mut T,
    len: usize,
    borrow: PhantomData<&'a mut [T]>,
}

impl<'a, T> Lanes<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        Lanes {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            borrow: PhantomData,
        }
    }
}

impl<T> Clone for Lanes<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Lanes<'_, T> {}

// SAFETY: `ptr` and `len` describe a slice borrowed mutably for `'a`, like
// a `&'a mut [T]`, which is `Send` for `T: Send`. Sharing a `Lanes` only
// lets workers build runs, and `Store::run` makes their callers keep runs
// disjoint, so each element is reached from one thread at a time.
unsafe impl<T: Send> Send for Lanes<'_, T> {}
// SAFETY: as for `Send`: `&Lanes` gives no access beyond disjoint runs.
unsafe impl<T: Send> Sync for Lanes<'_, T> {}

impl<T: Send + 'static> Store for Lanes<'_, T> {
    const AMP_BYTES: usize = std::mem::size_of::<T>();
    type Run<'r> = &'r mut [T];

    fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    unsafe fn run<'r>(self, off: usize, len: usize) -> &'r mut [T] {
        debug_assert!(off + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(off), len)
    }
}

/// Split-complex planes cut in lockstep: a run is the same range of both.
#[derive(Clone, Copy)]
pub(crate) struct Planes<'a> {
    re: Lanes<'a, f64>,
    im: Lanes<'a, f64>,
}

impl<'a> Planes<'a> {
    /// # Panics
    /// If the planes have different lengths.
    pub(crate) fn new(re: &'a mut [f64], im: &'a mut [f64]) -> Self {
        assert_eq!(re.len(), im.len(), "plane length mismatch");
        Planes {
            re: Lanes::new(re),
            im: Lanes::new(im),
        }
    }
}

impl Store for Planes<'_> {
    const AMP_BYTES: usize = 2 * std::mem::size_of::<f64>();
    type Run<'r> = (&'r mut [f64], &'r mut [f64]);

    fn len(&self) -> usize {
        self.re.len
    }

    #[inline(always)]
    unsafe fn run<'r>(self, off: usize, len: usize) -> Self::Run<'r> {
        (self.re.run(off, len), self.im.run(off, len))
    }
}

/// `log2` of the largest power of two `≤ x` (`x ≥ 1`).
fn floor_log2(x: usize) -> usize {
    (usize::BITS - 1 - x.leading_zeros()) as usize
}

/// Applies `pair(q, lo, hi)` to every amplitude pair of every qubit `q` in
/// `qubits`, in ascending qubit order per pair, over the two-pass blocked
/// traversal (see the module docs). Parallel when `policy` says so for the
/// store's length. `pair` sees each run only for the length of its call.
///
/// # Panics
/// If `qubits` reaches past the store's qubit count. The length must be a
/// power of two (checked in debug builds).
pub(crate) fn sweep<S, F>(store: S, qubits: Range<usize>, policy: &ExecPolicy, pair: F)
where
    S: Store,
    F: for<'r> Fn(usize, S::Run<'r>, S::Run<'r>) + Sync,
{
    let len = store.len();
    debug_assert!(len.is_power_of_two());
    let n = len.trailing_zeros() as usize;
    assert!(qubits.end <= n, "qubit {} out of range", qubits.end - 1);
    if qubits.is_empty() {
        return;
    }
    let mut block_bits = floor_log2(BLOCK_BYTES / S::AMP_BYTES).min(n);
    if policy.parallel(len) {
        let task_cap = (len >> PAR_SPLIT_BITS).max(policy.min_chunk).min(len);
        block_bits = block_bits.min(floor_log2(task_cap));
        policy.install(|| passes(store, qubits, block_bits, &pair, par_tasks));
    } else {
        passes(store, qubits, block_bits, &pair, seq_tasks);
    }
}

/// Runs `body(0..count)` in order on the calling thread.
fn seq_tasks(count: usize, body: &(dyn Fn(usize) + Sync)) {
    (0..count).for_each(body);
}

/// Runs `body(0..count)` on the pool, one task per index.
fn par_tasks(count: usize, body: &(dyn Fn(usize) + Sync)) {
    fn split(lo: usize, hi: usize, body: &(dyn Fn(usize) + Sync)) {
        if hi - lo == 1 {
            return body(lo);
        }
        let mid = lo + (hi - lo) / 2;
        rayon::join(|| split(lo, mid, body), || split(mid, hi, body));
    }
    if count > 0 {
        split(0, count, body);
    }
}

/// Pass 1 over `2^b`-amplitude blocks, then pass 2 over column tiles, each
/// pass's tasks run through `tasks`.
fn passes<S, F>(
    store: S,
    qubits: Range<usize>,
    b: usize,
    pair: &F,
    tasks: fn(usize, &(dyn Fn(usize) + Sync)),
) where
    S: Store,
    F: for<'r> Fn(usize, S::Run<'r>, S::Run<'r>) + Sync,
{
    let len = store.len();
    let low = qubits.start..qubits.end.min(b);
    if !low.is_empty() {
        tasks(len >> b, &|block| {
            let base = block << b;
            for q in low.clone() {
                let h = 1usize << q;
                let mut k = base;
                while k < base + (1 << b) {
                    // SAFETY: [k, k + h) and [k + h, k + 2h) are disjoint and
                    // inside this task's block; blocks are disjoint.
                    unsafe { pair(q, store.run(k, h), store.run(k + h, h)) };
                    k += 2 * h;
                }
            }
        });
    }
    let min_tile_bits = floor_log2((MIN_TILE_BYTES / S::AMP_BYTES).max(1));
    let group_max = b.saturating_sub(min_tile_bits).max(1);
    let mut q_lo = qubits.start.max(b);
    while q_lo < qubits.end {
        let q_hi = (q_lo + group_max).min(qubits.end);
        let g = q_hi - q_lo;
        // Tile: 2^g row segments of 2^w amplitudes; 2^cols tiles per row.
        let w = b.saturating_sub(g).max(min_tile_bits).min(q_lo);
        let cols = q_lo - w;
        tasks(len >> (g + w), &|tile| {
            let base = ((tile >> cols) << q_hi) + ((tile & ((1 << cols) - 1)) << w);
            for q in q_lo..q_hi {
                let h = 1usize << (q - q_lo);
                let mut r0 = 0;
                while r0 < 1 << g {
                    for r in r0..r0 + h {
                        let lo = base + (r << q_lo);
                        // SAFETY: rows r and r + h are distinct, each segment
                        // lies inside its row, and tiles own disjoint column
                        // ranges of disjoint slabs.
                        unsafe {
                            pair(
                                q,
                                store.run(lo, 1 << w),
                                store.run(lo + (h << q_lo), 1 << w),
                            )
                        };
                    }
                    r0 += 2 * h;
                }
            }
        });
        q_lo = q_hi;
    }
}

/// The qubit-by-qubit schedule the blocked traversal must reproduce bit for
/// bit: one full pass over the store per qubit.
#[cfg(test)]
pub(crate) fn sweep_unblocked<S, F>(store: S, qubits: Range<usize>, pair: F)
where
    S: Store,
    F: for<'r> Fn(usize, S::Run<'r>, S::Run<'r>),
{
    for q in qubits {
        let h = 1usize << q;
        for k in (0..store.len()).step_by(2 * h) {
            // SAFETY: the two halves of one 2h-aligned block are disjoint.
            unsafe { pair(q, store.run(k, h), store.run(k + h, h)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair operation whose result depends on the order of every step:
    /// swaps with a qubit-dependent, non-commuting mix.
    fn scramble(q: usize, lo: &mut [f64], hi: &mut [f64]) {
        for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
            let (a, b) = (*l, *h);
            *l = 0.6 * a + (q as f64 + 0.3) * b;
            *h = a * b - 0.7 * a + q as f64;
        }
    }

    fn values(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as f64) * 0.618).fract() - 0.5)
            .collect()
    }

    #[test]
    fn every_shape_matches_the_unblocked_schedule() {
        // Forced-parallel policies shrink blocks to a few amplitudes, so
        // small states exercise many-group pass-2 shapes as well.
        let policies = [
            ExecPolicy::serial(),
            ExecPolicy::rayon().with_min_len(1).with_min_chunk(1),
            ExecPolicy::rayon().with_min_len(1).with_min_chunk(8),
        ];
        for n in [1usize, 2, 5, 9, 18] {
            for qubits in [0..n, n / 2..n, 0..n / 2, n - 1..n] {
                let mut expect = values(1 << n);
                sweep_unblocked(Lanes::new(&mut expect), qubits.clone(), scramble);
                for policy in &policies {
                    for threads in [1usize, 2, 4] {
                        let policy = policy.with_threads(threads);
                        let mut got = values(1 << n);
                        sweep(Lanes::new(&mut got), qubits.clone(), &policy, scramble);
                        let same = got
                            .iter()
                            .zip(&expect)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "n = {n}, qubits {qubits:?}, {policy:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn planes_move_in_lockstep() {
        let n = 7;
        let (mut re, mut im) = (values(1 << n), values(1 << n));
        im.reverse();
        let (mut re_x, mut im_x) = (re.clone(), im.clone());
        sweep_unblocked(Lanes::new(&mut re_x), 0..n, scramble);
        sweep_unblocked(Lanes::new(&mut im_x), 0..n, scramble);
        let forced = ExecPolicy::rayon().with_min_len(1).with_min_chunk(1);
        sweep(
            Planes::new(&mut re, &mut im),
            0..n,
            &forced,
            |q, (rl, il), (rh, ih)| {
                scramble(q, rl, rh);
                scramble(q, il, ih);
            },
        );
        assert_eq!((re, im), (re_x, im_x));
    }
}
