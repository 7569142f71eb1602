//! Runtime values and errors for the QL interpreters.
//!
//! Every relation value is a [`Rows`]: one flat `Vec<Elem>` holding the
//! rows end to end, `stride` elements each, strictly increasing in
//! lexicographic order. That is exactly the order of a
//! `BTreeSet<Tuple>` over tuples of one rank, so anything rendered by
//! iterating a value (result JSON, cache keys, canonical forms) has the
//! bytes a `BTreeSet<Tuple>` would give. The set operations are linear
//! merges over the two sorted buffers, all on one slice-level merge
//! kernel. The two operators that reorder rows keep the order their
//! operand already has: `↓` splits it into runs that share a first
//! element, each still sorted and distinct once that element is gone,
//! and merges the runs on the same kernel; `~` re-sorts only the
//! `(last, second-last)` pairs within each group of rows that agree
//! on everything else, and needs no dedup because swapping never
//! makes two distinct rows equal. Only values built from tuples in
//! arbitrary order go through a general sort + dedup.

use recdb_core::{Elem, FuelError, Tuple};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;

/// A finite relation of one rank in flat, sorted, deduplicated form.
///
/// Invariants: `data.len() == len * stride`; row `i` is
/// `data[i*stride..(i+1)*stride]`; rows are strictly increasing. The
/// rank-0 relations are `len` 0 (`{}`) and 1 (`{()}`). An empty value
/// carries `stride` 0 whatever its rank, so equality does not depend on
/// how the empty value was produced — the rank lives with the owner
/// ([`Val::rank`], `FcfVal::rank`).
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Rows {
    stride: usize,
    len: usize,
    data: Vec<Elem>,
}

impl Rows {
    /// The empty relation.
    pub fn new() -> Self {
        Rows::default()
    }

    /// The rank-0 relation `{()}`.
    pub fn unit() -> Self {
        Rows {
            stride: 0,
            len: 1,
            data: Vec::new(),
        }
    }

    fn normalized(stride: usize, len: usize, data: Vec<Elem>) -> Self {
        debug_assert_eq!(data.len(), len * stride);
        debug_assert!(
            stride == 0 || data.chunks_exact(stride).is_sorted_by(|a, b| a < b),
            "rows must be strictly increasing"
        );
        if len == 0 {
            Rows::new()
        } else {
            Rows { stride, len, data }
        }
    }

    /// Rows of width `stride` in any order, possibly repeated: sorts
    /// and deduplicates once (`len` is the row count, which `stride` 0
    /// cannot recover from `data`).
    pub(crate) fn from_unsorted(stride: usize, len: usize, data: Vec<Elem>) -> Self {
        debug_assert_eq!(data.len(), len * stride);
        if stride == 0 {
            return if len == 0 { Rows::new() } else { Rows::unit() };
        }
        let mut rows: Vec<&[Elem]> = data.chunks_exact(stride).collect();
        rows.sort();
        rows.dedup();
        Rows::normalized(stride, rows.len(), rows.concat())
    }

    /// Elements per row (0 for rank 0 and for the empty relation).
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i` (`i < len`).
    fn row(&self, i: usize) -> Row<'_> {
        Row(&self.data[i * self.stride..(i + 1) * self.stride])
    }

    /// The rows in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            rows: self,
            next: 0,
        }
    }

    /// Membership, by binary search.
    pub fn contains(&self, t: &[Elem]) -> bool {
        if self.len == 0 || t.len() != self.stride {
            return false;
        }
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).0.cmp(t) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// The stride two operands share (0 only when both are empty or
    /// rank 0).
    fn common_stride(&self, other: &Rows) -> usize {
        debug_assert!(self.is_empty() || other.is_empty() || self.stride == other.stride);
        self.stride.max(other.stride)
    }

    /// The merge behind `∩`/`∖`/`∪` (both operands nonempty).
    fn merge(&self, other: &Rows, keep: Keep) -> Rows {
        let s = self.common_stride(other);
        if s == 0 {
            // Both are `{()}`.
            return if keep.both { Rows::unit() } else { Rows::new() };
        }
        let mut data = Vec::new();
        merge_into(&mut data, &self.data, &other.data, s, keep);
        Rows::normalized(s, data.len() / s, data)
    }

    /// `self ∩ other` (same rank).
    pub fn intersection(&self, other: &Rows) -> Rows {
        if self.is_empty() || other.is_empty() {
            return Rows::new();
        }
        self.merge(other, Keep::INTERSECTION)
    }

    /// `self ∖ other` (same rank).
    pub fn difference(&self, other: &Rows) -> Rows {
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        self.merge(other, Keep::DIFFERENCE)
    }

    /// `self ∪ other` (same rank).
    pub fn union(&self, other: &Rows) -> Rows {
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        self.merge(other, Keep::UNION)
    }

    /// Each row with its first element dropped (`stride` ≥ 1).
    ///
    /// The rows that share a first element stay sorted and distinct once
    /// it is dropped, so the result is a union of sorted runs, each a
    /// maximal stretch of rows whose tails strictly ascend (a whole
    /// first-element group or more; a tail equal to the run's last one
    /// is dropped on the spot). The runs are merged bottom-up in pairs
    /// like a binary counter: after the `c`-th run arrives, the top two
    /// pending runs are merged `c.trailing_zeros()` times, so each row
    /// takes part in about `log₂(runs)` merges. The merges drop the
    /// tails two runs share.
    pub fn drop_first(&self) -> Rows {
        let s = self.stride;
        match s {
            0 => return Rows::new(),
            1 => return Rows::unit(),
            _ => {}
        }
        let (w, data) = (s - 1, &self.data[..]);
        let tail = |r: usize| &data[r * s + 1..(r + 1) * s];
        // The pending runs lie end to end in `buf`; `ends[..depth]` are
        // their end offsets. A merge writes to `scratch`, and one that
        // covers all of `buf` just trades the two buffers.
        let mut buf = Vec::with_capacity(self.len * w);
        let mut scratch = Vec::with_capacity(self.len * w);
        let mut ends = [0usize; usize::BITS as usize];
        let (mut depth, mut runs, mut r) = (0, 0usize, 0);
        while r < self.len || depth > 1 {
            let mut merges = 1;
            if r < self.len {
                buf.extend_from_slice(tail(r));
                r += 1;
                depth += 1;
                runs += 1;
                merges = runs.trailing_zeros();
                // Rows of one group ascend; at a group boundary the run
                // goes on if the tails still ascend, and a repeat of the
                // run's last row is dropped.
                while r < self.len {
                    if data[r * s] == data[(r - 1) * s] {
                        buf.extend_from_slice(tail(r));
                    } else {
                        match tail(r).cmp(&buf[buf.len() - w..]) {
                            Ordering::Greater => buf.extend_from_slice(tail(r)),
                            Ordering::Equal => {}
                            Ordering::Less => break,
                        }
                    }
                    r += 1;
                }
                ends[depth - 1] = buf.len();
            }
            for _ in 0..merges {
                let lo = if depth > 2 { ends[depth - 3] } else { 0 };
                let mid = ends[depth - 2];
                merge_into(&mut scratch, &buf[lo..mid], &buf[mid..], w, Keep::UNION);
                if lo == 0 {
                    std::mem::swap(&mut buf, &mut scratch);
                    scratch.clear();
                } else {
                    buf.truncate(lo);
                    buf.append(&mut scratch);
                }
                depth -= 1;
                ends[depth - 1] = buf.len();
            }
        }
        Rows::normalized(w, buf.len() / w, buf)
    }

    /// Each row with its two rightmost elements exchanged (`stride`
    /// ≥ 2). The rows that agree on everything but their last two
    /// elements are contiguous, and the swap keeps them distinct, so
    /// only each such group's `(last, second-last)` pairs are sorted;
    /// nothing needs deduplicating.
    pub fn swap_last_two(&self) -> Rows {
        let s = self.stride;
        if s < 2 {
            return self.clone();
        }
        let mut data = self.data.clone();
        // A pair packed into one `u128`, `last` in the high half, sorts
        // in `(last, second-last)` order with one comparison.
        let key = |row: &[Elem]| u128::from(row[s - 1].0) << 64 | u128::from(row[s - 2].0);
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < data.len() {
            let prefix = &self.data[i..i + s - 2];
            let mut j = i + s;
            while j < data.len() && &self.data[j..j + s - 2] == prefix {
                j += s;
            }
            pairs.extend(self.data[i..j].chunks_exact(s).map(key));
            pairs.sort_unstable();
            for (row, k) in data[i..j].chunks_exact_mut(s).zip(pairs.drain(..)) {
                row[s - 2] = Elem((k >> 64) as u64);
                row[s - 1] = Elem(k as u64);
            }
            i = j;
        }
        Rows::normalized(s, self.len, data)
    }

    /// Each row extended by every element of `dom`, which must be
    /// strictly increasing: the product `self × dom`, already sorted.
    pub(crate) fn times(&self, dom: &[Elem]) -> Rows {
        debug_assert!(dom.windows(2).all(|w| w[0] < w[1]));
        let (s, len) = (self.stride, self.len * dom.len());
        if s == 0 {
            // {()} × D = D; {} × D = {}.
            let data = if self.len == 0 {
                Vec::new()
            } else {
                dom.to_vec()
            };
            return Rows::normalized(1, data.len(), data);
        }
        if len == 0 {
            return Rows::new();
        }
        let mut data = Vec::with_capacity(len * (s + 1));
        for row in self.data.chunks_exact(s) {
            for &a in dom {
                data.extend_from_slice(row);
                data.push(a);
            }
        }
        Rows::normalized(s + 1, len, data)
    }

    /// `domⁿ ∖ self` for a rank-`n` relation (strictly increasing
    /// `dom`): an odometer walks the prefixes in `domⁿ⁻¹` in order, and
    /// for each one `dom` is merged against the last coordinates of
    /// `self`'s rows under that prefix.
    pub(crate) fn complement(&self, n: usize, dom: &[Elem]) -> Rows {
        debug_assert!(self.is_empty() || self.stride == n);
        if n == 0 {
            return if self.is_empty() {
                Rows::unit()
            } else {
                Rows::new()
            };
        }
        if dom.is_empty() {
            return Rows::new();
        }
        let total = u32::try_from(n)
            .ok()
            .and_then(|n| dom.len().checked_pow(n))
            .unwrap_or(0);
        let mut data = Vec::with_capacity(total.saturating_sub(self.len).saturating_mul(n));
        let mut len = 0;
        let p = n - 1;
        let mut idx = vec![0usize; p];
        // The row being emitted: the current prefix, then a slot for
        // each element of `dom` in turn.
        let mut cur: Vec<Elem> = vec![dom[0]; n];
        let mut j = 0;
        loop {
            // Rows below this prefix lie outside `domⁿ`: skip them.
            while j < self.len && self.row(j).0[..p] < cur[..p] {
                j += 1;
            }
            let start = j;
            while j < self.len && self.row(j).0[..p] == cur[..p] {
                j += 1;
            }
            let mut taken = (start..j).map(|r| self.data[r * n + p]).peekable();
            for &a in dom {
                while taken.next_if(|&b| b < a).is_some() {}
                if taken.next_if_eq(&a).is_some() {
                    continue;
                }
                cur[p] = a;
                data.extend_from_slice(&cur);
                len += 1;
            }
            // Advance the prefix odometer; its last coordinate is
            // fastest.
            let mut k = p;
            loop {
                if k == 0 {
                    return Rows::normalized(n, len, data);
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < dom.len() {
                    cur[k] = dom[idx[k]];
                    break;
                }
                idx[k] = 0;
                cur[k] = dom[0];
            }
        }
    }

    /// `(prefixes × dom) ∩ self` without building the product: the rows
    /// of `self` (`stride` ≥ 1) whose first `stride − 1` elements form a
    /// row of `prefixes` and whose last element lies in `dom` (strictly
    /// increasing). Both sides are walked in order, each galloping from
    /// its last position to the other's current row, so a side far
    /// ahead of the other is skipped in logarithmic steps.
    pub(crate) fn semijoin(&self, prefixes: &Rows, dom: &[Elem]) -> Rows {
        if self.is_empty() || prefixes.is_empty() {
            return Rows::new();
        }
        let s = self.stride;
        let p = s - 1;
        debug_assert_eq!(prefixes.stride, p);
        let in_dom = InDom::new(dom);
        let head = |r: usize| &self.data[r * s..r * s + p];
        let key = |i: usize| &prefixes.data[i * p..(i + 1) * p];
        let mut data = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < prefixes.len && j < self.len {
            match head(j).cmp(key(i)) {
                Ordering::Less => j = gallop(j, self.len, |r| head(r) < key(i)),
                Ordering::Greater => i = gallop(i, prefixes.len, |r| key(r) < head(j)),
                Ordering::Equal => {
                    let k = key(i);
                    while j < self.len && head(j) == k {
                        let row = &self.data[j * s..(j + 1) * s];
                        if in_dom.contains(row[p]) {
                            data.extend_from_slice(row);
                        }
                        j += 1;
                    }
                    i += 1;
                }
            }
        }
        Rows::normalized(s, data.len() / s, data)
    }

    /// `self ∩ (domⁿ ∖ other)` without building the complement: one
    /// difference merge of the rows of `self` whose elements all lie in
    /// `dom` (same rank; `dom` strictly increasing).
    pub(crate) fn difference_within(&self, other: &Rows, dom: &[Elem]) -> Rows {
        let s = self.stride;
        if s == 0 {
            // `{}` and `{()}` lie in `dom⁰` whatever `dom` is.
            return self.difference(other);
        }
        let in_dom = InDom::new(dom);
        let inside = |row: &[Elem]| row.iter().all(|&e| in_dom.contains(e));
        let filtered: Vec<Elem>;
        let rows = if self.data.chunks_exact(s).all(inside) {
            &self.data[..]
        } else {
            filtered = self
                .data
                .chunks_exact(s)
                .filter(|row| inside(row))
                .flatten()
                .copied()
                .collect();
            &filtered[..]
        };
        let mut data = Vec::new();
        merge_into(&mut data, rows, &other.data, s, Keep::DIFFERENCE);
        Rows::normalized(s, data.len() / s, data)
    }

    /// `↓(domⁿ ∖ self)` for a rank-`n` relation, `n` ≥ 1, without
    /// building the complement: a tail `t ∈ domⁿ⁻¹` survives unless
    /// `(a,t) ∈ self` for every `a ∈ dom`, so the result is `domⁿ⁻¹`
    /// minus the intersection of the tails of `self`'s first-element
    /// runs for the elements of `dom` (strictly increasing). Runs for
    /// elements outside `dom` are never visited.
    pub(crate) fn divide(&self, n: usize, dom: &[Elem]) -> Rows {
        debug_assert!(n >= 1 && (self.is_empty() || self.stride == n));
        if dom.is_empty() {
            return Rows::new();
        }
        let w = n - 1;
        let first = |r: usize| self.data[r * n];
        // `common` holds the tails every run visited so far shares;
        // `None` before the first run.
        let mut common: Option<Vec<Elem>> = None;
        let mut j = 0;
        for &a in dom {
            j = gallop(j, self.len, |r| first(r) < a);
            let end = gallop(j, self.len, |r| first(r) == a);
            if j == end {
                // No row starts with `a`: the intersection is empty.
                return Rows::new().complement(w, dom);
            }
            let run = &self.data[j * n..end * n];
            j = end;
            if w == 0 {
                continue; // the run is the one row `(a)`
            }
            let tails = match common {
                None => run.chunks_exact(n).flat_map(|r| &r[1..]).copied().collect(),
                Some(acc) => intersect_tails(&acc, run, w),
            };
            if tails.is_empty() {
                return Rows::new().complement(w, dom);
            }
            common = Some(tails);
        }
        let common = match common {
            Some(data) => Rows::normalized(w, data.len() / w, data),
            None => Rows::unit(), // `n` = 1: every `(a)` is in `self`
        };
        common.complement(w, dom)
    }
}

/// Membership in a strictly increasing universe: a range test when its
/// elements are consecutive integers, a binary search otherwise.
#[derive(Clone, Copy)]
struct InDom<'a> {
    dom: &'a [Elem],
    contiguous: bool,
}

impl<'a> InDom<'a> {
    fn new(dom: &'a [Elem]) -> Self {
        let contiguous = match (dom.first(), dom.last()) {
            (Some(lo), Some(hi)) => hi.0 - lo.0 == dom.len() as u64 - 1,
            _ => false,
        };
        InDom { dom, contiguous }
    }

    #[inline]
    fn contains(self, e: Elem) -> bool {
        if self.contiguous {
            self.dom[0] <= e && e <= self.dom[self.dom.len() - 1]
        } else {
            self.dom.binary_search(&e).is_ok()
        }
    }
}

/// The first index in `lo..hi` where `before` fails, for a `before`
/// that holds on a prefix of `lo..hi`: steps of 1, 2, 4, … from `lo`,
/// then a binary search inside the last step.
fn gallop(mut lo: usize, hi: usize, before: impl Fn(usize) -> bool) -> usize {
    let mut step = 1;
    while lo + step < hi && before(lo + step) {
        lo += step;
        step *= 2;
    }
    if lo >= hi || !before(lo) {
        return lo;
    }
    // `before(lo)` holds; the answer lies in `lo+1..=min(lo+step, hi)`.
    let mut end = (lo + step).min(hi);
    lo += 1;
    while lo < end {
        let mid = lo + (end - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            end = mid;
        }
    }
    lo
}

/// The tails (`w` elements) in both `acc` (sorted, width `w`) and the
/// rows of `run` (sorted, width `w + 1`, one shared first element):
/// [`merge_into`]'s intersection, reading `run` in place.
fn intersect_tails(acc: &[Elem], run: &[Elem], w: usize) -> Vec<Elem> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < acc.len() && j < run.len() {
        let (x, y) = (&acc[i..i + w], &run[j + 1..j + 1 + w]);
        match x.cmp(y) {
            Ordering::Less => i += w,
            Ordering::Greater => j += w + 1,
            Ordering::Equal => {
                out.extend_from_slice(x);
                i += w;
                j += w + 1;
            }
        }
    }
    out
}

/// The one merge loop behind every set operation and `↓`'s run
/// union: appends to `out` the rows of width `width` (≥ 1) of the
/// sorted buffers `a` and `b` that `keep` selects, in order.
fn merge_into(out: &mut Vec<Elem>, a: &[Elem], b: &[Elem], width: usize, keep: Keep) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (&a[i..i + width], &b[j..j + width]);
        match x.cmp(y) {
            Ordering::Less => {
                if keep.only_self {
                    out.extend_from_slice(x);
                }
                i += width;
            }
            Ordering::Greater => {
                if keep.only_other {
                    out.extend_from_slice(y);
                }
                j += width;
            }
            Ordering::Equal => {
                if keep.both {
                    out.extend_from_slice(x);
                }
                i += width;
                j += width;
            }
        }
    }
    if keep.only_self {
        out.extend_from_slice(&a[i..]);
    }
    if keep.only_other {
        out.extend_from_slice(&b[j..]);
    }
}

/// Which rows a merge keeps: those only in the left operand, only in
/// the right one, or in both.
#[derive(Clone, Copy)]
struct Keep {
    only_self: bool,
    only_other: bool,
    both: bool,
}

impl Keep {
    const INTERSECTION: Keep = Keep {
        only_self: false,
        only_other: false,
        both: true,
    };
    const DIFFERENCE: Keep = Keep {
        only_self: true,
        only_other: false,
        both: false,
    };
    const UNION: Keep = Keep {
        only_self: true,
        only_other: true,
        both: true,
    };
}

impl FromIterator<Tuple> for Rows {
    /// Collects tuples of one rank (any order, repeats allowed).
    ///
    /// # Panics
    /// Panics if two tuples differ in rank.
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut stride = None;
        let mut len = 0;
        let mut data = Vec::new();
        for t in iter {
            let s = *stride.get_or_insert(t.rank());
            assert_eq!(t.rank(), s, "value tuples must share the rank");
            data.extend_from_slice(t.elems());
            len += 1;
        }
        Rows::from_unsorted(stride.unwrap_or(0), len, data)
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = Row<'a>;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Rows {
    /// Formats like the equivalent `BTreeSet<Tuple>`: `{(0,1), (1,0)}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The rows of a [`Rows`], in increasing order.
#[derive(Clone)]
pub struct Iter<'a> {
    rows: &'a Rows,
    next: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = Row<'a>;
    fn next(&mut self) -> Option<Row<'a>> {
        (self.next < self.rows.len).then(|| {
            self.next += 1;
            self.rows.row(self.next - 1)
        })
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rows.len - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// A borrowed row of a [`Rows`]: a tuple view ordered and printed like
/// [`Tuple`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Row<'a>(&'a [Elem]);

impl<'a> Row<'a> {
    /// The elements.
    pub fn elems(self) -> &'a [Elem] {
        self.0
    }

    /// An owned copy.
    pub fn to_tuple(self) -> Tuple {
        Tuple::from(self.0)
    }

    /// Applies a function to every element, producing a new tuple.
    pub fn map(self, f: impl FnMut(Elem) -> Elem) -> Tuple {
        self.0.iter().copied().map(f).collect()
    }
}

impl Deref for Row<'_> {
    type Target = [Elem];
    fn deref(&self) -> &[Elem] {
        self.0
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", e.0)?;
        }
        write!(f, ")")
    }
}

/// A term value: a finite set of tuples of a common rank. For QLhs the
/// tuples are class representatives from `T_B`; for finitary QL they
/// are ordinary database tuples.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Val {
    /// The common rank.
    pub rank: usize,
    /// The tuples.
    pub tuples: Rows,
}

impl Val {
    /// The empty relation of a given rank.
    pub fn empty(rank: usize) -> Self {
        Val {
            rank,
            tuples: Rows::new(),
        }
    }

    /// A value from tuples, checking the common rank.
    ///
    /// # Panics
    /// Panics if a tuple's rank differs.
    pub fn new(rank: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let tuples: Rows = tuples.into_iter().collect();
        assert!(
            tuples.is_empty() || tuples.stride() == rank,
            "value tuples must share the rank"
        );
        Val { rank, tuples }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty? (The `|Y| = 0` test.)
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Does it hold exactly one tuple? (The `|Y| = 1` test.)
    pub fn is_singleton(&self) -> bool {
        self.tuples.len() == 1
    }
}

/// An interpretation error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunError {
    /// `e ∩ f` with different ranks.
    RankMismatch {
        /// Left operand's rank.
        left: usize,
        /// Right operand's rank.
        right: usize,
    },
    /// A term referenced a relation index outside the schema.
    NoSuchRelation(usize),
    /// The construct is not part of the dialect being interpreted
    /// (e.g. `while |Y|=1` under plain QL).
    DialectViolation(&'static str),
    /// The step budget ran out (the program may diverge).
    Fuel(FuelError),
    /// QLf+: `↑` applied to a co-finite (infinite) value.
    UpOnInfinite,
    /// An interpreter invariant failed (e.g. a tuple shorter than its
    /// value's declared rank) — a bug report, not a query error.
    Internal(&'static str),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::RankMismatch { left, right } => {
                write!(f, "rank mismatch: {left} vs {right}")
            }
            RunError::NoSuchRelation(i) => write!(f, "no relation R{}", i + 1),
            RunError::DialectViolation(msg) => write!(f, "dialect violation: {msg}"),
            RunError::Fuel(e) => write!(f, "{e}"),
            RunError::UpOnInfinite => write!(f, "up() applied to a co-finite relation"),
            RunError::Internal(msg) => write!(f, "interpreter invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<FuelError> for RunError {
    fn from(e: FuelError) -> Self {
        RunError::Fuel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recdb_core::tuple;

    #[test]
    fn singleton_and_empty_tests() {
        let v = Val::empty(2);
        assert!(v.is_empty());
        assert!(!v.is_singleton());
        let s = Val::new(1, [tuple![4]]);
        assert!(s.is_singleton());
        let d = Val::new(1, [tuple![4], tuple![5]]);
        assert!(!d.is_singleton() && !d.is_empty());
    }

    #[test]
    #[should_panic(expected = "share the rank")]
    fn mixed_ranks_rejected() {
        Val::new(1, [tuple![1], tuple![1, 2]]);
    }

    #[test]
    fn error_display() {
        let e = RunError::RankMismatch { left: 2, right: 3 };
        assert!(e.to_string().contains("2 vs 3"));
        assert!(RunError::NoSuchRelation(0).to_string().contains("R1"));
    }
}
