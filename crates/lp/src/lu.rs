//! Sparse LU factorization of the simplex basis: a singleton pass, then
//! threshold Markowitz on the remaining bump.
//!
//! The factorization `B = P⁻¹·L·U·Q⁻¹` is built by Gaussian elimination in
//! two passes over flat working arrays: the basis columns are read straight
//! from `A`, a row-wise copy is built by counting sort, and the bump lives
//! in one packed arena. No hash container or ordered set is built per call.
//!
//! * The **singleton pass** peels off the triangular part of the basis,
//!   which is most of it for the mechanism's slack-heavy bases. A column
//!   with one active entry pivots on it and needs no elimination (its row
//!   becomes a row of `U`). A row with one active entry pivots on it and
//!   eliminates the pivot column from the other rows with pure multipliers:
//!   the pivot row has nothing else to spread, so it creates no fill and no
//!   value in the working copy changes. Column singletons go first, to
//!   exhaustion, then row singletons; a row singleton is taken only when it
//!   passes the threshold test below.
//! * **Threshold Markowitz** runs on the remaining *bump* only. Among
//!   numerically acceptable entries it picks one minimising
//!   `(r_i − 1)(c_j − 1)` (row count × column count of the active
//!   submatrix), which bounds the fill-in a pivot can create. An entry is
//!   acceptable only when its magnitude is at least
//!   [`SimplexOptions::markowitz_threshold`] times the largest magnitude in
//!   its column. Columns are visited in ascending count order from linked
//!   count buckets, at most [`MAX_CANDIDATES`] acceptable columns per pivot.
//!
//! Both passes walk queues and buckets in an order fixed by the input; a
//! Markowitz tie keeps the first column visited and, within a column, the
//! row with the fewest entries, then the lowest row. The same basis always
//! factors the same way — part of the crate-wide bit-identity discipline.
//!
//! `L` is stored as one column of multipliers per eliminating pivot
//! (`z[target] −= factor · z[pivot_row]`, applied forward for FTRAN,
//! reversed and transposed for BTRAN). `U` is stored column-wise: pivots
//! are named by their row, each pivot's column holds `(row, value)` entries
//! in one flat arena, and a list of pivot rows fixes the triangular order.
//! Both the basis slot of each pivot and the order are plain vectors.
//!
//! Across pivots the factorization is kept current by **Forrest–Tomlin
//! updates** (Forrest and Tomlin, Math. Programming 1972). Replacing the
//! basic column of slot `r`, whose pivot sits on row `k`:
//!
//! * the FTRAN of the entering column saves its **spike** `ŝ`, the image
//!   after `L` and the earlier row etas but before `U` ([`Spike`]);
//! * the spike becomes pivot `k`'s new column of `U`, and pivot `k` moves
//!   to the end of the triangular order;
//! * the old row `k` of `U` now sits below the diagonal. One **row eta**
//!   eliminates it (`z[k] −= Σ μ_j·z[j]`). Its multipliers come from the
//!   partial BTRAN `e_kᵀU⁻¹` over the pivots after `k`: a dual pivot's
//!   BTRAN of `ρ_r` computes it on the way ([`LuFactor::btran_unit`]),
//!   otherwise the update does. The new diagonal is `(Rŝ)_k`;
//! * row `k`'s old entries stay where they are. Both solves write into a
//!   separate output, so an entry below the diagonal is never read and an
//!   update deletes nothing.
//!
//! An update stores the spike's nonzeros plus the row eta: a few entries
//! on the mechanism's hinge-row bases, where a product-form eta stores the
//! whole dense image `B⁻¹a_q`. FTRAN runs `L`, the row etas in order, then
//! `U` (last pivot first); BTRAN runs `Uᵀ`, the row etas in reverse, then
//! `Lᵀ`. An update is refused when its new diagonal is below
//! [`ABS_PIVOT_TOL`] or disagrees with `w_r · u_kk` (the determinant
//! identity, `w_r = (B⁻¹a_q)_r`) by more than [`UPDATE_REL_TOL`]; the
//! engine then refactorizes. [`SimplexOptions::update_cap`] bounds the
//! updates between factorizations, and the drift-gated residual check in
//! [`crate::revised`] can force a fresh factorization sooner.
//!
//! The factors sit behind an [`std::sync::Arc`], so handing a basis on to
//! the next warm solve copies nothing. The first update after a hand-off
//! copies them (copy-on-write); later ones work in place. FTRAN and BTRAN
//! take a caller-owned scratch vector, so they allocate nothing.
//!
//! [`SimplexOptions::markowitz_threshold`]: crate::SimplexOptions::markowitz_threshold
//! [`SimplexOptions::update_cap`]: crate::SimplexOptions::update_cap

use std::cell::Cell;
use std::sync::Arc;

use crate::sparse::CscMatrix;

/// Absolute floor on accepted pivot magnitudes; mirrors the singularity
/// guard of the dense refactorization (`PIVOT_TOL · 1e-2`).
const ABS_PIVOT_TOL: f64 = 1e-9;

/// How many threshold-acceptable candidate columns one Markowitz scan
/// examines before settling for the best seen (bounded Markowitz search).
const MAX_CANDIDATES: usize = 16;

/// End-of-list marker of the count buckets, and a hole in the pivot order.
const NONE: u32 = u32::MAX;

/// Largest relative gap between an update's new diagonal and the
/// determinant identity `w_r · u_kk` before the update is refused.
const UPDATE_REL_TOL: f64 = 1e-8;

/// A sparse LU factorization of one basis matrix, kept current by
/// Forrest–Tomlin updates.
#[derive(Clone, Debug)]
pub(crate) struct LuFactors {
    /// Dimension of the (square) basis.
    m: usize,
    /// Pivot row of each column of `L`, in application order.
    l_pivots: Vec<u32>,
    /// `l_ptr[k]..l_ptr[k+1]` indexes the multipliers of `L` column `k` in
    /// `l_entries`.
    l_ptr: Vec<u32>,
    /// `(target_row, factor)`: `z[target] −= factor · z[l_pivots[k]]`.
    l_entries: Vec<(u32, f64)>,
    /// Basis slot of the pivot on each row.
    slot_of: Vec<u32>,
    /// Pivot row of each basis slot (the inverse of `slot_of`).
    row_of: Vec<u32>,
    /// Pivot rows in triangular order: the `U` column of `order[t]` has
    /// entries only on rows `order[..t]`. An update moves its pivot to the
    /// end and leaves a [`NONE`] hole, so there are at most `update_cap`
    /// holes until the next factorization.
    order: Vec<u32>,
    /// Position of each pivot row in `order`.
    pos: Vec<u32>,
    /// `u_start[r]..u_start[r] + u_len[r]` indexes the off-diagonal
    /// `(row, value)` entries of the `U` column pivoting on row `r`. An
    /// entry whose row comes later in `order` is stale (its row moved last
    /// in an update) and is never read: both solves write into a separate
    /// output, so it only ever meets a finished or a still-zero value.
    u_start: Vec<u32>,
    u_len: Vec<u32>,
    /// The column arena. An updated column is appended, so the arena keeps
    /// at most `update_cap` dead columns until the next factorization.
    u_entries: Vec<(u32, f64)>,
    /// Diagonal of `U`, by pivot row.
    diag: Vec<f64>,
    /// Pivot row of each row eta, in the order FTRAN applies them.
    r_rows: Vec<u32>,
    /// `r_ptr[k]..r_ptr[k+1]` indexes the multipliers of row eta `k` in
    /// `r_entries`.
    r_ptr: Vec<u32>,
    /// `(row, μ)`: `z[r_rows[k]] −= μ · z[row]`.
    r_entries: Vec<(u32, f64)>,
    /// Updates applied since the factorization.
    updates: usize,
}

/// The factors under construction, in pivot order.
struct Builder {
    l_pivots: Vec<u32>,
    l_ptr: Vec<u32>,
    l_entries: Vec<(u32, f64)>,
    pivot_rows: Vec<u32>,
    pivot_cols: Vec<u32>,
    u_ptr: Vec<u32>,
    /// `(basis_slot, value)` entries of each pivot's row of `U`, until
    /// [`Builder::finish`] turns them into columns.
    u_entries: Vec<(u32, f64)>,
    diag: Vec<f64>,
}

impl Builder {
    fn new(m: usize) -> Self {
        let mut u_ptr = Vec::with_capacity(m + 1);
        u_ptr.push(0);
        Builder {
            l_pivots: Vec::new(),
            l_ptr: vec![0],
            l_entries: Vec::new(),
            pivot_rows: Vec::with_capacity(m),
            pivot_cols: Vec::with_capacity(m),
            u_ptr,
            u_entries: Vec::new(),
            diag: Vec::with_capacity(m),
        }
    }

    /// Records pivot `(row, col, value)`; the caller has already appended
    /// its U row to `u_entries`.
    fn pivot(&mut self, row: u32, col: u32, value: f64) {
        self.pivot_rows.push(row);
        self.pivot_cols.push(col);
        self.diag.push(value);
        self.u_ptr.push(self.u_entries.len() as u32);
    }

    /// Closes the L column of the pivot on `row` if it recorded any
    /// multiplier.
    fn close_l_column(&mut self, row: u32) {
        if self.l_entries.len() as u32 > *self.l_ptr.last().unwrap_or(&0) {
            self.l_pivots.push(row);
            self.l_ptr.push(self.l_entries.len() as u32);
        }
    }

    /// Turns the rows of `U` into columns named by pivot row, by counting
    /// sort (each column lists its rows in pivot order).
    fn finish(self, m: usize) -> LuFactors {
        let mut slot_of = vec![0u32; m];
        let mut row_of = vec![0u32; m];
        let mut diag = vec![0.0; m];
        for ((&r, &c), &d) in self.pivot_rows.iter().zip(&self.pivot_cols).zip(&self.diag) {
            slot_of[r as usize] = c;
            row_of[c as usize] = r;
            diag[r as usize] = d;
        }
        let mut u_start = vec![0u32; m + 1];
        for &(c, _) in &self.u_entries {
            u_start[row_of[c as usize] as usize + 1] += 1;
        }
        for r in 0..m {
            u_start[r + 1] += u_start[r];
        }
        let u_len: Vec<u32> = u_start.windows(2).map(|w| w[1] - w[0]).collect();
        u_start.truncate(m);
        let mut next = u_start.clone();
        let mut u_entries = vec![(0u32, 0.0f64); self.u_entries.len()];
        for (t, &r) in self.pivot_rows.iter().enumerate() {
            for &(c, v) in &self.u_entries[self.u_ptr[t] as usize..self.u_ptr[t + 1] as usize] {
                let col = row_of[c as usize] as usize;
                u_entries[next[col] as usize] = (r, v);
                next[col] += 1;
            }
        }
        let mut pos = vec![0u32; m];
        for (t, &r) in self.pivot_rows.iter().enumerate() {
            pos[r as usize] = t as u32;
        }
        LuFactors {
            m,
            l_pivots: self.l_pivots,
            l_ptr: self.l_ptr,
            l_entries: self.l_entries,
            slot_of,
            row_of,
            order: self.pivot_rows,
            pos,
            u_start,
            u_len,
            u_entries,
            diag,
            r_rows: Vec::new(),
            r_ptr: vec![0],
            r_entries: Vec::new(),
            updates: 0,
        }
    }
}

/// Doubly linked lists of the active bump columns, bucketed by active
/// entry count, so the Markowitz search visits columns in ascending count
/// order in `O(visited)`.
struct CountBuckets {
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Bucket each column is linked in (`NONE` once eliminated).
    count: Vec<u32>,
}

impl CountBuckets {
    fn new(m: usize, max_count: usize) -> Self {
        CountBuckets {
            head: vec![NONE; max_count + 1],
            next: vec![NONE; m],
            prev: vec![NONE; m],
            count: vec![NONE; m],
        }
    }

    fn insert(&mut self, c: u32, count: u32) {
        let h = self.head[count as usize];
        self.next[c as usize] = h;
        self.prev[c as usize] = NONE;
        if h != NONE {
            self.prev[h as usize] = c;
        }
        self.head[count as usize] = c;
        self.count[c as usize] = count;
    }

    fn remove(&mut self, c: u32) {
        let (p, n) = (self.prev[c as usize], self.next[c as usize]);
        if p == NONE {
            self.head[self.count[c as usize] as usize] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NONE {
            self.prev[n as usize] = p;
        }
        self.count[c as usize] = NONE;
    }

    fn relink(&mut self, c: u32, count: usize) {
        if self.count[c as usize] != count as u32 {
            self.remove(c);
            self.insert(c, count as u32);
        }
    }
}

/// Variable-length lists packed in one flat arena. A list that outgrows
/// its slot moves to the end of the arena with twice the room, so the
/// working copy of a factorization makes `O(log)` allocations, not one per
/// row and column.
struct Lists<T> {
    start: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    data: Vec<T>,
}

impl<T: Copy + Default> Lists<T> {
    /// Empty lists with room for `caps[k]` entries each.
    fn with_capacities(caps: &[u32]) -> Self {
        let mut start = Vec::with_capacity(caps.len());
        let mut total = 0u32;
        for &c in caps {
            start.push(total);
            total += c;
        }
        Lists {
            start,
            len: vec![0; caps.len()],
            cap: caps.to_vec(),
            data: vec![T::default(); total as usize],
        }
    }

    fn get(&self, k: u32) -> &[T] {
        let s = self.start[k as usize] as usize;
        &self.data[s..s + self.len[k as usize] as usize]
    }

    fn get_mut(&mut self, k: u32) -> &mut [T] {
        let s = self.start[k as usize] as usize;
        &mut self.data[s..s + self.len[k as usize] as usize]
    }

    fn push(&mut self, k: u32, v: T) {
        let k = k as usize;
        if self.len[k] == self.cap[k] {
            let (s, n) = (self.start[k] as usize, self.len[k] as usize);
            let moved = self.data.len();
            self.data.extend_from_within(s..s + n);
            let cap = (2 * n).max(4);
            self.data.resize(moved + cap, T::default());
            self.start[k] = moved as u32;
            self.cap[k] = cap as u32;
        }
        self.data[(self.start[k] + self.len[k]) as usize] = v;
        self.len[k] += 1;
    }

    /// Removes the first entry matching `pred` (order not preserved).
    fn remove_first(&mut self, k: u32, pred: impl Fn(&T) -> bool) {
        let list = self.get_mut(k);
        if let Some(p) = list.iter().position(pred) {
            let last = list.len() - 1;
            list.swap(p, last);
            self.len[k as usize] -= 1;
        }
    }

    /// Keeps the entries matching `keep`, in order.
    fn retain(&mut self, k: u32, keep: impl Fn(&T) -> bool) {
        let list = self.get_mut(k);
        let mut n = 0;
        for p in 0..list.len() {
            if keep(&list[p]) {
                list[n] = list[p];
                n += 1;
            }
        }
        self.len[k as usize] = n as u32;
    }
}

/// The active submatrix the singleton pass leaves, in local indices:
/// values column-wise (what threshold pivoting reads), row patterns
/// row-wise (what Markowitz costs and elimination targets read).
struct Bump {
    /// Global row of each local row, ascending.
    rows_global: Vec<u32>,
    /// Basis slot of each local column, ascending.
    cols_global: Vec<u32>,
    /// `(local_row, value)` per local column.
    cols: Lists<(u32, f64)>,
    /// Local columns per local row.
    rows: Lists<u32>,
}

impl Bump {
    fn new(a: &CscMatrix, basic: &[usize], row_done: &[bool], col_done: &[bool]) -> Self {
        let mut local = vec![NONE; row_done.len()];
        let mut rows_global = Vec::new();
        for (i, _) in row_done.iter().enumerate().filter(|(_, &done)| !done) {
            local[i] = rows_global.len() as u32;
            rows_global.push(i as u32);
        }
        let cols_global: Vec<u32> = (0..col_done.len() as u32)
            .filter(|&c| !col_done[c as usize])
            .collect();
        let k = rows_global.len();
        // Room for twice the initial entries absorbs most fill in place.
        let mut col_caps = vec![0u32; k];
        let mut row_caps = vec![0u32; k];
        for (lc, &c) in cols_global.iter().enumerate() {
            for &i in a.col_slices(basic[c as usize]).0 {
                if local[i] != NONE {
                    col_caps[lc] += 2;
                    row_caps[local[i] as usize] += 2;
                }
            }
        }
        let mut cols = Lists::with_capacities(&col_caps);
        let mut rows = Lists::with_capacities(&row_caps);
        for (lc, &c) in cols_global.iter().enumerate() {
            let (ri, vals) = a.col_slices(basic[c as usize]);
            for (&i, &v) in ri.iter().zip(vals) {
                let li = local[i];
                if li != NONE {
                    cols.push(lc as u32, (li, v));
                    rows.push(li, lc as u32);
                }
            }
        }
        Bump {
            rows_global,
            cols_global,
            cols,
            rows,
        }
    }

    /// Threshold Markowitz elimination of the bump into `out`.
    fn factorize(mut self, out: &mut Builder, threshold: f64) -> Result<(), ()> {
        let k = self.rows_global.len();
        let mut buckets = CountBuckets::new(k, k);
        for c in (0..k as u32).rev() {
            buckets.insert(c, self.cols.len[c as usize]);
        }
        // Scatter map of the column being updated: `mark[i] == stamp` means
        // local row `i` sits at `slot[i]` of that column.
        let mut mark = vec![0u32; k];
        let mut slot = vec![0u32; k];
        let mut stamp = 0u32;
        // `(local_row, multiplier)` of the current pivot's targets, and the
        // other columns of its row.
        let mut targets: Vec<(u32, f64)> = Vec::new();
        let mut pivot_row: Vec<u32> = Vec::new();

        for remaining in (1..=k).rev() {
            if buckets.head[0] != NONE {
                return Err(());
            }
            let (lr, lc, pv) = self.select(&buckets, remaining, threshold).ok_or(())?;
            let (r, c) = (self.rows_global[lr as usize], self.cols_global[lc as usize]);

            // Multipliers of the rows the pivot column leaves.
            targets.clear();
            for &(i, v) in self.cols.get(lc) {
                if i != lr {
                    targets.push((i, v / pv));
                    out.l_entries.push((self.rows_global[i as usize], v / pv));
                }
            }
            for &(i, _) in &targets {
                self.rows.remove_first(i, |&cc| cc == lc);
            }
            out.close_l_column(r);

            // Update every other column of the pivot row: its pivot-row
            // entry becomes a U entry, then `a_ij −= f_i · u_j` per target.
            pivot_row.clear();
            pivot_row.extend(self.rows.get(lr).iter().filter(|&&cc| cc != lc));
            for &cc in &pivot_row {
                stamp += 1;
                for (p, &(i, _)) in self.cols.get(cc).iter().enumerate() {
                    mark[i as usize] = stamp;
                    slot[i as usize] = p as u32;
                }
                let col = self.cols.get_mut(cc);
                let u = std::mem::replace(&mut col[slot[lr as usize] as usize].1, 0.0);
                out.u_entries.push((self.cols_global[cc as usize], u));
                let mut cancelled = false;
                for &(i, f) in &targets {
                    if mark[i as usize] == stamp {
                        let e = &mut self.cols.get_mut(cc)[slot[i as usize] as usize].1;
                        *e -= f * u;
                        cancelled |= *e == 0.0;
                    } else if f * u != 0.0 {
                        self.cols.push(cc, (i, -f * u));
                        self.rows.push(i, cc);
                    }
                }
                // Drop the pivot row's entry and any exact cancellation.
                if cancelled {
                    for &(i, _) in self.cols.get(cc).iter().filter(|e| e.1 == 0.0 && e.0 != lr) {
                        self.rows.remove_first(i, |&x| x == cc);
                    }
                }
                self.cols.retain(cc, |e| e.1 != 0.0);
                buckets.relink(cc, self.cols.len[cc as usize] as usize);
            }
            buckets.remove(lc);
            out.pivot(r, c, pv);
        }
        Ok(())
    }

    /// Bounded threshold-Markowitz search: `(local_row, local_col, value)`
    /// of the cheapest acceptable pivot among the first [`MAX_CANDIDATES`]
    /// acceptable columns in ascending count order (a zero-cost pivot ends
    /// the search). Ties keep the first visited; within a column the row
    /// with the fewest entries, then the lowest row, wins.
    fn select(
        &self,
        buckets: &CountBuckets,
        remaining: usize,
        threshold: f64,
    ) -> Option<(u32, u32, f64)> {
        let mut best: Option<(u64, u32, u32, f64)> = None;
        let (mut examined, mut visited) = (0usize, 0usize);
        'search: for cnt in 1..buckets.head.len() {
            let mut c = buckets.head[cnt];
            while c != NONE {
                visited += 1;
                let col = self.cols.get(c);
                let colmax = col.iter().fold(0.0f64, |acc, e| acc.max(e.1.abs()));
                let mut cand: Option<(u32, u32, f64)> = None;
                for &(i, v) in col {
                    if v.abs() < threshold * colmax || v.abs() < ABS_PIVOT_TOL {
                        continue;
                    }
                    let rc = self.rows.len[i as usize];
                    if cand.is_none_or(|(brc, bi, _)| (rc, i) < (brc, bi)) {
                        cand = Some((rc, i, v));
                    }
                }
                if let Some((rc, i, v)) = cand {
                    let cost = (cnt as u64 - 1) * u64::from(rc - 1);
                    if best.is_none_or(|b| cost < b.0) {
                        best = Some((cost, i, c, v));
                    }
                    examined += 1;
                    if cost == 0 || examined >= MAX_CANDIDATES {
                        break 'search;
                    }
                }
                if visited == remaining {
                    break 'search;
                }
                c = buckets.next[c as usize];
            }
        }
        best.map(|(_, i, c, v)| (i, c, v))
    }
}

impl LuFactors {
    /// The factorization of the identity basis (the all-slack cold start):
    /// trivial permutations, unit diagonal, no elimination ops. `O(m)`.
    pub(crate) fn identity(m: usize) -> Self {
        let trivial: Vec<u32> = (0..m as u32).collect();
        LuFactors {
            m,
            l_pivots: Vec::new(),
            l_ptr: vec![0],
            l_entries: Vec::new(),
            slot_of: trivial.clone(),
            row_of: trivial.clone(),
            pos: trivial.clone(),
            order: trivial,
            u_start: vec![0; m],
            u_len: vec![0; m],
            u_entries: Vec::new(),
            diag: vec![1.0; m],
            r_rows: Vec::new(),
            r_ptr: vec![0],
            r_entries: Vec::new(),
            updates: 0,
        }
    }

    /// Factorizes the basis matrix whose columns are `a[:, basic[k]]`.
    /// Fails (`Err`) when the matrix is structurally or numerically singular.
    pub(crate) fn factorize(a: &CscMatrix, basic: &[usize], threshold: f64) -> Result<Self, ()> {
        let m = basic.len();
        let threshold = threshold.clamp(0.0, 1.0);
        let col = |c: usize| a.col_slices(basic[c]);

        // Row-wise pattern of the basis by counting sort over its columns
        // (rows come out sorted by slot); the columns are read from `a`.
        let mut row_ptr = vec![0u32; m + 1];
        let mut col_count = vec![0u32; m];
        for (c, count) in col_count.iter_mut().enumerate() {
            let (rows, _) = col(c);
            *count = rows.len() as u32;
            for &i in rows {
                row_ptr[i + 1] += 1;
            }
        }
        for i in 0..m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut row_count: Vec<u32> = row_ptr.windows(2).map(|w| w[1] - w[0]).collect();
        if col_count.contains(&0) || row_count.contains(&0) {
            return Err(());
        }
        let mut next = row_ptr[..m].to_vec();
        let mut row_cols = vec![(0u32, 0.0f64); row_ptr[m] as usize];
        for c in 0..m {
            let (rows, vals) = col(c);
            for (&i, &v) in rows.iter().zip(vals) {
                row_cols[next[i] as usize] = (c as u32, v);
                next[i] += 1;
            }
        }
        let row = |i: usize| &row_cols[row_ptr[i] as usize..row_ptr[i + 1] as usize];
        let mut row_done = vec![false; m];
        let mut col_done = vec![false; m];
        let mut out = Builder::new(m);

        // --- Column singletons: pivot, no elimination; the pivot row's
        // other active entries become its row of U. ---
        let mut queue: Vec<u32> = (0..m as u32)
            .filter(|&c| col_count[c as usize] == 1)
            .collect();
        let mut head = 0;
        while head < queue.len() {
            let c = queue[head] as usize;
            head += 1;
            if col_done[c] {
                continue;
            }
            let (rows, vals) = col(c);
            let Some(k) = rows.iter().position(|&i| !row_done[i]) else {
                // Its only row went to another singleton: singular.
                return Err(());
            };
            let (r, v) = (rows[k], vals[k]);
            if v.abs() < ABS_PIVOT_TOL {
                continue;
            }
            for &(cc, vv) in row(r) {
                let cc = cc as usize;
                if cc == c || col_done[cc] {
                    continue;
                }
                out.u_entries.push((cc as u32, vv));
                col_count[cc] -= 1;
                if col_count[cc] == 1 {
                    queue.push(cc as u32);
                }
            }
            out.pivot(r as u32, c as u32, v);
            row_done[r] = true;
            col_done[c] = true;
        }

        // --- Row singletons: pivot, eliminate the column with pure
        // multipliers; nothing fills in and no working value changes. ---
        queue.clear();
        queue
            .extend((0..m as u32).filter(|&r| !row_done[r as usize] && row_count[r as usize] == 1));
        head = 0;
        while head < queue.len() {
            let r = queue[head] as usize;
            head += 1;
            if row_done[r] {
                continue;
            }
            let Some(&(c, v)) = row(r).iter().find(|e| !col_done[e.0 as usize]) else {
                return Err(());
            };
            let c = c as usize;
            let (rows, vals) = col(c);
            let colmax = rows
                .iter()
                .zip(vals)
                .filter(|&(&i, _)| !row_done[i])
                .fold(0.0f64, |acc, (_, v)| acc.max(v.abs()));
            if v.abs() < threshold * colmax || v.abs() < ABS_PIVOT_TOL {
                continue;
            }
            for (&i, &vi) in rows.iter().zip(vals) {
                if i == r || row_done[i] {
                    continue;
                }
                out.l_entries.push((i as u32, vi / v));
                row_count[i] -= 1;
                match row_count[i] {
                    0 => return Err(()),
                    1 => queue.push(i as u32),
                    _ => {}
                }
            }
            out.close_l_column(r as u32);
            out.pivot(r as u32, c as u32, v);
            row_done[r] = true;
            col_done[c] = true;
        }

        if out.diag.len() < m {
            let bump = Bump::new(a, basic, &row_done, &col_done);
            bump.factorize(&mut out, threshold)?;
        }
        Ok(out.finish(m))
    }

    /// Stored nonzeros: L multipliers, the entries of the current `U`
    /// columns with the diagonal, and row-eta multipliers.
    pub(crate) fn nnz(&self) -> usize {
        let u: u32 = self.u_len.iter().sum();
        self.l_entries.len() + u as usize + self.m + self.r_entries.len()
    }

    /// The off-diagonal entries of the `U` column pivoting on row `r`.
    fn u_col(&self, r: usize) -> &[(u32, f64)] {
        let s = self.u_start[r] as usize;
        &self.u_entries[s..s + self.u_len[r] as usize]
    }

    /// Solves `B·x = z` in place (`z` enters as the right-hand side, leaves
    /// as the solution). With `spike`, also saves the image after `L` and
    /// the row etas for [`LuFactor::update`]. `scratch` is resized to `m`
    /// and overwritten.
    fn ftran_in_place(&self, z: &mut [f64], spike: Option<&mut Spike>, scratch: &mut Vec<f64>) {
        debug_assert_eq!(z.len(), self.m);
        for (k, &pr) in self.l_pivots.iter().enumerate() {
            let zp = z[pr as usize];
            if zp != 0.0 {
                let range = self.l_ptr[k] as usize..self.l_ptr[k + 1] as usize;
                for &(tr, f) in &self.l_entries[range] {
                    z[tr as usize] -= f * zp;
                }
            }
        }
        for (k, &r) in self.r_rows.iter().enumerate() {
            let range = self.r_ptr[k] as usize..self.r_ptr[k + 1] as usize;
            let s: f64 = self.r_entries[range]
                .iter()
                .map(|&(j, mu)| mu * z[j as usize])
                .sum();
            z[r as usize] -= s;
        }
        if let Some(spike) = spike {
            spike.0.clear();
            spike.0.extend(
                z.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(i, &v)| (i as u32, v)),
            );
        }
        // Back substitution through U by columns, last pivot first, each
        // result written straight to its basis slot.
        scratch.resize(self.m, 0.0);
        let x = &mut scratch[..self.m];
        for &r in self.order.iter().rev().filter(|&&r| r != NONE) {
            let r = r as usize;
            let zr = z[r];
            let xr = if zr != 0.0 {
                let xr = zr / self.diag[r];
                for &(i, v) in self.u_col(r) {
                    z[i as usize] -= v * xr;
                }
                xr
            } else {
                0.0
            };
            x[self.slot_of[r] as usize] = xr;
        }
        z.copy_from_slice(x);
    }

    /// Solves `Bᵀ·y = c` in place. With `partial`, also saves the image
    /// after `Uᵀ` (before the row etas and `Lᵀ`), by row. `scratch` is
    /// resized to `m` and overwritten.
    fn btran_in_place(
        &self,
        c: &mut [f64],
        partial: Option<&mut Vec<f64>>,
        scratch: &mut Vec<f64>,
    ) {
        debug_assert_eq!(c.len(), self.m);
        scratch.clear();
        scratch.resize(self.m, 0.0);
        let w = &mut scratch[..self.m];
        self.solve_ut(0, w, |r| c[self.slot_of[r] as usize]);
        if let Some(partial) = partial {
            partial.clear();
            partial.extend_from_slice(w);
        }
        // Transposed row etas, newest first.
        for (k, &r) in self.r_rows.iter().enumerate().rev() {
            let wr = w[r as usize];
            if wr != 0.0 {
                let range = self.r_ptr[k] as usize..self.r_ptr[k + 1] as usize;
                for &(j, mu) in &self.r_entries[range] {
                    w[j as usize] -= mu * wr;
                }
            }
        }
        c.copy_from_slice(w);
        // Transposed L columns, in reverse order.
        for (k, &pr) in self.l_pivots.iter().enumerate().rev() {
            let range = self.l_ptr[k] as usize..self.l_ptr[k + 1] as usize;
            let s: f64 = self.l_entries[range]
                .iter()
                .map(|&(tr, f)| f * c[tr as usize])
                .sum();
            c[pr as usize] -= s;
        }
    }

    /// Forward-solves `Uᵀ` column by column in triangular order from order
    /// position `from` on, into `w` (by row, zero on entry):
    /// `w_r = (rhs(r) − Σ u_ir·w_i) / u_rr`.
    fn solve_ut(&self, from: usize, w: &mut [f64], rhs: impl Fn(usize) -> f64) {
        for &r in self.order[from..].iter().filter(|&&r| r != NONE) {
            let r = r as usize;
            let mut s = rhs(r);
            for &(i, v) in self.u_col(r) {
                s -= v * w[i as usize];
            }
            w[r] = s / self.diag[r];
        }
    }

    /// Forrest–Tomlin update replacing the column of `slot` by the entering
    /// column with spike `spike` and FTRAN pivot `pivot = (B⁻¹a_q)_slot`.
    /// `partial` is the leaving row's partial BTRAN `e_kᵀU⁻¹` when the
    /// caller has it (see [`LuFactor::btran_unit`]); otherwise it is
    /// computed in `v`, which is working space. Returns the entries the
    /// update stored, or `None` (changing nothing) when it is numerically
    /// unsafe.
    fn update(
        &mut self,
        slot: usize,
        pivot: f64,
        spike: &Spike,
        partial: Option<&[f64]>,
        v: &mut Vec<f64>,
    ) -> Option<usize> {
        let k = self.row_of[slot] as usize;
        let (kk, p) = (k as u32, self.pos[k] as usize);
        let u_kk = self.diag[k];
        let v: &[f64] = match partial {
            Some(v) => v,
            None => {
                // The Uᵀ stage of the BTRAN of e_slot; nothing before
                // pivot k can be nonzero.
                v.clear();
                v.resize(self.m, 0.0);
                self.solve_ut(p, v, |r| if r == k { 1.0 } else { 0.0 });
                v
            }
        };
        // The row eta's multipliers μ_j = −v_j·u_kk over the pivots after
        // k, in triangular order.
        let eta_start = self.r_entries.len();
        for &j in &self.order[p + 1..] {
            if j != NONE && v[j as usize] != 0.0 {
                self.r_entries.push((j, -v[j as usize] * u_kk));
            }
        }
        // The new diagonal (Rŝ)_k.
        let (mut spike_k, mut dot) = (0.0, 0.0);
        for &(i, s) in &spike.0 {
            if i == kk {
                spike_k = s;
            } else {
                dot += v[i as usize] * s;
            }
        }
        let new_diag = spike_k + u_kk * dot;
        let expected = pivot * u_kk;
        if new_diag.abs() < ABS_PIVOT_TOL
            || (new_diag - expected).abs() > UPDATE_REL_TOL * expected.abs()
        {
            self.r_entries.truncate(eta_start);
            return None;
        }
        let eta_len = self.r_entries.len() - eta_start;
        if eta_len > 0 {
            self.r_rows.push(kk);
            self.r_ptr.push(self.r_entries.len() as u32);
        }
        // The spike becomes column k, and pivot k moves last. Row k's old
        // entries stay in the later columns, now below the diagonal, where
        // no solve reads them.
        self.u_start[k] = self.u_entries.len() as u32;
        self.u_entries
            .extend(spike.0.iter().filter(|e| e.0 != kk).copied());
        self.u_len[k] = self.u_entries.len() as u32 - self.u_start[k];
        self.diag[k] = new_diag;
        self.order[p] = NONE;
        self.pos[k] = self.order.len() as u32;
        self.order.push(kk);
        self.updates += 1;
        Some(self.u_len[k] as usize + 1 + eta_len)
    }
}

/// Sparse LU work counted by [`time_factorizations`]: factorizations with
/// their time, and basis updates with the entries they stored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FactorTiming {
    /// From-scratch factorizations run (the identity of a cold all-slack
    /// start is not one).
    pub factorizations: u64,
    /// Nanoseconds they took, by the caller's clock.
    pub nanos: u64,
    /// Forrest–Tomlin basis updates applied (refused ones are not).
    pub updates: u64,
    /// Entries those updates stored: the new `U` column with its diagonal,
    /// plus the row eta. Counted without the clock.
    pub update_nnz: u64,
}

/// A caller's nanosecond clock and the totals gathered under it.
type Timer = (fn() -> u64, FactorTiming);

thread_local! {
    /// The timer of the innermost active [`time_factorizations`] on this
    /// thread.
    static FACTOR_TIMER: Cell<Option<Timer>> = const { Cell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// Test hook: while set, every update on this thread is refused, which
    /// drives the engine's refactorize-on-refusal path.
    pub(crate) static REFUSE_UPDATES: Cell<bool> = const { Cell::new(false) };
}

/// Adds to the totals of the active [`time_factorizations`], if any.
fn record(f: impl FnOnce(fn() -> u64, &mut FactorTiming)) {
    FACTOR_TIMER.with(|t| {
        if let Some((clock, mut timing)) = t.get() {
            f(clock, &mut timing);
            t.set(Some((clock, timing)));
        }
    });
}

/// Runs `f` and returns its result together with the LU work it ran on
/// this thread: the count and total time of its factorizations, and the
/// count and stored entries of its basis updates. `clock` reads monotonic
/// nanoseconds; this crate reads no clock of its own, so timing is opt-in
/// and touches no solver decision.
pub fn time_factorizations<R>(clock: fn() -> u64, f: impl FnOnce() -> R) -> (R, FactorTiming) {
    let outer = FACTOR_TIMER.with(|t| t.replace(Some((clock, FactorTiming::default()))));
    let result = f();
    let timing = FACTOR_TIMER
        .with(|t| t.replace(outer))
        .map_or_else(FactorTiming::default, |(_, timing)| timing);
    (result, timing)
}

/// The entering column's spike: its FTRAN image after `L` and the row etas
/// but before `U`, saved by [`LuFactor::ftran_entering`] for the
/// [`LuFactor::update`] that swaps the column in. Nonzeros by row.
#[derive(Debug, Default)]
pub(crate) struct Spike(Vec<(u32, f64)>);

/// The sparse-LU basis representation carried through solves. Cloning
/// shares the factors behind an [`Arc`], which is what makes `Basis`
/// hand-off along a warm-started chain O(1); the first update after a
/// hand-off copies them.
#[derive(Clone, Debug)]
pub(crate) struct LuFactor {
    factors: Arc<LuFactors>,
}

impl LuFactor {
    /// Identity basis (cold start).
    pub(crate) fn identity(m: usize) -> Self {
        LuFactor {
            factors: Arc::new(LuFactors::identity(m)),
        }
    }

    /// Fresh factorization of the given basis columns.
    pub(crate) fn factorize(a: &CscMatrix, basic: &[usize], threshold: f64) -> Result<Self, ()> {
        let start = FACTOR_TIMER.with(Cell::get).map(|(clock, _)| clock());
        let factors = LuFactors::factorize(a, basic, threshold);
        if let Some(start) = start {
            record(|clock, timing| {
                timing.factorizations += 1;
                timing.nanos += clock().saturating_sub(start);
            });
        }
        Ok(LuFactor {
            factors: Arc::new(factors?),
        })
    }

    /// Dimension of the factored basis.
    pub(crate) fn dim(&self) -> usize {
        self.factors.m
    }

    /// Overwrites `z` with `B⁻¹ · z` (FTRAN). `scratch` is caller-owned
    /// working space of any length; its contents are overwritten.
    pub(crate) fn ftran(&self, z: &mut [f64], scratch: &mut Vec<f64>) {
        self.factors.ftran_in_place(z, None, scratch);
    }

    /// [`LuFactor::ftran`] of an entering column, saving its spike for the
    /// [`LuFactor::update`] that swaps it in.
    pub(crate) fn ftran_entering(&self, z: &mut [f64], spike: &mut Spike, scratch: &mut Vec<f64>) {
        self.factors.ftran_in_place(z, Some(spike), scratch);
    }

    /// Overwrites `c` with `cᵀ · B⁻¹` (BTRAN). `scratch` is caller-owned
    /// working space of any length; its contents are overwritten.
    pub(crate) fn btran(&self, c: &mut [f64], scratch: &mut Vec<f64>) {
        self.factors.btran_in_place(c, None, scratch);
    }

    /// Overwrites `rho` with row `slot` of `B⁻¹` (the BTRAN of `e_slot`).
    /// Saves in `partial` its image after `Uᵀ`, the partial BTRAN
    /// `e_kᵀU⁻¹` that an [`LuFactor::update`] of the same slot on this
    /// factor would otherwise recompute.
    pub(crate) fn btran_unit(
        &self,
        slot: usize,
        rho: &mut Vec<f64>,
        partial: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
    ) {
        rho.clear();
        rho.resize(self.dim(), 0.0);
        rho[slot] = 1.0;
        self.factors.btran_in_place(rho, Some(partial), scratch);
    }

    /// Forrest–Tomlin update for the entering column whose
    /// [`LuFactor::ftran_entering`] gave `spike` and pivot
    /// `pivot = (B⁻¹a_q)_slot`, replacing the basic column of `slot`.
    /// `partial` is what [`LuFactor::btran_unit`] of `slot` saved on this
    /// factor, if the caller ran it; without it the update recomputes it.
    /// `Err` (nothing changed) when the update is numerically unsafe; the
    /// caller must then refactorize the new basis.
    pub(crate) fn update(
        &mut self,
        slot: usize,
        pivot: f64,
        spike: &Spike,
        partial: Option<&[f64]>,
        scratch: &mut Vec<f64>,
    ) -> Result<(), ()> {
        #[cfg(test)]
        if REFUSE_UPDATES.with(Cell::get) {
            return Err(());
        }
        // Copy-on-write: a refused update may copy for nothing, but it is
        // followed by a refactorization anyway.
        let stored = Arc::make_mut(&mut self.factors)
            .update(slot, pivot, spike, partial, scratch)
            .ok_or(())?;
        record(|_, timing| {
            timing.updates += 1;
            timing.update_nnz += stored as u64;
        });
        Ok(())
    }

    /// Updates applied since the factorization.
    pub(crate) fn pending_updates(&self) -> usize {
        self.factors.updates
    }

    /// Total stored nonzeros (factors, updated columns and row etas).
    pub(crate) fn nnz(&self) -> usize {
        self.factors.nnz()
    }

    /// Whether two factors share the same factor storage (used by the O(1)
    /// hand-off regression tests).
    #[cfg(test)]
    pub(crate) fn shares_base_with(&self, other: &LuFactor) -> bool {
        Arc::ptr_eq(&self.factors, &other.factors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LuFactor {
        fn solve_vec(&self, mut r: Vec<f64>) -> Vec<f64> {
            self.ftran(&mut r, &mut Vec::new());
            r
        }

        fn btran_vec(&self, mut c: Vec<f64>) -> Vec<f64> {
            self.btran(&mut c, &mut Vec::new());
            c
        }

        /// Swaps `entering` into `slot` the way the engine does: the
        /// entering FTRAN saves the spike, then the update takes the FTRAN
        /// pivot. Returns `(w, result)` with `w = B⁻¹·entering` before the
        /// swap.
        fn replace(&mut self, slot: usize, entering: &[f64]) -> (Vec<f64>, Result<(), ()>) {
            let (mut w, mut spike) = (entering.to_vec(), Spike::default());
            self.ftran_entering(&mut w, &mut spike, &mut Vec::new());
            let result = self.update(slot, w[slot], &spike, None, &mut Vec::new());
            (w, result)
        }
    }

    /// Dense reference solve of `B·x = rhs` by Gaussian elimination.
    fn dense_solve(b: &[Vec<f64>], rhs: &[f64]) -> Vec<f64> {
        let m = rhs.len();
        let mut aug: Vec<Vec<f64>> = (0..m)
            .map(|i| {
                let mut row: Vec<f64> = (0..m).map(|j| b[i][j]).collect();
                row.push(rhs[i]);
                row
            })
            .collect();
        for col in 0..m {
            let piv = (col..m)
                .max_by(|&a, &b| aug[a][col].abs().total_cmp(&aug[b][col].abs()))
                .unwrap();
            aug.swap(col, piv);
            let p = aug[col][col];
            assert!(p.abs() > 1e-12, "singular test matrix");
            for v in &mut aug[col][col..=m] {
                *v /= p;
            }
            for i in 0..m {
                if i != col {
                    let f = aug[i][col];
                    if f != 0.0 {
                        let pivot_row = aug[col].clone();
                        for (v, pv) in aug[i][col..=m].iter_mut().zip(&pivot_row[col..=m]) {
                            *v -= f * pv;
                        }
                    }
                }
            }
        }
        (0..m).map(|i| aug[i][m]).collect()
    }

    /// A deterministic sparse-ish test matrix with a strong diagonal.
    fn test_matrix(m: usize) -> (CscMatrix, Vec<Vec<f64>>) {
        let mut triplets = Vec::new();
        let mut dense = vec![vec![0.0; m]; m];
        let mut state = 0x9e37_79b9_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 16) % 7) as f64 - 3.0
        };
        for (i, row) in dense.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                let v = if i == j {
                    4.0 + next().abs()
                } else if (i + 2 * j) % 3 == 0 {
                    next()
                } else {
                    0.0
                };
                if v != 0.0 {
                    triplets.push((i, j, v));
                    *slot = v;
                }
            }
        }
        (CscMatrix::from_triplets(m, m, &triplets), dense)
    }

    #[test]
    fn ftran_and_btran_match_a_dense_solve() {
        let m = 9;
        let (a, dense) = test_matrix(m);
        let basic: Vec<usize> = (0..m).collect();
        let lu = LuFactor::factorize(&a, &basic, 0.1).unwrap();
        let rhs: Vec<f64> = (0..m).map(|i| (i as f64) - 3.0).collect();
        let x = lu.solve_vec(rhs.clone());
        let x_ref = dense_solve(&dense, &rhs);
        for (a, b) in x.iter().zip(&x_ref) {
            assert!((a - b).abs() < 1e-9, "ftran {a} vs dense {b}");
        }
        // BTRAN solves the transposed system.
        let y = lu.btran_vec(rhs.clone());
        let transposed: Vec<Vec<f64>> = (0..m)
            .map(|i| (0..m).map(|j| dense[j][i]).collect())
            .collect();
        let y_ref = dense_solve(&transposed, &rhs);
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-9, "btran {a} vs dense {b}");
        }
    }

    #[test]
    fn identity_factor_is_a_no_op() {
        let lu = LuFactor::identity(5);
        let v = vec![1.0, -2.0, 0.0, 4.0, 0.5];
        assert_eq!(lu.solve_vec(v.clone()), v);
        assert_eq!(lu.btran_vec(v.clone()), v);
        assert_eq!(lu.pending_updates(), 0);
    }

    #[test]
    fn forrest_tomlin_updates_track_a_column_replacement() {
        let m = 7;
        let (a, mut dense) = test_matrix(m);
        let basic: Vec<usize> = (0..m).collect();
        let mut lu = LuFactor::factorize(&a, &basic, 0.1).unwrap();

        // Replace the basic column of slot 3 with a new column: B_new
        // differs from B in column 3 only.
        let entering: Vec<f64> = (0..m)
            .map(|i| if i % 2 == 0 { 1.0 } else { -0.5 })
            .collect();
        let before = lu.nnz();
        lu.replace(3, &entering).1.unwrap();
        assert_eq!(lu.pending_updates(), 1);
        for (i, row) in dense.iter_mut().enumerate() {
            row[3] = entering[i];
        }
        // The update stores the spike and one row eta, not a dense image:
        // at most the spike's m entries plus the row's.
        assert!(lu.nnz() <= before + 2 * m, "{} vs {before}", lu.nnz());

        let rhs: Vec<f64> = (0..m).map(|i| 1.0 + i as f64).collect();
        let x = lu.solve_vec(rhs.clone());
        let x_ref = dense_solve(&dense, &rhs);
        for (a, b) in x.iter().zip(&x_ref) {
            assert!((a - b).abs() < 1e-8, "updated ftran {a} vs dense {b}");
        }
        let y = lu.btran_vec(rhs.clone());
        let y_ref = dense_solve(&transpose(&dense), &rhs);
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-8, "updated btran {a} vs dense {b}");
        }
    }

    #[test]
    fn replacing_the_first_and_the_last_pivot_matches_the_dense_reference() {
        // The first pivot's row of U reaches every later column, so its
        // update drops the longest row and stores the longest row eta; the
        // last pivot's row is empty and needs no row eta at all.
        let m = 9;
        let mut stream = Stream(0x5eed_f00d);
        for first in [true, false] {
            let mut dense = random_basis(&mut stream, m, 4);
            let basic: Vec<usize> = (0..m).collect();
            let mut lu = LuFactor::factorize(&to_csc(&dense), &basic, 0.1).unwrap();
            for _ in 0..4 {
                let order: Vec<u32> = lu
                    .factors
                    .order
                    .iter()
                    .copied()
                    .filter(|&r| r != NONE)
                    .collect();
                let row = if first { order[0] } else { order[m - 1] };
                let slot = lu.factors.slot_of[row as usize] as usize;
                let etas = lu.factors.r_rows.len();
                let entering: Vec<f64> = (0..m).map(|_| 2.0 * stream.unit() - 1.0).collect();
                if lu.solve_vec(entering.clone())[slot].abs() < 0.5 {
                    continue;
                }
                lu.replace(slot, &entering).1.unwrap();
                if !first {
                    assert_eq!(lu.factors.r_rows.len(), etas, "the last pivot needs no eta");
                }
                assert_eq!(lu.factors.order.last(), Some(&row), "the pivot moves last");
                for (r, &v) in dense.iter_mut().zip(&entering) {
                    r[slot] = v;
                }
                assert_solves_match(&lu, &dense, &mut stream);
            }
        }
    }

    #[test]
    fn a_saved_partial_btran_updates_bit_identically() {
        // The dual pivot hands the update the partial BTRAN it saved with
        // ρ_r; the primal pivot lets the update recompute it. Both must
        // build the same factors, or pivot paths would depend on the path.
        let m = 12;
        let mut stream = Stream(0xbead);
        let dense = random_basis(&mut stream, m, 5);
        let basic: Vec<usize> = (0..m).collect();
        let mut saved = LuFactor::factorize(&to_csc(&dense), &basic, 0.1).unwrap();
        let mut recomputed = saved.clone();
        for slot in [3, 7, 0, 3, 11, 5] {
            let entering: Vec<f64> = (0..m).map(|_| 2.0 * stream.unit() - 1.0).collect();
            let (mut w, mut spike) = (entering.clone(), Spike::default());
            saved.ftran_entering(&mut w, &mut spike, &mut Vec::new());
            if w[slot].abs() < 0.5 {
                continue;
            }
            let (mut rho, mut partial) = (Vec::new(), Vec::new());
            saved.btran_unit(slot, &mut rho, &mut partial, &mut Vec::new());
            assert_eq!(rho, recomputed.btran_vec(unit(m, slot)));
            saved
                .update(slot, w[slot], &spike, Some(&partial), &mut Vec::new())
                .unwrap();
            recomputed
                .update(slot, w[slot], &spike, None, &mut Vec::new())
                .unwrap();
            let rhs: Vec<f64> = (0..m).map(|_| stream.unit()).collect();
            assert_eq!(
                saved.solve_vec(rhs.clone()),
                recomputed.solve_vec(rhs.clone())
            );
            assert_eq!(saved.btran_vec(rhs.clone()), recomputed.btran_vec(rhs));
        }
        assert!(saved.pending_updates() > 0);
    }

    fn unit(m: usize, slot: usize) -> Vec<f64> {
        let mut e = vec![0.0; m];
        e[slot] = 1.0;
        e
    }

    #[test]
    fn an_unstable_update_is_refused_and_changes_nothing() {
        let m = 7;
        let (a, dense) = test_matrix(m);
        let basic: Vec<usize> = (0..m).collect();
        let mut lu = LuFactor::factorize(&a, &basic, 0.1).unwrap();
        let entering: Vec<f64> = (0..m).map(|i| 0.25 * i as f64 - 0.5).collect();
        let (mut w, mut spike) = (entering.clone(), Spike::default());
        lu.ftran_entering(&mut w, &mut spike, &mut Vec::new());
        // A pivot that disagrees with the spike beyond the tolerance (as a
        // drifted FTRAN would) fails the determinant check; so does a
        // replacement that makes the basis singular.
        let drifted = w[2] * (1.0 + 1e-6);
        assert!(lu
            .update(2, drifted, &spike, None, &mut Vec::new())
            .is_err());
        let singular = Spike(Vec::new());
        assert!(lu.update(2, 0.0, &singular, None, &mut Vec::new()).is_err());
        assert_eq!(lu.pending_updates(), 0);
        let mut stream = Stream(17);
        assert_solves_match(&lu, &dense, &mut stream);
        // The honest pivot goes through.
        assert!(lu.update(2, w[2], &spike, None, &mut Vec::new()).is_ok());
        assert_eq!(lu.pending_updates(), 1);
    }

    #[test]
    fn updates_copy_shared_factors_and_leave_the_original_intact() {
        let m = 7;
        let (a, dense) = test_matrix(m);
        let basic: Vec<usize> = (0..m).collect();
        let original = LuFactor::factorize(&a, &basic, 0.1).unwrap();
        let mut branch = original.clone();
        assert!(branch.shares_base_with(&original));
        let entering: Vec<f64> = (0..m).map(|i| 1.0 - 0.3 * i as f64).collect();
        branch.replace(0, &entering).1.unwrap();
        assert!(!branch.shares_base_with(&original), "the update copied");
        assert_eq!(original.pending_updates(), 0);
        let mut stream = Stream(99);
        assert_solves_match(&original, &dense, &mut stream);
        // A branch that owns its factors updates them in place.
        let before = Arc::as_ptr(&branch.factors);
        branch
            .replace(1, &entering.iter().rev().copied().collect::<Vec<_>>())
            .1
            .unwrap();
        assert_eq!(Arc::as_ptr(&branch.factors), before);
    }

    #[test]
    fn a_singular_basis_is_rejected() {
        // Two identical columns.
        let a =
            CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 2.0), (0, 1, 1.0), (1, 1, 2.0)]);
        assert!(LuFactor::factorize(&a, &[0, 1], 0.1).is_err());
        // A structurally empty column.
        let b = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 2.0)]);
        assert!(LuFactor::factorize(&b, &[0, 1], 0.1).is_err());
    }

    #[test]
    fn permuted_slack_heavy_bases_factor_without_fill() {
        // A basis that is mostly identity columns plus a dense-ish corner —
        // the shape warm mechanism bases take. Singleton columns must be
        // eliminated first (Markowitz cost 0) producing zero elimination ops
        // for them.
        let m = 20;
        let mut triplets = Vec::new();
        for i in 0..m - 2 {
            triplets.push((i, i, 1.0));
        }
        // Two structural columns coupling the last rows.
        triplets.push((m - 2, m - 2, 2.0));
        triplets.push((m - 1, m - 2, 1.0));
        triplets.push((0, m - 2, 1.0));
        triplets.push((m - 2, m - 1, -1.0));
        triplets.push((m - 1, m - 1, 1.0));
        let a = CscMatrix::from_triplets(m, m, &triplets);
        let basic: Vec<usize> = (0..m).collect();
        let lu = LuFactor::factorize(&a, &basic, 0.1).unwrap();
        // Identity columns contribute no L ops; only the 2×2 corner can.
        let rhs: Vec<f64> = (0..m).map(|i| i as f64 * 0.5 - 1.0).collect();
        let x = lu.solve_vec(rhs.clone());
        // Verify B·x = rhs directly.
        let mut prod = vec![0.0; m];
        for &(i, j, v) in &triplets {
            prod[i] += v * x[j];
        }
        for (p, r) in prod.iter().zip(&rhs) {
            assert!((p - r).abs() < 1e-9);
        }
    }

    /// Deterministic xorshift stream for the generated bases.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn permutation(&mut self, n: usize) -> Vec<usize> {
            let mut p: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                p.swap(i, self.below(i + 1));
            }
            p
        }
    }

    /// A random sparse nonsingular `m×m` basis shaped like the mechanism's:
    /// a triangular, singleton-heavy block (diagonal in `[1, 2]`, sparse
    /// couplings above it and into the corner columns) plus a dense,
    /// diagonally dominant `corner×corner` block, so the matrix is block
    /// triangular with nonsingular diagonal blocks; rows and columns are
    /// then randomly permuted. Returns the dense copy, row-major.
    fn random_basis(stream: &mut Stream, m: usize, corner: usize) -> Vec<Vec<f64>> {
        let t = m - corner;
        let mut block = vec![vec![0.0; m]; m];
        for j in 0..m {
            if j < t {
                let sign = if stream.below(2) == 0 { 1.0 } else { -1.0 };
                block[j][j] = sign * (1.0 + stream.unit());
                for row in block.iter_mut().take(j) {
                    if stream.below(6) == 0 {
                        row[j] = 2.0 * stream.unit() - 1.0;
                    }
                }
            } else {
                for (i, row) in block.iter_mut().enumerate() {
                    if i == j {
                        row[j] = corner as f64 + 1.0 + stream.unit();
                    } else if (i >= t && stream.below(10) < 7) || (i < t && stream.below(5) == 0) {
                        row[j] = 2.0 * stream.unit() - 1.0;
                    }
                }
            }
        }
        let (rows, cols) = (stream.permutation(m), stream.permutation(m));
        let mut dense = vec![vec![0.0; m]; m];
        for i in 0..m {
            for j in 0..m {
                dense[rows[i]][cols[j]] = block[i][j];
            }
        }
        dense
    }

    fn to_csc(dense: &[Vec<f64>]) -> CscMatrix {
        let m = dense.len();
        let mut triplets = Vec::new();
        for (i, row) in dense.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        CscMatrix::from_triplets(m, m, &triplets)
    }

    fn transpose(dense: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let m = dense.len();
        (0..m)
            .map(|i| (0..m).map(|j| dense[j][i]).collect())
            .collect()
    }

    /// FTRAN and BTRAN of `lu` agree with dense solves of `dense` to 1e-9.
    fn assert_solves_match(lu: &LuFactor, dense: &[Vec<f64>], stream: &mut Stream) {
        let m = dense.len();
        let rhs: Vec<f64> = (0..m).map(|_| 4.0 * stream.unit() - 2.0).collect();
        let pairs = [
            (lu.solve_vec(rhs.clone()), dense_solve(dense, &rhs), "ftran"),
            (
                lu.btran_vec(rhs.clone()),
                dense_solve(&transpose(dense), &rhs),
                "btran",
            ),
        ];
        for (got, want, kind) in pairs {
            for (a, b) in got.iter().zip(&want) {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                    "{kind} {a} vs dense {b}"
                );
            }
        }
    }

    proptest::proptest! {
        /// The singleton pass and the bump elimination together solve
        /// random sparse nonsingular bases exactly as a dense solve does,
        /// before and after each of up to 48 Forrest–Tomlin updates.
        #[test]
        fn random_sparse_bases_solve_like_the_dense_reference(
            seed in 1u64..u64::MAX,
            m in 1usize..40,
            corner_frac in 0.0..1.0f64,
        ) {
            let mut stream = Stream(seed);
            let corner = ((m as f64 * corner_frac * 0.5) as usize).min(m);
            let mut dense = random_basis(&mut stream, m, corner);
            let basic: Vec<usize> = (0..m).collect();
            let mut lu = LuFactor::factorize(&to_csc(&dense), &basic, 0.1).unwrap();
            assert_solves_match(&lu, &dense, &mut stream);
            // Column replacements through Forrest–Tomlin updates, each kept
            // only when its pivot is well away from zero (as the ratio
            // tests ensure); a refused update refactorizes, as the engine
            // does.
            for _ in 0..48 {
                let slot = stream.below(m);
                let entering: Vec<f64> = (0..m)
                    .map(|_| if stream.below(3) == 0 { 2.0 * stream.unit() - 1.0 } else { 0.0 })
                    .collect();
                let w = lu.solve_vec(entering.clone());
                if w[slot].abs() < 0.5 {
                    continue;
                }
                for (row, &v) in dense.iter_mut().zip(&entering) {
                    row[slot] = v;
                }
                if lu.replace(slot, &entering).1.is_err() {
                    lu = LuFactor::factorize(&to_csc(&dense), &basic, 0.1).unwrap();
                }
                assert_solves_match(&lu, &dense, &mut stream);
            }
        }

        /// Structurally singular bases (an empty column, an empty row, two
        /// columns confined to one row) and numerically singular ones (one
        /// column the sum of two others) are rejected.
        #[test]
        fn singular_bases_are_rejected(seed in 1u64..u64::MAX, m in 3usize..30) {
            let mut stream = Stream(seed);
            let corner = stream.below(m / 2 + 1);
            let dense = random_basis(&mut stream, m, corner);
            let basic: Vec<usize> = (0..m).collect();
            let (c0, c1, c2) = (stream.below(m), stream.below(m), stream.below(m));
            let r = stream.below(m);
            let mut variants = Vec::new();
            let mut empty_col = dense.clone();
            empty_col.iter_mut().for_each(|row| row[c0] = 0.0);
            variants.push(("empty column", empty_col));
            let mut empty_row = dense.clone();
            empty_row[r].iter_mut().for_each(|v| *v = 0.0);
            variants.push(("empty row", empty_row));
            if c0 != c1 {
                let mut confined = dense.clone();
                for (i, row) in confined.iter_mut().enumerate() {
                    row[c0] = if i == r { 1.5 } else { 0.0 };
                    row[c1] = if i == r { -2.0 } else { 0.0 };
                }
                variants.push(("two columns in one row", confined));
            }
            if c0 != c1 && c2 != c0 && c2 != c1 {
                let mut dependent = dense.clone();
                for row in dependent.iter_mut() {
                    row[c2] = row[c0] + row[c1];
                }
                variants.push(("dependent column", dependent));
            }
            for (kind, variant) in variants {
                assert!(
                    LuFactor::factorize(&to_csc(&variant), &basic, 0.1).is_err(),
                    "{kind} factored"
                );
            }
        }
    }

    #[test]
    fn factorizations_are_counted_and_timed_only_inside_the_timer() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICKS: AtomicU64 = AtomicU64::new(0);
        fn tick() -> u64 {
            TICKS.fetch_add(5, Ordering::Relaxed)
        }
        let (a, _) = test_matrix(6);
        let basic: Vec<usize> = (0..6).collect();
        LuFactor::factorize(&a, &basic, 0.1).unwrap();
        let entering = [0.0, 0.5, 0.0, 0.0, 5.0, 0.0];
        let (result, timing) = time_factorizations(tick, || {
            let mut lu = LuFactor::factorize(&a, &basic, 0.1).unwrap();
            // Updates are counted with the entries they store, but read no
            // clock; a refused one counts nothing.
            lu.replace(4, &entering).1.unwrap();
            assert!(lu
                .update(1, 0.0, &Spike::default(), None, &mut Vec::new())
                .is_err());
            LuFactor::factorize(&a, &[0, 0, 1, 2, 3, 4], 0.1).is_err()
        });
        assert!(result);
        assert_eq!(timing.factorizations, 2);
        assert_eq!(timing.nanos, 10);
        assert_eq!(timing.updates, 1);
        assert!(timing.update_nnz >= 1, "the new diagonal at least");
        assert_eq!(TICKS.load(Ordering::Relaxed), 20);
    }
}
