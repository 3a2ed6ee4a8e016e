//! Metric value types for the traffic layer: log2 message-size histograms
//! and the rank×rank communication matrix.
//!
//! Both are deterministic functions of the algorithm and problem (unlike
//! wall times), which is what lets the `report-gate` CI mode compare them
//! *exactly* against a committed reference report.

use std::fmt::Write as _;

/// Number of log2 size buckets: bucket 0 holds zero-byte messages, bucket
/// `k ≥ 1` holds sizes in `[2^(k-1), 2^k)`, so bucket 64 holds
/// `[2^63, u64::MAX]` and the buckets partition `u64` exactly.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index a message of `size` bytes falls into.
///
/// `0 → 0`, otherwise `floor(log2(size)) + 1`. Every `u64` maps to exactly
/// one bucket (pinned by a property test).
#[inline]
pub fn size_bucket(size: u64) -> usize {
    if size == 0 {
        0
    } else {
        64 - size.leading_zeros() as usize
    }
}

/// Human label for a bucket: the inclusive size range it covers.
pub fn bucket_label(bucket: usize) -> String {
    assert!(bucket < HIST_BUCKETS, "bucket {bucket} out of range");
    match bucket {
        0 => "0 B".to_owned(),
        1 => "1 B".to_owned(),
        64 => format!("≥ {}", fmt_bytes(1u64 << 63)),
        k => format!(
            "{}–{}",
            fmt_bytes(1u64 << (k - 1)),
            fmt_bytes((1u64 << k) - 1)
        ),
    }
}

/// Formats a byte count with a binary-prefix unit.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} {}", UNITS[0])
    } else if v >= 100.0 {
        format!("{v:.0} {}", UNITS[u])
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

/// A log2 message-size histogram: counts per bucket plus running totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SizeHistogram {
    counts: Vec<u64>,
    /// Total messages recorded (= sum of bucket counts).
    pub msgs: u64,
    /// Total payload bytes recorded.
    pub bytes: u64,
}

impl SizeHistogram {
    /// An empty histogram.
    pub fn new() -> SizeHistogram {
        SizeHistogram::default()
    }

    /// Records one message of `size` bytes.
    pub fn record(&mut self, size: u64) {
        let b = size_bucket(size);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.msgs += 1;
        self.bytes += size;
    }

    /// Rebuilds a histogram from sparse `(bucket, count)` pairs plus the
    /// byte total (the JSON wire form). Fails on out-of-range or duplicate
    /// buckets; `msgs` is recomputed as the sum of counts.
    pub fn from_parts(buckets: &[(usize, u64)], bytes: u64) -> Result<SizeHistogram, String> {
        let mut h = SizeHistogram::new();
        for &(b, c) in buckets {
            if b >= HIST_BUCKETS {
                return Err(format!(
                    "bucket {b} out of range (max {})",
                    HIST_BUCKETS - 1
                ));
            }
            if h.counts.len() <= b {
                h.counts.resize(b + 1, 0);
            }
            if h.counts[b] != 0 {
                return Err(format!("bucket {b} appears twice"));
            }
            h.counts[b] = c;
            h.msgs += c;
        }
        h.bytes = bytes;
        Ok(h)
    }

    /// Count in one bucket (0 for buckets never touched).
    pub fn count(&self, bucket: usize) -> u64 {
        self.counts.get(bucket).copied().unwrap_or(0)
    }

    /// Non-empty `(bucket, count)` pairs in bucket order.
    pub fn nonzero(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
            .collect()
    }

    /// Accumulates `other` into this histogram.
    pub fn merge(&mut self, other: &SizeHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (b, &c) in other.counts.iter().enumerate() {
            self.counts[b] += c;
        }
        self.msgs += other.msgs;
        self.bytes += other.bytes;
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.msgs == 0
    }

    /// Renders the histogram as horizontal bars, one line per non-empty
    /// bucket, `width` characters for the largest count.
    pub fn render_bars(&self, width: usize) -> String {
        let nz = self.nonzero();
        let max = nz.iter().map(|&(_, c)| c).max().unwrap_or(1);
        let mut out = String::new();
        for (b, c) in nz {
            let bar = (c as f64 / max as f64 * width as f64).ceil() as usize;
            let _ = writeln!(
                out,
                "  {:<16} {:>8}  {}",
                bucket_label(b),
                c,
                "#".repeat(bar.max(1))
            );
        }
        out
    }
}

/// One direction's counters between a pair of ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Payload bytes.
    pub bytes: u64,
    /// Message count.
    pub msgs: u64,
}

impl CellCounts {
    /// Accumulates another cell into this one.
    pub fn add(&mut self, other: CellCounts) {
        self.bytes += other.bytes;
        self.msgs += other.msgs;
    }
}

/// One stored matrix cell: `(row, col, counts)`. Send-side rows are
/// senders and columns receivers; recv-side rows are receivers and columns
/// senders.
pub type Cell = (usize, usize, CellCounts);

/// The rank×rank communication matrix of one run, recorded on both sides:
/// `send[src][dst]` is what rank `src` pushed toward `dst` (counted at send
/// time by the sender), `recv[dst][src]` is what rank `dst` actually
/// matched from `src` (counted at `recv` time by the receiver). The two
/// agree for every message that was both sent and consumed; a message still
/// in a mailbox when its rank exits appears on the send side only.
///
/// Storage is sparse: each side keeps only the cells that carried a message
/// (any bytes *or* any messages, so zero-byte barrier cells are kept), in
/// row-major order — the schema-v2 JSON wire form, held natively. A run
/// costs memory in the cells it touched, not `p²`: at p = 3072 a CA3DMM
/// rank talks to a few dozen peers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommMatrix {
    p: usize,
    /// Send-side cells `(src, dst, counts)`, sorted, no empty cells.
    send: Vec<Cell>,
    /// Recv-side cells `(dst, src, counts)`, sorted, no empty cells.
    recv: Vec<Cell>,
}

impl CommMatrix {
    /// An all-zero matrix for `p` ranks.
    pub fn new(p: usize) -> CommMatrix {
        CommMatrix {
            p,
            ..CommMatrix::default()
        }
    }

    /// World size.
    pub fn ranks(&self) -> usize {
        self.p
    }

    /// Rebuilds a matrix from four `p×p` grids (the schema-v1 JSON wire
    /// form): send bytes/msgs indexed `[src][dst]`, recv bytes/msgs indexed
    /// `[dst][src]`. All four grids must be square and the same size
    /// (callers validate shapes when parsing).
    pub fn from_grids(
        send_bytes: &[Vec<u64>],
        send_msgs: &[Vec<u64>],
        recv_bytes: &[Vec<u64>],
        recv_msgs: &[Vec<u64>],
    ) -> CommMatrix {
        let p = send_bytes.len();
        assert!(
            [send_msgs.len(), recv_bytes.len(), recv_msgs.len()] == [p, p, p],
            "matrix grids disagree on rank count"
        );
        let cells = |bytes: &[Vec<u64>], msgs: &[Vec<u64>]| -> Vec<Cell> {
            (0..p)
                .flat_map(|i| (0..p).map(move |j| (i, j)))
                .map(|(i, j)| {
                    let c = CellCounts {
                        bytes: bytes[i][j],
                        msgs: msgs[i][j],
                    };
                    (i, j, c)
                })
                .collect()
        };
        CommMatrix::from_sparse(
            p,
            &cells(send_bytes, send_msgs),
            &cells(recv_bytes, recv_msgs),
        )
    }

    /// Rebuilds a matrix from sparse cell lists (the schema-v2 JSON wire
    /// form): send entries are `(src, dst, counts)`, recv entries are
    /// `(dst, src, counts)`. Unlisted cells are zero; a cell listed twice
    /// counts the sum; listed cells with neither bytes nor messages are
    /// dropped. Callers validate that indices are in range when parsing.
    pub fn from_sparse(p: usize, send: &[Cell], recv: &[Cell]) -> CommMatrix {
        CommMatrix {
            p,
            send: canonical(send),
            recv: canonical(recv),
        }
    }

    /// Send-side cells that carried anything, in row-major
    /// `(src, dst, counts)` order. Cells that carried only zero-byte
    /// messages (barriers) still count — "nonzero" means any bytes *or* any
    /// messages.
    pub fn nonzero_send(&self) -> &[Cell] {
        &self.send
    }

    /// Recv-side cells that carried anything, in row-major
    /// `(dst, src, counts)` order.
    pub fn nonzero_recv(&self) -> &[Cell] {
        &self.recv
    }

    /// Send-side cell: what `src` sent toward `dst`.
    pub fn sent(&self, src: usize, dst: usize) -> CellCounts {
        lookup(&self.send, src, dst)
    }

    /// Recv-side cell: what `dst` matched from `src`.
    pub fn received(&self, dst: usize, src: usize) -> CellCounts {
        lookup(&self.recv, dst, src)
    }

    /// Everything rank `src` sent, over all destinations.
    pub fn send_row_total(&self, src: usize) -> CellCounts {
        total(row(&self.send, src))
    }

    /// Everything rank `dst` received, over all sources.
    pub fn recv_row_total(&self, dst: usize) -> CellCounts {
        total(row(&self.recv, dst))
    }

    /// Send-side column total: bytes/msgs *destined for* `dst` as the
    /// senders counted them.
    pub fn send_col_total(&self, dst: usize) -> CellCounts {
        total(self.send.iter().filter(|&&(_, j, _)| j == dst))
    }

    /// Renders a text heatmap of send-side bytes: rows are senders, columns
    /// receivers, shaded by bytes relative to the busiest cell.
    pub fn render_heatmap(&self) -> String {
        const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let max = self.send.iter().map(|c| c.2.bytes).max().unwrap_or(0);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  send-side bytes, row = src rank, col = dst rank (max cell {}):",
            fmt_bytes(max)
        );
        let _ = write!(out, "       ");
        for dst in 0..self.p {
            let _ = write!(out, "{:>3}", dst % 100);
        }
        out.push('\n');
        for src in 0..self.p {
            let _ = write!(out, "  {src:>4} ");
            let cells = row(&self.send, src);
            let mut next = cells.iter().peekable();
            for dst in 0..self.p {
                let b = match next.next_if(|c| c.1 == dst) {
                    Some(c) => c.2.bytes,
                    None => 0,
                };
                let shade = if max == 0 || b == 0 {
                    SHADES[0]
                } else {
                    // Rank cells on a linear scale into the 9 non-blank
                    // shades; any nonzero cell gets at least the lightest.
                    let idx = (b as f64 / max as f64 * 9.0).ceil() as usize;
                    SHADES[idx.clamp(1, 9)]
                };
                let _ = write!(out, "  {shade}");
            }
            let _ = writeln!(out, "   | {}", fmt_bytes(total(cells).bytes));
        }
        out
    }
}

/// Sorts cells row-major, sums duplicates and drops cells that carried
/// nothing — the one form [`CommMatrix`] stores, so derived equality is
/// cell-by-cell equality.
fn canonical(cells: &[Cell]) -> Vec<Cell> {
    let mut sorted = cells.to_vec();
    sorted.sort_by_key(|&(i, j, _)| (i, j));
    let mut out: Vec<Cell> = Vec::with_capacity(sorted.len());
    for (i, j, c) in sorted {
        match out.last_mut() {
            Some(last) if (last.0, last.1) == (i, j) => last.2.add(c),
            _ => out.push((i, j, c)),
        }
    }
    out.retain(|c| c.2.bytes > 0 || c.2.msgs > 0);
    out
}

/// The cells of row `i`.
fn row(cells: &[Cell], i: usize) -> &[Cell] {
    let lo = cells.partition_point(|c| c.0 < i);
    let hi = lo + cells[lo..].partition_point(|c| c.0 == i);
    &cells[lo..hi]
}

/// Cell `(i, j)`, zero when it was never touched.
fn lookup(cells: &[Cell], i: usize, j: usize) -> CellCounts {
    cells
        .binary_search_by_key(&(i, j), |c| (c.0, c.1))
        .map_or_else(|_| CellCounts::default(), |k| cells[k].2)
}

fn total<'a>(cells: impl IntoIterator<Item = &'a Cell>) -> CellCounts {
    let mut t = CellCounts::default();
    for c in cells {
        t.add(c.2);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(bytes: u64, msgs: u64) -> CellCounts {
        CellCounts { bytes, msgs }
    }

    /// A 5-rank matrix with a zero-byte barrier cell, a self-send, an
    /// idle rank (3 receives nothing) and cells listed out of order.
    fn sample() -> CommMatrix {
        let send = [
            (2, 1, c(5000, 1)),
            (0, 1, c(64, 2)),
            (0, 4, c(0, 1)),
            (1, 2, c(1000, 1)),
            (3, 0, c(300, 3)),
            (4, 4, c(8, 1)),
        ];
        let recv = [
            (1, 0, c(64, 2)),
            (4, 0, c(0, 1)),
            (2, 1, c(1000, 1)),
            (1, 2, c(5000, 1)),
            (0, 3, c(300, 3)),
        ];
        CommMatrix::from_sparse(5, &send, &recv)
    }

    /// The matrix as four dense `p×p` grids — the schema-v1 wire form.
    fn grids(m: &CommMatrix) -> [Vec<Vec<u64>>; 4] {
        let p = m.ranks();
        let grid = |f: &dyn Fn(usize, usize) -> u64| -> Vec<Vec<u64>> {
            (0..p).map(|i| (0..p).map(|j| f(i, j)).collect()).collect()
        };
        [
            grid(&|i, j| m.sent(i, j).bytes),
            grid(&|i, j| m.sent(i, j).msgs),
            grid(&|i, j| m.received(i, j).bytes),
            grid(&|i, j| m.received(i, j).msgs),
        ]
    }

    #[test]
    fn sparse_cells_round_trip() {
        let m = sample();
        let send = m.nonzero_send();
        // Row-major, the barrier cell kept.
        assert_eq!(
            send,
            [
                (0, 1, c(64, 2)),
                (0, 4, c(0, 1)),
                (1, 2, c(1000, 1)),
                (2, 1, c(5000, 1)),
                (3, 0, c(300, 3)),
                (4, 4, c(8, 1)),
            ]
        );
        assert_eq!(m.nonzero_recv()[0], (0, 3, c(300, 3)));
        let back = CommMatrix::from_sparse(5, m.nonzero_send(), m.nonzero_recv());
        assert_eq!(back, m);
        assert_eq!(back.nonzero_send(), send);
    }

    #[test]
    fn dense_grids_round_trip() {
        let m = sample();
        let [sb, sm, rb, rm] = grids(&m);
        let back = CommMatrix::from_grids(&sb, &sm, &rb, &rm);
        assert_eq!(back, m);
        assert_eq!(back.nonzero_send(), m.nonzero_send());
        assert_eq!(back.nonzero_recv(), m.nonzero_recv());
    }

    #[test]
    fn empty_cells_are_never_stored() {
        // Dense grids are mostly zeros; none of them become cells.
        let m = sample();
        let [sb, sm, rb, rm] = grids(&m);
        let back = CommMatrix::from_grids(&sb, &sm, &rb, &rm);
        assert_eq!(back.nonzero_send().len(), 6);
        assert_eq!(back.nonzero_recv().len(), 5);
        // Explicitly listed empty cells are dropped, duplicates summed.
        let m = CommMatrix::from_sparse(
            3,
            &[(0, 1, c(0, 0)), (2, 0, c(8, 1)), (2, 0, c(8, 1))],
            &[(1, 1, c(0, 0))],
        );
        assert_eq!(m.nonzero_send(), [(2, 0, c(16, 2))]);
        assert!(m.nonzero_recv().is_empty());
        assert_eq!(m, CommMatrix::from_sparse(3, &[(2, 0, c(16, 2))], &[]));
        for cell in sample()
            .nonzero_send()
            .iter()
            .chain(sample().nonzero_recv())
        {
            assert!(cell.2.bytes > 0 || cell.2.msgs > 0, "{cell:?}");
        }
    }

    #[test]
    fn column_totals_and_heatmap_match_the_dense_matrix() {
        // Expected values: what the dense p×p implementation printed for
        // this matrix.
        let m = sample();
        let cols: Vec<CellCounts> = (0..5).map(|d| m.send_col_total(d)).collect();
        assert_eq!(cols, [c(300, 3), c(5064, 3), c(1000, 1), c(0, 0), c(8, 2)]);
        assert_eq!(
            m.render_heatmap(),
            "  send-side bytes, row = src rank, col = dst rank (max cell 4.9 KiB):\n         0  1  2  3  4\n     0      .            | 64 B\n     1         :         | 1000 B\n     2      @            | 4.9 KiB\n     3   .               | 300 B\n     4               .   | 8 B\n"
        );
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 1);
        assert_eq!(size_bucket(2), 2);
        assert_eq!(size_bucket(3), 2);
        assert_eq!(size_bucket(4), 3);
        assert_eq!(size_bucket(1023), 10);
        assert_eq!(size_bucket(1024), 11);
        assert_eq!(size_bucket(u64::MAX), 64);
        assert_eq!(size_bucket(1u64 << 63), 64);
        assert_eq!(size_bucket((1u64 << 63) - 1), 63);
    }

    #[test]
    fn histogram_counts_and_merge() {
        let mut h = SizeHistogram::new();
        for s in [0u64, 1, 7, 8, 8, 1024] {
            h.record(s);
        }
        assert_eq!(h.msgs, 6);
        assert_eq!(h.bytes, 1 + 7 + 8 + 8 + 1024);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(3), 1); // 7 ∈ [4,8)
        assert_eq!(h.count(4), 2); // 8 ∈ [8,16)
        assert_eq!(h.count(11), 1); // 1024 ∈ [1024,2048)
        let total: u64 = h.nonzero().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, h.msgs);

        let mut h2 = SizeHistogram::new();
        h2.record(9);
        h2.merge(&h);
        assert_eq!(h2.msgs, 7);
        assert_eq!(h2.count(4), 3);
        assert!(h2.render_bars(20).contains('#'));
    }

    #[test]
    fn bucket_labels_cover_all() {
        for b in 0..HIST_BUCKETS {
            assert!(!bucket_label(b).is_empty());
        }
        assert_eq!(bucket_label(0), "0 B");
        assert_eq!(bucket_label(1), "1 B");
        assert_eq!(bucket_label(2), "2 B–3 B");
        assert!(bucket_label(11).starts_with("1.0 KiB"));
    }

    #[test]
    fn matrix_totals() {
        let m = CommMatrix::from_sparse(
            3,
            &[(0, 1, c(10, 1)), (0, 2, c(20, 2))],
            &[(1, 0, c(10, 1))],
        );
        assert_eq!(m.send_row_total(0), c(30, 3));
        assert_eq!(m.send_col_total(1), c(10, 1));
        assert_eq!(m.recv_row_total(1), c(10, 1));
        assert_eq!(m.recv_row_total(2), CellCounts::default());
        assert_eq!(m.sent(0, 2), c(20, 2));
        assert_eq!(m.sent(2, 0), CellCounts::default());
        assert_eq!(m.received(1, 0), c(10, 1));
        let map = m.render_heatmap();
        assert!(map.contains("row = src"));
        // An empty matrix renders all-blank rows.
        assert!(CommMatrix::new(2).render_heatmap().contains("max cell 0 B"));
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(800), "800 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert!(fmt_bytes(3 << 20).starts_with("3.0 MiB"));
    }
}
