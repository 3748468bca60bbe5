//! DiffStorage (paper §10.5): store the initiator's page in full and only
//! line-level deltas for each proxy response.
//!
//! A price check fans out to 30+ proxies that all fetch nearly identical
//! HTML; storing every copy would multiply database volume by the fan-out.
//! The deployed Measurement server "minimizes the size of HTML code we
//! store in the RDBMS by saving the full HTML page code reported by the
//! user's add-on and just saving the difference" for the proxy responses.
//!
//! The diff is a classic LCS line diff: ops either copy a run of base lines
//! or insert new lines. Reconstruction is exact. The base page's line
//! starts are indexed once per [`DiffStorage`]; each variant is compared
//! with it byte for byte from both ends, and only the lines between the
//! pages' common head and tail are split out and run through the table.

/// One diff operation against the base page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffOp {
    /// Copy `len` lines of the base starting at `start`.
    Copy {
        /// 0-based base line index.
        start: usize,
        /// Number of lines.
        len: usize,
    },
    /// Insert literal lines.
    Insert(Vec<String>),
}

/// A line-level diff of one variant page against the base.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineDiff {
    ops: Vec<DiffOp>,
}

/// Where each line of a page starts, lines numbered as `str::split('\n')`
/// numbers them: `starts[i]` is line `i`'s first byte, and one closing
/// entry `len + 1` follows the last line, so line `i` is
/// `page[starts[i]..starts[i + 1] - 1]` and a page has `starts.len() - 1`
/// lines.
#[derive(Clone, Debug)]
struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    fn new(page: &str) -> Self {
        let mut starts = Vec::with_capacity(page.len() / 32 + 2);
        starts.push(0);
        starts.extend(page.match_indices('\n').map(|(i, _)| i + 1));
        starts.push(page.len() + 1);
        LineIndex { starts }
    }
}

impl LineDiff {
    /// Computes the diff turning `base` into `variant`.
    pub fn compute(base: &str, variant: &str) -> LineDiff {
        Self::against(base, &LineIndex::new(base), variant)
    }

    /// The diff turning `base` (whose lines `index` holds) into `variant`.
    ///
    /// The table is filled for the differing middle only, and trimming
    /// changes no op (DESIGN.md, "HTML"): the backtrack consumes the common
    /// suffix first anyway, and copies a common prefix line for line once
    /// that prefix's last line occurs in neither remaining middle — so the
    /// prefix is shortened until that holds (`A B` → `A A B` needs it).
    /// Both are found on bytes and mapped to base lines through `index`:
    /// the variant is split only where it differs.
    // `starts` holds `lines + 1` entries and every index below is a line
    // number in `0..=lines`; `b_cut`/`v_cut` are line starts (or one past
    // the end) of their page, so `v_cut - 1` and the byte just before a
    // tail are in range. The backtrack is the textbook one: `i`/`j` only
    // decrease from the middle's lengths and every index is guarded by
    // `i > 0`/`j > 0`; rewriting with `.get` would bury the algorithm
    // under plumbing.
    #[expect(clippy::indexing_slicing, reason = "in range by construction")]
    fn against(base: &str, index: &LineIndex, variant: &str) -> LineDiff {
        let (b, v) = (base.as_bytes(), variant.as_bytes());
        let starts = &index.starts;
        let lines = starts.len() - 1;
        let line = |i: usize| &base[starts[i]..starts[i + 1] - 1];

        // Common tail: base lines that start inside the byte tail, less the
        // first of them if the variant has no line break there.
        let tail = common_suffix(b, v);
        let mut b_end = starts.partition_point(|&s| s < b.len() - tail);
        if b_end < lines {
            let at = v.len() + starts[b_end] - b.len();
            if at > 0 && v[at - 1] != b'\n' {
                b_end += 1;
            }
        }
        let suffix = lines - b_end;
        // Where the tail starts in each page (one past the end if empty).
        let b_cut = starts[b_end];
        let v_cut = v.len() + b_cut - b.len();

        // Common head: base lines whose `\n` lies inside the byte head and
        // before both tails, plus the next line if it ends exactly where
        // the head does and so does a variant line.
        let head = common_prefix(b, v);
        let cut = b_cut.min(v_cut);
        let mut prefix = starts[1..].partition_point(|&s| s <= head.min(cut));
        let next = starts[prefix + 1];
        if next - 1 == head && next <= cut && v.get(head).is_none_or(|&c| c == b'\n') {
            prefix += 1;
        }
        let from = starts[prefix];
        let mut v_mid: Vec<&str> = if from < v_cut {
            variant[from..v_cut - 1].split('\n').collect()
        } else {
            Vec::new()
        };
        while prefix > 0 {
            let last = line(prefix - 1);
            if !((prefix..b_end).any(|i| line(i) == last) || v_mid.contains(&last)) {
                break;
            }
            prefix -= 1;
            v_mid.insert(0, last);
        }
        let b_mid: Vec<&str> = (prefix..b_end).map(line).collect();
        let lcs = lcs_table(&b_mid, &v_mid);
        let width = v_mid.len() + 1;

        // Walk the table back (ops come out last first), then coalesce
        // adjacent ops.
        let mut rev = vec![DiffOp::Copy {
            start: b_end,
            len: suffix,
        }];
        let (mut i, mut j) = (b_mid.len(), v_mid.len());
        while i > 0 || j > 0 {
            if i > 0 && j > 0 && b_mid[i - 1] == v_mid[j - 1] {
                rev.push(DiffOp::Copy {
                    start: prefix + i - 1,
                    len: 1,
                });
                i -= 1;
                j -= 1;
            } else if j > 0 && (i == 0 || lcs[i * width + j - 1] >= lcs[(i - 1) * width + j]) {
                rev.push(DiffOp::Insert(vec![v_mid[j - 1].to_string()]));
                j -= 1;
            } else {
                // Deletion from base: nothing to emit, the copy ops simply
                // skip those base lines.
                i -= 1;
            }
        }
        rev.push(DiffOp::Copy {
            start: 0,
            len: prefix,
        });
        let mut ops: Vec<DiffOp> = Vec::new();
        for op in rev.into_iter().rev() {
            match (ops.last_mut(), op) {
                (_, DiffOp::Copy { len: 0, .. }) => {}
                (Some(DiffOp::Copy { start, len }), DiffOp::Copy { start: s2, len: l2 })
                    if *start + *len == s2 =>
                {
                    *len += l2;
                }
                (Some(DiffOp::Insert(lines)), DiffOp::Insert(new_lines)) => {
                    lines.extend(new_lines);
                }
                (_, op) => ops.push(op),
            }
        }
        LineDiff { ops }
    }

    /// The ops, in application order.
    pub fn ops(&self) -> &[DiffOp] {
        &self.ops
    }

    /// Applies the diff to `base`, reconstructing the variant exactly.
    ///
    /// Returns `None` if the diff references base lines that don't exist
    /// (i.e. it was computed against a different base).
    pub fn apply(&self, base: &str) -> Option<String> {
        let b: Vec<&str> = base.split('\n').collect();
        let mut out: Vec<&str> = Vec::new();
        for op in &self.ops {
            match op {
                DiffOp::Copy { start, len } => out.extend(b.get(*start..start + len)?),
                DiffOp::Insert(lines) => out.extend(lines.iter().map(String::as_str)),
            }
        }
        Some(out.join("\n"))
    }

    /// Bytes needed to store this diff (op overhead + inserted text) —
    /// the quantity DiffStorage is designed to minimize.
    pub fn stored_bytes(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DiffOp::Copy { .. } => 16,
                DiffOp::Insert(lines) => 16 + lines.iter().map(|l| l.len() + 1).sum::<usize>(),
            })
            .sum()
    }
}

/// Length of the longest common prefix of `a` and `b`, compared 16 bytes
/// at a time up to the first differing block.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let blocks = a.as_chunks::<16>().0.iter().zip(b.as_chunks::<16>().0);
    let whole = 16 * blocks.take_while(|(x, y)| x == y).count();
    let rest = a.iter().skip(whole).zip(b.iter().skip(whole));
    whole + rest.take_while(|(x, y)| x == y).count()
}

/// Length of the longest common suffix of `a` and `b`, compared 16 bytes
/// at a time back to the first differing block.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let (a16, b16) = (a.as_rchunks::<16>().1, b.as_rchunks::<16>().1);
    let blocks = a16.iter().rev().zip(b16.iter().rev());
    let whole = 16 * blocks.take_while(|(x, y)| x == y).count();
    let rest = a.iter().rev().skip(whole).zip(b.iter().rev().skip(whole));
    whole + rest.take_while(|(x, y)| x == y).count()
}

// The table is (a.len()+1) × (b.len()+1), row-major in one allocation;
// every index below stays inside those bounds by loop construction.
#[expect(clippy::indexing_slicing, reason = "in range by construction")]
fn lcs_table(a: &[&str], b: &[&str]) -> Vec<u32> {
    let width = b.len() + 1;
    let mut t = vec![0u32; (a.len() + 1) * width];
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            t[i * width + j] = if a[i - 1] == b[j - 1] {
                t[(i - 1) * width + j - 1] + 1
            } else {
                t[(i - 1) * width + j].max(t[i * width + j - 1])
            };
        }
    }
    t
}

/// DiffStorage: one full base page plus diffs for each variant.
#[derive(Clone, Debug)]
pub struct DiffStorage {
    base: String,
    /// The base's line starts, built once for every `store`.
    index: LineIndex,
    variants: Vec<LineDiff>,
    /// Bytes of every stored page as received (a diff reconstructs its
    /// page exactly, so this is what full copies would take).
    full_bytes: usize,
}

impl DiffStorage {
    /// Creates storage around the initiator's full page.
    pub fn new(base_page: impl Into<String>) -> Self {
        let base = base_page.into();
        DiffStorage {
            index: LineIndex::new(&base),
            base,
            variants: Vec::new(),
            full_bytes: 0,
        }
    }

    /// Stores a proxy response as a diff; returns its index.
    pub fn store(&mut self, page: &str) -> usize {
        self.variants
            .push(LineDiff::against(&self.base, &self.index, page));
        self.full_bytes += page.len();
        self.variants.len() - 1
    }

    /// The diff stored as variant `idx`.
    pub fn diff(&self, idx: usize) -> Option<&LineDiff> {
        self.variants.get(idx)
    }

    /// Reconstructs variant `idx`.
    pub fn load(&self, idx: usize) -> Option<String> {
        self.variants.get(idx)?.apply(&self.base)
    }

    /// Total bytes stored (base + diffs) versus what full copies would
    /// need. Returns `(stored, full_copies)`.
    pub fn storage_accounting(&self) -> (usize, usize) {
        let diffs: usize = self.variants.iter().map(LineDiff::stored_bytes).sum();
        (self.base.len() + diffs, self.base.len() + self.full_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "line one\nline two\nline three\nline four";

    #[test]
    fn identical_pages_roundtrip() {
        let d = LineDiff::compute(BASE, BASE);
        assert_eq!(d.apply(BASE).unwrap(), BASE);
        assert_eq!(d.ops().len(), 1, "one coalesced copy op");
    }

    #[test]
    fn single_line_change_roundtrips() {
        let variant = "line one\nline TWO\nline three\nline four";
        let d = LineDiff::compute(BASE, variant);
        assert_eq!(d.apply(BASE).unwrap(), variant);
        // Only the changed line is stored literally.
        assert_eq!(d.ops().len(), 3, "copy, insert, copy");
    }

    #[test]
    fn insertion_and_deletion_roundtrip() {
        let variant = "line one\nline three\nnew line\nline four\ntrailer";
        let d = LineDiff::compute(BASE, variant);
        assert_eq!(d.apply(BASE).unwrap(), variant);
    }

    #[test]
    fn disjoint_pages_roundtrip() {
        let variant = "completely\ndifferent\ncontent";
        let d = LineDiff::compute(BASE, variant);
        assert_eq!(d.apply(BASE).unwrap(), variant);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(LineDiff::compute("", "").apply("").unwrap(), "");
        let d = LineDiff::compute(BASE, "");
        assert_eq!(d.apply(BASE).unwrap(), "");
        let d = LineDiff::compute("", BASE);
        assert_eq!(d.apply("").unwrap(), BASE);
    }

    #[test]
    fn apply_to_wrong_base_detected() {
        let variant = "line one\nline two\nline three\nline four\nline five";
        let d = LineDiff::compute(BASE, variant);
        // A shorter base cannot satisfy the copy ops.
        assert_eq!(d.apply("line one"), None);
    }

    #[test]
    fn storage_saves_space_for_similar_pages() {
        let base: String = (0..200)
            .map(|i| format!("<div class=\"row\">item {i}</div>"))
            .collect::<Vec<_>>()
            .join("\n");
        let mut store = DiffStorage::new(&base);
        for v in 0..30 {
            // Each proxy sees one localized line differ.
            let variant = base.replace("item 100", &format!("item 100 v{v}"));
            store.store(&variant);
        }
        let (stored, full) = store.storage_accounting();
        assert!(
            stored * 5 < full,
            "diff storage not effective: {stored} vs {full}"
        );
        for i in 0..30 {
            assert!(store.load(i).unwrap().contains(&format!("v{i}")));
        }
    }
}
