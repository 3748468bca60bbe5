//! The full-table LCS line diff `sheriff_html::diff::LineDiff::compute`
//! replaced (ISSUE 22), kept verbatim as the differential oracle: a
//! `(lines + 1)²` `Vec<Vec<u32>>` filled with string compares, then the
//! backtrack and coalescing the product still runs on the middle.

use sheriff_html::diff::DiffOp;

/// The oracle's diff: just the ops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineDiff {
    pub ops: Vec<DiffOp>,
}

impl LineDiff {
    /// Computes the diff turning `base` into `variant`.
    // Textbook LCS backtrack: `i`/`j` only decrease from `b.len()`/`v.len()`
    // and every index is guarded by `i > 0`/`j > 0`; rewriting with `.get`
    // would bury the algorithm under plumbing.
    pub fn compute(base: &str, variant: &str) -> LineDiff {
        let b: Vec<&str> = base.split('\n').collect();
        let v: Vec<&str> = variant.split('\n').collect();
        let lcs = lcs_table(&b, &v);

        // Walk the table back to produce ops.
        let mut ops: Vec<DiffOp> = Vec::new();
        let (mut i, mut j) = (b.len(), v.len());
        let mut rev: Vec<DiffOp> = Vec::new();
        while i > 0 || j > 0 {
            if i > 0 && j > 0 && b[i - 1] == v[j - 1] {
                rev.push(DiffOp::Copy {
                    start: i - 1,
                    len: 1,
                });
                i -= 1;
                j -= 1;
            } else if j > 0 && (i == 0 || lcs[i][j - 1] >= lcs[i - 1][j]) {
                rev.push(DiffOp::Insert(vec![v[j - 1].to_string()]));
                j -= 1;
            } else {
                // Deletion from base: nothing to emit, the copy ops simply
                // skip those base lines.
                i -= 1;
            }
        }
        rev.reverse();
        // Coalesce adjacent ops.
        for op in rev {
            match (ops.last_mut(), op) {
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
}

// The table is allocated (a.len()+1) × (b.len()+1) on the first line;
// every index below stays inside those bounds by loop construction.
fn lcs_table(a: &[&str], b: &[&str]) -> Vec<Vec<u32>> {
    let mut t = vec![vec![0u32; b.len() + 1]; a.len() + 1];
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            t[i][j] = if a[i - 1] == b[j - 1] {
                t[i - 1][j - 1] + 1
            } else {
                t[i - 1][j].max(t[i][j - 1])
            };
        }
    }
    t
}
