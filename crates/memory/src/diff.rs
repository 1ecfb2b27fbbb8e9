//! Twin/diff: byte-level comparison of dirty pages against their twins.
//!
//! Paper §4.2: "each byte on the dirty page must be compared to its
//! corresponding byte on the original page" — this scan is the dominant
//! part of the paper's `t_index` (Figure 8 measures it together with the
//! run→index mapping). The output is a list of maximal *runs* of modified
//! bytes, addressed in the node's simulated address space.

use crate::space::AddressSpace;

/// A maximal run of modified bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffRun {
    /// Simulated address of the first modified byte.
    pub addr: u64,
    /// Number of modified bytes.
    pub len: usize,
}

impl DiffRun {
    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.addr + self.len as u64
    }
}

/// Compare one page against a twin, appending maximal modified runs to
/// `out`. `page_addr` is the simulated address of the page's first byte.
pub fn diff_page_into(page_addr: u64, twin: &[u8], current: &[u8], out: &mut Vec<DiffRun>) {
    debug_assert_eq!(twin.len(), current.len());
    let mut i = 0;
    let n = current.len();
    while i < n {
        if twin[i] == current[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && twin[i] != current[i] {
            i += 1;
        }
        out.push(DiffRun {
            addr: page_addr + start as u64,
            len: i - start,
        });
    }
}

/// Diff every dirty page of a space against its twin, returning runs in
/// ascending address order. Runs never span page boundaries (pages are
/// diffed independently, as in any twin/diff DSM); adjacent cross-page runs
/// are merged afterwards so callers see true byte runs.
pub fn diff_pages(space: &AddressSpace) -> Vec<DiffRun> {
    let mut out = Vec::new();
    for page in space.dirty_pages() {
        let twin = space
            .twin(page)
            .expect("dirty page always has a twin (fault handler invariant)");
        diff_page_into(space.page_addr(page), twin, space.page(page), &mut out);
    }
    // Merge runs that touch across page boundaries.
    merge_adjacent(&mut out);
    out
}

/// Merge runs where one ends exactly where the next begins.
pub fn merge_adjacent(runs: &mut Vec<DiffRun>) {
    if runs.len() < 2 {
        return;
    }
    let mut w = 0;
    for r in 1..runs.len() {
        if runs[w].end() == runs[r].addr {
            runs[w].len += runs[r].len;
        } else {
            w += 1;
            runs[w] = runs[r];
        }
    }
    runs.truncate(w + 1);
}

/// Total modified bytes across runs.
pub fn total_bytes(runs: &[DiffRun]) -> u64 {
    runs.iter().map(|r| r.len as u64).sum()
}

/// Attribute runs to pages: split every run at page boundaries and return
/// `(page_index, bytes)` chunks in run order, where `page_index` is
/// relative to `base`. Used by the observability heatmap to charge diffed
/// bytes to the page they live on; a merged cross-page run contributes one
/// chunk per page it touches.
pub fn split_by_page(runs: &[DiffRun], base: u64, page_size: u64) -> Vec<(u64, u64)> {
    debug_assert!(page_size > 0);
    let mut out = Vec::new();
    for run in runs {
        // Clamp to the space: bytes below `base` have no page to be charged
        // to, and including them would underflow the page computation.
        let mut addr = run.addr.max(base);
        let end = run.end();
        while addr < end {
            let page = (addr - base) / page_size;
            let page_end = base + (page + 1) * page_size;
            let chunk = end.min(page_end) - addr;
            out.push((page, chunk));
            addr += chunk;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: u64 = 0x1000;

    fn armed(len: usize, page: usize) -> AddressSpace {
        let mut s = AddressSpace::new(BASE, len, page);
        s.protect_all();
        s
    }

    #[test]
    fn clean_space_has_no_diffs() {
        let s = armed(4096, 4096);
        assert!(diff_pages(&s).is_empty());
    }

    #[test]
    fn single_byte_diff() {
        let mut s = armed(4096, 4096);
        s.write(BASE + 17, &[5]).unwrap();
        assert_eq!(
            diff_pages(&s),
            vec![DiffRun {
                addr: BASE + 17,
                len: 1
            }]
        );
    }

    #[test]
    fn write_of_same_value_produces_no_diff() {
        // The page faults (it was armed) but the bytes did not change, so
        // the byte-level diff is empty — exactly why twin/diff beats
        // page-granularity dirty tracking for write traffic.
        let mut s = armed(4096, 4096);
        s.write(BASE + 17, &[0]).unwrap();
        assert_eq!(s.dirty_count(), 1);
        assert!(diff_pages(&s).is_empty());
    }

    #[test]
    fn separate_runs_within_a_page() {
        let mut s = armed(4096, 4096);
        s.write(BASE, &[1, 2]).unwrap();
        s.write(BASE + 100, &[3]).unwrap();
        let runs = diff_pages(&s);
        assert_eq!(
            runs,
            vec![
                DiffRun { addr: BASE, len: 2 },
                DiffRun {
                    addr: BASE + 100,
                    len: 1
                }
            ]
        );
        assert_eq!(total_bytes(&runs), 3);
    }

    #[test]
    fn run_spanning_page_boundary_is_merged() {
        let mut s = armed(8192, 4096);
        let addr = BASE + 4094;
        s.write(addr, &[1, 2, 3, 4]).unwrap();
        let runs = diff_pages(&s);
        assert_eq!(runs, vec![DiffRun { addr, len: 4 }]);
    }

    #[test]
    fn adjacent_writes_coalesce_into_one_run() {
        let mut s = armed(4096, 4096);
        s.write(BASE + 8, &[1, 1, 1, 1]).unwrap();
        s.write(BASE + 12, &[2, 2, 2, 2]).unwrap();
        assert_eq!(
            diff_pages(&s),
            vec![DiffRun {
                addr: BASE + 8,
                len: 8
            }]
        );
    }

    #[test]
    fn only_dirty_pages_are_scanned() {
        let mut s = armed(3 * 4096, 4096);
        s.write(BASE + 2 * 4096 + 5, &[7]).unwrap();
        let runs = diff_pages(&s);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].addr, BASE + 2 * 4096 + 5);
    }

    #[test]
    fn merge_adjacent_handles_non_touching() {
        let mut runs = vec![
            DiffRun { addr: 0, len: 4 },
            DiffRun { addr: 4, len: 4 },
            DiffRun { addr: 10, len: 2 },
            DiffRun { addr: 12, len: 1 },
        ];
        merge_adjacent(&mut runs);
        assert_eq!(
            runs,
            vec![DiffRun { addr: 0, len: 8 }, DiffRun { addr: 10, len: 3 }]
        );
    }

    #[test]
    fn split_by_page_charges_each_page_its_share() {
        let runs = vec![
            DiffRun {
                addr: BASE + 10,
                len: 4,
            },
            // Spans the first/second page boundary: 2 bytes each side.
            DiffRun {
                addr: BASE + 4094,
                len: 4,
            },
            // Covers all of page 2 and one byte of page 3.
            DiffRun {
                addr: BASE + 2 * 4096,
                len: 4097,
            },
        ];
        assert_eq!(
            split_by_page(&runs, BASE, 4096),
            vec![(0, 4), (0, 2), (1, 2), (2, 4096), (3, 1)]
        );
        let charged: u64 = split_by_page(&runs, BASE, 4096)
            .iter()
            .map(|(_, b)| b)
            .sum();
        assert_eq!(charged, total_bytes(&runs));
    }

    #[test]
    fn split_by_page_run_straddling_base_charges_only_in_space_pages() {
        // A run that begins below `base` and spans the base boundary must
        // still attribute its in-space bytes to page 0 (and further pages it
        // reaches) — not underflow the page computation. Runs like this
        // arise when a caller merges externally-sourced runs with space
        // runs before charging the heatmap.
        let runs = vec![DiffRun {
            addr: BASE - 2,
            len: 4100,
        }];
        assert_eq!(split_by_page(&runs, BASE, 4096), vec![(0, 4096), (1, 2)]);
    }

    #[test]
    fn write_back_to_original_value_cancels_diff() {
        let mut s = armed(4096, 4096);
        s.write(BASE, &[9]).unwrap();
        s.write(BASE, &[0]).unwrap(); // restore original zero
        assert!(diff_pages(&s).is_empty());
    }
}
