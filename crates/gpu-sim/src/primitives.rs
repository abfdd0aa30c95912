//! Device-style collective primitives with counter accounting.
//!
//! Two-pass engines lean on these: GSI's join counts per-path results,
//! runs an **exclusive scan** over the counts to get write offsets, and
//! scatters. The primitives here model the standard work-efficient
//! implementations (Blelloch scan: ~2n ops over shared memory plus one
//! global read and write per element) so that engines built on them incur
//! honest traffic.

use crate::counters::BlockCounters;

/// Exclusive prefix sum: returns `n + 1` offsets with `out[0] = 0` and
/// `out[n]` = total. Charges one global read and write per element plus
/// the ~2n shared-memory ops of a work-efficient scan.
pub fn exclusive_scan(ctr: &mut BlockCounters, input: &[u32]) -> Vec<u32> {
    let n = input.len();
    ctr.dram_read_coalesced(n);
    ctr.shmem_write(n);
    ctr.shmem_read(n);
    ctr.alu(2 * n);
    ctr.dram_write(n + 1);
    let mut out = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    out.push(0);
    for &x in input {
        acc += x;
        out.push(acc);
    }
    out
}

/// Stream compaction: keeps elements satisfying `pred`, preserving order.
/// Models the scan-then-scatter implementation: a flag pass, a scan, and
/// a scattered write of survivors.
pub fn compact<F>(ctr: &mut BlockCounters, input: &[u32], mut pred: F) -> Vec<u32>
where
    F: FnMut(u32) -> bool,
{
    let n = input.len();
    ctr.dram_read_coalesced(n);
    ctr.alu(n); // predicate evaluation
    let flags: Vec<u32> = input.iter().map(|&x| pred(x) as u32).collect();
    let offsets = exclusive_scan(ctr, &flags);
    let kept = offsets[n] as usize;
    ctr.dram_write(kept);
    input
        .iter()
        .zip(flags.iter())
        .filter(|(_, &f)| f == 1)
        .map(|(&x, _)| x)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_offsets() {
        let mut ctr = BlockCounters::default();
        let out = exclusive_scan(&mut ctr, &[3, 0, 5, 2]);
        assert_eq!(out, vec![0, 3, 3, 8, 10]);
        assert_eq!(ctr.c.dram_reads, 4);
        assert_eq!(ctr.c.dram_writes, 5);
        assert!(ctr.c.shmem_writes >= 4);
    }

    #[test]
    fn scan_empty() {
        let mut ctr = BlockCounters::default();
        assert_eq!(exclusive_scan(&mut ctr, &[]), vec![0]);
    }

    #[test]
    fn compaction_preserves_order() {
        let mut ctr = BlockCounters::default();
        let out = compact(&mut ctr, &[5, 2, 9, 4, 7], |x| x > 4);
        assert_eq!(out, vec![5, 9, 7]);
        let none = compact(&mut ctr, &[1, 2], |_| false);
        assert!(none.is_empty());
    }
}
