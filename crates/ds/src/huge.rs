//! `Vec`s for the simulator's per-object arrays, backed by transparent huge
//! pages where the host grants them.
//!
//! A replay sizes its slot slab, ghost marks and curve-engine headers to the
//! id domain, and its request and slot vectors to the trace: on the
//! ledger's trace the slab alone is 143 MB. On 4 KiB pages, filling it is
//! one page fault per 64 slots, and every request's slot line is a TLB miss
//! (a two-dimensional page walk on a virtual machine). A 2 MiB page covers
//! 32 768 slots. Linux hands those out to anonymous memory only where the
//! process asks (`madvise(MADV_HUGEPAGE)`) when THP runs in `madvise` mode,
//! which is the mode of the host the ledger runs on.
//!
//! [`with_capacity`] and [`filled`] allocate as `Vec` does, then advise the
//! whole 2 MiB pages inside the spare capacity *before* anything is written
//! there, so the first touch of each faults in a huge page. The advice
//! never changes contents: where it cannot be given (not Linux, no whole
//! huge page inside, the kernel refuses) the `Vec` is the same `Vec` on
//! small pages. The `madvise` call is the workspace's fifth site of
//! `unsafe` code (the crate doc names them).

/// The huge-page size advice is rounded to: the PMD page of x86-64 and of
/// aarch64 with 4 KiB base pages, which is what THP maps. A constant rather
/// than a read of `hpage_pmd_size`, because the size only decides which
/// range is advised, never what the `Vec` holds.
const HUGE_PAGE: usize = 2 << 20;

/// An empty `Vec` with room for `n` elements, the 2 MiB-aligned interior of
/// which is advised onto huge pages before first touch.
///
/// # Panics
///
/// As [`Vec::with_capacity`]: when `n` elements overflow `isize::MAX` bytes.
pub fn with_capacity<T>(n: usize) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    let spare = v.spare_capacity_mut();
    let start = spare.as_mut_ptr() as usize;
    let end = start + std::mem::size_of_val(spare);
    let lo = start.next_multiple_of(HUGE_PAGE);
    let hi = end - end % HUGE_PAGE;
    if lo < hi {
        sys::advise_huge(lo, hi - lo);
    }
    v
}

/// `vec![value; n]`, written into huge-page-advised memory.
///
/// # Panics
///
/// As [`Vec::with_capacity`].
pub fn filled<T: Clone>(n: usize, value: T) -> Vec<T> {
    let mut v = with_capacity(n);
    v.resize(n, value);
    v
}

#[cfg(target_os = "linux")]
mod sys {
    /// `MADV_HUGEPAGE` from `<linux/mman.h>`, the same on every architecture.
    const MADV_HUGEPAGE: std::ffi::c_int = 14;

    extern "C" {
        fn madvise(
            addr: *mut std::ffi::c_void,
            len: usize,
            advice: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }

    /// Asks for huge pages on `[addr, addr + len)`; a refusal is ignored.
    pub(super) fn advise_huge(addr: usize, len: usize) {
        // SAFETY: `MADV_HUGEPAGE` only sets a flag on the mappings covering
        // the range (splitting one there if need be): it maps, unmaps,
        // writes and reads nothing, and leaves the contents and protection
        // of every byte, inside the range or out, as they were — so no
        // range, even one this process does not own, can make it undefined
        // behaviour. Here the range is the 2 MiB-aligned interior of a new
        // `Vec`'s spare capacity, memory nothing has written or points into
        // yet. A refusal (`EINVAL` on a kernel without THP, `ENOMEM` off a
        // mapping) changes nothing either, so the result is dropped.
        let _ = unsafe { madvise(addr as *mut std::ffi::c_void, len, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    /// No transparent huge pages to ask for.
    pub(super) fn advise_huge(_addr: usize, _len: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache-line-aligned element, the shape of the dense slab's `Slot`.
    #[derive(Debug, Clone, PartialEq)]
    #[repr(align(64))]
    struct Line {
        a: u64,
        b: u32,
    }

    /// The lengths the module's edges sit at, for an element of `size`
    /// bytes (a zero-sized type counts as one byte per element).
    fn lengths(size: usize) -> [usize; 5] {
        let per = size.max(1);
        [
            0,
            1,
            HUGE_PAGE / per - 1,
            HUGE_PAGE / per,
            (3 * HUGE_PAGE + 7).div_ceil(per),
        ]
    }

    fn agrees<T: Clone + PartialEq + std::fmt::Debug>(value: T) {
        for n in lengths(std::mem::size_of::<T>()) {
            let v = filled(n, value.clone());
            assert!(v == vec![value.clone(); n], "filled({n}) differs from vec!");
            let empty: Vec<T> = with_capacity(n);
            assert!(
                empty.is_empty() && empty.capacity() >= n,
                "with_capacity({n})"
            );
        }
    }

    #[test]
    fn filled_is_vec_macro_and_with_capacity_has_room() {
        agrees(0xA5u8);
        agrees(Line { a: 7, b: u32::MAX });
        agrees(());
    }

    /// THP mode from the kernel, `None` when the file is absent.
    #[cfg(target_os = "linux")]
    fn thp_mode() -> Option<String> {
        let text = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").ok()?;
        let (_, rest) = text.split_once('[')?;
        Some(rest.split_once(']')?.0.to_string())
    }

    /// `AnonHugePages` in kB of the mapping holding `addr`, from smaps.
    #[cfg(target_os = "linux")]
    fn anon_huge_kb(addr: usize) -> Option<u64> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut inside = false;
        for line in smaps.lines() {
            let head = line.split_whitespace().next().unwrap_or("");
            if let Some((lo, hi)) = head.split_once('-') {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    inside = lo <= addr && addr < hi;
                    continue;
                }
            }
            if let Some(kb) = line.strip_prefix("AnonHugePages:").filter(|_| inside) {
                return kb.trim().trim_end_matches("kB").trim().parse().ok();
            }
        }
        None
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_filled_vec_lands_on_huge_pages_when_thp_allows() {
        match thp_mode().as_deref() {
            Some("always" | "madvise") => {}
            mode => {
                println!("skipped: transparent_hugepage/enabled is {mode:?}, not always/madvise");
                return;
            }
        }
        let v = filled(16 << 20, 1u8);
        // 8 MiB in lies inside the advised interior, whatever the alignment.
        let kb = anon_huge_kb(v.as_ptr() as usize + (8 << 20));
        assert!(
            kb.is_some_and(|kb| kb > 0),
            "AnonHugePages {kb:?} kB on a 16 MiB filled vec"
        );
    }
}
