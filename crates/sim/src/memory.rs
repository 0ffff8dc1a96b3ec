//! Logical device memory: buffers, addresses and warp-access decomposition.
//!
//! Kernels never touch host memory through the model — they *compute* on
//! host slices but *account* every global access here, by describing the
//! byte ranges a warp touches. The decomposition into 32-byte sectors is
//! what makes alignment and coalescing first-class: an access that starts
//! mid-sector pays for the extra sector exactly as the hardware would
//! (§III-B2 and Fig. 7 of the paper).

/// Granularity of L2 transactions: 32 bytes.
pub const SECTOR_BYTES: usize = 32;

/// A logical device allocation with a fixed, aligned base address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffer {
    base: u64,
    len_bytes: u64,
}

impl Buffer {
    /// Base byte address of the allocation.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Allocation size in bytes.
    #[inline]
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Byte address of `byte_offset` into the buffer.
    ///
    /// Debug builds bounds-check the access, catching kernel indexing bugs
    /// inside the simulator rather than as silent mis-accounting.
    #[inline]
    pub fn addr(&self, byte_offset: u64) -> u64 {
        debug_assert!(
            byte_offset <= self.len_bytes,
            "buffer access out of bounds: offset {byte_offset} > len {}",
            self.len_bytes
        );
        self.base + byte_offset
    }

    /// Byte address of element `index` when the buffer holds `elem_bytes`
    /// sized elements (4 for `f32`/`u32`).
    #[inline]
    pub fn elem_addr(&self, index: u64, elem_bytes: u64) -> u64 {
        self.addr(index * elem_bytes)
    }
}

/// A bump allocator handing out 256-byte-aligned logical addresses, the
/// alignment `cudaMalloc` guarantees.
#[derive(Debug, Default)]
pub struct MemorySpace {
    next: u64,
}

impl MemorySpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        // Leave address 0 unused so a zero address is always a bug.
        Self { next: 256 }
    }

    /// Allocates `len_bytes`, returning a buffer whose base is 256-aligned.
    fn alloc(&mut self, len_bytes: u64) -> Buffer {
        let base = self.next;
        let padded = len_bytes.div_ceil(256) * 256;
        self.next += padded.max(256);
        Buffer { base, len_bytes }
    }

    /// Allocates space for `n` 4-byte elements.
    pub fn alloc_elems(&mut self, n: usize) -> Buffer {
        self.alloc(n as u64 * 4)
    }
}

/// Whether a warp access starting at `addr` with vector width `vw`
/// (elements per thread, 4-byte elements) is aligned for vectorized loads:
/// `float2` requires 8-byte alignment, `float4` 16-byte.
pub fn vector_aligned(addr: u64, vw: u32) -> bool {
    addr.is_multiple_of(vw as u64 * 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut ms = MemorySpace::new();
        let a = ms.alloc(100);
        let b = ms.alloc(1);
        assert_eq!(a.base() % 256, 0);
        assert_eq!(b.base() % 256, 0);
        assert!(b.base() >= a.base() + 256);
        assert_ne!(a.base(), 0);
    }

    #[test]
    fn vector_alignment_rules() {
        assert!(vector_aligned(0, 4));
        assert!(vector_aligned(16, 4));
        assert!(!vector_aligned(8, 4)); // float4 needs 16B
        assert!(vector_aligned(8, 2)); // float2 needs 8B
        assert!(!vector_aligned(4, 2));
        assert!(vector_aligned(4, 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn debug_bounds_check_fires() {
        let mut ms = MemorySpace::new();
        let a = ms.alloc(100);
        let _ = a.addr(101);
    }

    #[test]
    fn elem_addr_scales_by_size() {
        let mut ms = MemorySpace::new();
        let a = ms.alloc_elems(10);
        assert_eq!(a.elem_addr(3, 4), a.base() + 12);
    }
}
