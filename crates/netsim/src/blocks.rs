//! Address-space allocation for the synthetic Internet.
//!
//! Every provider and cohort must authorize *disjoint* address blocks —
//! overlapping allocations would silently shrink the unions the analyzer
//! counts and skew Figure 5 / Table 4. The [`AddressAllocator`] hands out
//! aligned, never-reused CIDR blocks from a private slice of the address
//! space, and [`AddressAllocator::alloc_exact`] decomposes an arbitrary
//! address count into its binary power-of-two blocks so a provider's
//! "Allowed IPs" figure can be matched to the address.

use std::net::Ipv4Addr;

use spf_types::Ipv4Cidr;

/// Sequential, aligned allocator over a region of IPv4 space.
#[derive(Debug, Clone)]
pub struct AddressAllocator {
    next: u64,
    end: u64,
}

impl AddressAllocator {
    /// Allocate from the block starting at `base` with the given prefix.
    pub fn new(base: Ipv4Addr, prefix_len: u8) -> Self {
        let cidr = Ipv4Cidr::new(base, prefix_len).expect("valid prefix");
        let (lo, hi) = cidr.range_u32();
        AddressAllocator {
            next: lo as u64,
            end: hi as u64 + 1,
        }
    }

    /// Allocate one aligned block of the given prefix length.
    ///
    /// Panics if the region is exhausted — generation is deterministic, so
    /// exhaustion is a build-time sizing bug, not a runtime condition.
    fn alloc_block(&mut self, prefix_len: u8) -> Ipv4Cidr {
        let size = 1u64 << (32 - prefix_len as u32);
        // Align upward to the block size.
        let aligned = self.next.div_ceil(size) * size;
        assert!(
            aligned + size <= self.end,
            "address region exhausted allocating /{prefix_len}"
        );
        self.next = aligned + size;
        Ipv4Cidr::new(Ipv4Addr::from(aligned as u32), prefix_len).expect("valid prefix")
    }

    /// Allocate a single host address (/32).
    pub fn alloc_host(&mut self) -> Ipv4Addr {
        self.alloc_block(32).raw_address()
    }

    /// Allocate disjoint blocks covering exactly `count` addresses
    /// (the binary decomposition of `count`, largest block first).
    pub fn alloc_exact(&mut self, count: u64) -> Vec<Ipv4Cidr> {
        assert!(count > 0 && count <= 1 << 32, "count out of range");
        let mut blocks = Vec::new();
        for bit in (0..=32u32).rev() {
            if count & (1u64 << bit) != 0 {
                let prefix = (32 - bit) as u8;
                blocks.push(self.alloc_block(prefix));
            }
        }
        blocks
    }

    /// Addresses still available.
    pub fn remaining(&self) -> u64 {
        self.end - self.next
    }

    /// Allocate blocks covering exactly `count` addresses the way real
    /// mail providers write their records: a handful of single hosts
    /// (/32) and office networks (/24) first, then larger aggregates.
    /// This is what gives Figure 7 its characteristic shape — the /32
    /// peak and the second peak at /24.
    pub fn alloc_mail_style(&mut self, count: u64) -> Vec<Ipv4Cidr> {
        assert!(count > 0 && count <= 1 << 32, "count out of range");
        let mut blocks = Vec::new();
        let mut remaining = count;
        // Up to 24 single hosts…
        for _ in 0..24 {
            if remaining > (1 << 24) || remaining == 0 {
                break; // huge providers aggregate; nothing left otherwise
            }
            blocks.push(self.alloc_block(32));
            remaining -= 1;
        }
        // …up to 14 /24 networks…
        for _ in 0..14 {
            if remaining < 256 {
                break;
            }
            blocks.push(self.alloc_block(24));
            remaining -= 256;
        }
        // …and the rest as the binary decomposition.
        if remaining > 0 {
            blocks.extend(self.alloc_exact(remaining));
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_types::Ipv4Set;

    #[test]
    fn blocks_are_aligned_and_disjoint() {
        let mut alloc = AddressAllocator::new(Ipv4Addr::new(16, 0, 0, 0), 4);
        let mut set = Ipv4Set::new();
        let mut total = 0u64;
        for prefix in [24, 30, 16, 28, 12].iter().cycle().take(20) {
            let block = alloc.alloc_block(*prefix as u8);
            // Aligned: network address equals the raw address.
            assert_eq!(block.network(), block.raw_address());
            let before = set.address_count();
            set.insert_cidr(&block);
            assert_eq!(
                set.address_count(),
                before + block.address_count(),
                "overlap at {block}"
            );
            total += block.address_count();
        }
        assert_eq!(set.address_count(), total);
    }

    #[test]
    fn alloc_exact_matches_count() {
        let mut alloc = AddressAllocator::new(Ipv4Addr::new(40, 0, 0, 0), 8);
        for count in [1u64, 2, 15, 491_520, 328_960, 1_088_784, 4_358, 264] {
            let blocks = alloc.alloc_exact(count);
            let set: Ipv4Set = blocks.iter().copied().collect();
            assert_eq!(set.address_count(), count, "decomposition of {count}");
        }
    }

    #[test]
    fn table4_provider_sizes_decompose() {
        // Every "Allowed IPs" value in Table 4 must be representable.
        let sizes = [
            491_520u64, 328_960, 1_088_784, 505_104, 4_358, 22_528, 4_608, 220_672, 1_049, 264,
            64_512, 2, 36_312, 4_358, 6_209, 26_112, 5_120, 10_492, 87_040, 15,
        ];
        let mut alloc = AddressAllocator::new(Ipv4Addr::new(20, 0, 0, 0), 6);
        for size in sizes {
            let blocks = alloc.alloc_exact(size);
            let set: Ipv4Set = blocks.iter().copied().collect();
            assert_eq!(set.address_count(), size);
            // Decomposition is the binary representation: popcount blocks.
            assert_eq!(blocks.len() as u32, size.count_ones());
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut alloc = AddressAllocator::new(Ipv4Addr::new(192, 0, 2, 0), 24);
        alloc.alloc_block(23); // bigger than the region
    }

    #[test]
    fn remaining_decreases() {
        let mut alloc = AddressAllocator::new(Ipv4Addr::new(198, 51, 100, 0), 24);
        assert_eq!(alloc.remaining(), 256);
        alloc.alloc_block(25);
        assert_eq!(alloc.remaining(), 128);
        alloc.alloc_host();
        assert_eq!(alloc.remaining(), 127);
    }
}
