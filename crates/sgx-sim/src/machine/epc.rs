//! EPC layer: the enclave memory boundary — EPC capacity limits, EDMM
//! first-touch commits, SGXv1 paging, MEE bus inflation, and the serial
//! fault/EDMM train caps `finish_phase` regulates against.

use crate::config::{CACHE_LINE, PAGE_SIZE};
use crate::mem::{ExecMode, Region, SimSink, SimVec, VecSlot};

use super::core::{Charge, Tally};
use super::{Core, Machine};

impl Machine {
    /// Allocate a vector in the setting's default data region on `node` 0.
    pub fn alloc<T: Copy + Default>(&mut self, len: usize) -> SimVec<T> {
        self.alloc_on(len, self.setting.data_region(0))
    }

    /// Allocate a vector in an explicit region. Panics when an EPC region
    /// would exceed the configured per-socket EPC capacity — real enclaves
    /// fail to grow at exactly this point (use [`Machine::try_alloc_on`]
    /// to handle it).
    pub fn alloc_on<T: Copy + Default>(&mut self, len: usize, region: Region) -> SimVec<T> {
        let base = self.reserve(len * SimVec::<T>::elem_size(), region);
        SimVec::new(len, base, region)
    }

    /// Reserve the simulated addresses of a `len`-element vector exactly
    /// as `alloc::<T>(len)` would, and panic on EPC exhaustion the same
    /// way, but leave it without host memory until [`VecSlot::alloc`].
    pub fn reserve_vec<T: Copy + Default>(&mut self, len: usize) -> VecSlot<T> {
        let region = self.setting.data_region(0);
        VecSlot::new(len, self.reserve(len * SimVec::<T>::elem_size(), region), region)
    }

    /// Allocate a write-only sink of `len` `u64` slots in the setting's
    /// default data region on node 0. It takes exactly the simulated
    /// addresses `alloc::<u64>(len)` would, so every later allocation
    /// keeps its address, and panics on EPC exhaustion the same way.
    pub fn alloc_sink(&mut self, len: usize) -> SimSink {
        let region = self.setting.data_region(0);
        SimSink::new(len, self.reserve(len * SimSink::SLOT_BYTES, region))
    }

    /// Fallible allocation: returns `None` when an EPC region would exceed
    /// the per-socket EPC capacity (Table 1: 64 GB/socket).
    pub fn try_alloc_on<T: Copy + Default>(
        &mut self,
        len: usize,
        region: Region,
    ) -> Option<SimVec<T>> {
        let base = self.try_reserve(len * SimVec::<T>::elem_size(), region)?;
        Some(SimVec::new(len, base, region))
    }

    /// Reserve `bytes` of simulated address space in `region`; the
    /// infallible allocators' shared panic on EPC exhaustion.
    #[expect(
        clippy::panic,
        reason = "documented API contract: alloc_on and alloc_sink panic on EPC exhaustion, try_alloc_on is the fallible twin"
    )]
    fn reserve(&mut self, bytes: usize, region: Region) -> u64 {
        self.try_reserve(bytes, region).unwrap_or_else(|| {
            panic!(
                "EPC capacity exceeded on node {} ({} bytes per socket)",
                region.node(),
                self.cfg.epc_per_socket
            )
        })
    }

    /// Bump-allocate `bytes` in `region` and return their base address,
    /// or `None` when an EPC region would exceed its capacity.
    fn try_reserve(&mut self, bytes: usize, region: Region) -> Option<u64> {
        let bytes = bytes as u64;
        if region.is_epc() {
            let used = self.allocs[region.index()].used;
            if used + bytes > self.cfg.epc_per_socket as u64 {
                return None;
            }
        }
        let off = self.allocs[region.index()].alloc(bytes);
        Some(region.base() + off)
    }

    /// Bytes allocated so far in a region.
    pub fn region_used(&self, region: Region) -> u64 {
        self.allocs[region.index()].used
    }

    /// Freeze the enclave's statically committed size: EPC memory allocated
    /// *after* this call is committed on first charged touch via EDMM,
    /// paying `EdmmConfig::page_add_cycles` per page (§4.4, Fig 11).
    pub fn seal_enclave(&mut self) {
        self.sealed = true;
        for (i, a) in self.allocs.iter().enumerate() {
            self.seal_watermark[i] = a.used;
        }
    }

    /// Serial SGXv1 fault train: the kernel driver's EWB/ELDU path holds a
    /// global lock, so a phase can never beat `faults` sequential faults.
    pub(super) fn fault_train_cap(&self, faults: u64) -> f64 {
        faults as f64 * self.cfg.paging.fault_cycles
    }

    /// Serial EDMM train: EAUG/EACCEPT go through the globally locked EPC
    /// page-management path.
    pub(super) fn edmm_train_cap(&self, edmm_pages: u64) -> f64 {
        edmm_pages as f64 * self.cfg.edmm.page_add_cycles
    }
}

impl<'m> Core<'m> {
    /// DRAM-bus bytes one cache line effectively occupies: encrypted EPC
    /// lines carry MEE counter/MAC traffic, so under enclave execution they
    /// consume proportionally more of the bandwidth budget (this is what
    /// keeps the few-percent MEE tax visible even when a phase saturates
    /// the memory bus, Fig 13/15).
    pub(super) fn line_bus_bytes(&self, enc: bool, write: bool) -> f64 {
        let base = CACHE_LINE as f64;
        if !enc {
            return base;
        }
        let f = if write {
            self.m.cfg.mem.mee_stream_write_factor
        } else {
            self.m.cfg.mem.mee_stream_factor
        };
        base * f
    }

    /// EDMM commit and SGXv1 paging checks for a charged touch.
    #[inline]
    pub(super) fn pre_touch(&mut self, addr: u64, region: Region) {
        if self.m.mode != ExecMode::Enclave || !region.is_epc() {
            return;
        }
        if self.m.sealed {
            let off = addr - region.base();
            if off >= self.m.seal_watermark[region.index()] {
                let page = addr / PAGE_SIZE as u64;
                if self.m.committed_pages.insert(page) {
                    self.edmm_pages += 1;
                    self.commit(Charge {
                        cycles: self.m.cfg.edmm.page_add_cycles,
                        tally: Tally::EdmmPage,
                    });
                }
            }
        }
        let fault = self.m.pager.as_mut().map_or(0.0, |pager| pager.touch(addr));
        if fault > 0.0 {
            self.faults += 1;
            self.commit(Charge { cycles: fault, tally: Tally::EpcPageFault });
        }
    }
}
