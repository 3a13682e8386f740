//! Sparse paged guest memory with copy-on-write page sharing.
//!
//! Pages are allocated on demand for *mapped* ranges; region 0 (the tag
//! space) is lazily zero-backed on first touch, modelling a kernel that
//! demand-faults the bitmap in, so instrumented code can touch the tag of any
//! mapped data address without explicit setup (§3.2).
//!
//! # Host performance
//!
//! Guest loads/stores are the interpreter's hottest operation, so the layout
//! is chosen for the host, not just the model (see DESIGN.md §8 and §15):
//!
//! * A page frame's backing is a [`PageData`]: `Zero` (no backing at all —
//!   the canonical deduplicated all-zero page, which is also every all-clean
//!   region-0 tag page), `Shared` (an `Arc`'d immutable page of the pristine
//!   image), or `Owned` (an index into this instance's private, writable
//!   pages). Reads serve from any variant; the first write to a non-`Owned`
//!   page takes a *COW fault* that materializes a private copy.
//! * The page table (frames, index, mappings) lives behind one `Arc`, so
//!   cloning a `Memory` — the [`crate::MachineSeed::spawn`] path — is a
//!   reference-count bump, O(1) in the image size. The private pages live
//!   outside it, in a plain vector on [`Memory`], so a store to an owned
//!   page never touches the shared table. Only a change to the table
//!   itself — a COW fault, a newly resident page, a mapping — un-shares it
//!   (frame *headers* copy; page *contents* stay shared until individually
//!   COW-faulted).
//! * Page frames live in an arena (`frames`) indexed by a `page_idx` map, so
//!   a frame is reachable from a plain integer slot without hashing. The
//!   mapped page numbers are a [`RangeSet`]: a mapping of any size costs one
//!   range.
//! * A small direct-mapped software TLB caches `page → slot` translations.
//!   An entry is only installed after a *successful* access, so a hit
//!   implies the page is implemented and mapped — the fast path needs only
//!   the alignment check to produce identical errors. Each entry carries
//!   the private page's index exactly when the frame is `Owned`: the TLB
//!   hands out write-through pages only for private pages, and every other
//!   write goes through the slow path to take its COW fault first. The TLB
//!   is flushed whenever translations or writability can change wholesale
//!   (`map_range`, `rollback`, `freeze`); hit/miss counters are
//!   exported via [`Memory::tlb_stats`] and COW traffic via
//!   [`Memory::cow_stats`].
//! * Bulk accessors work per page span, through one walker for reads and
//!   one for writes: one permission check and one frame lookup per page
//!   instead of per byte. Implementedness and mapping are page-granular, so
//!   per-span checks fault at exactly the byte the per-byte loop would
//!   have.
//! * A [`Checkpoint`] is a value: the page table's `Arc` plus a copy of the
//!   private pages and the spill-NaT bank. The table is shared, not copied,
//!   and only the instance's `Owned` pages copy by value. Rollback
//!   reinstalls the saved table's `Arc` and copies the saved pages back,
//!   leaving the checkpoint intact, so any number of checkpoints can be
//!   live and each rolls back any number of times, in any order. When the
//!   live table is still the checkpoint's, the rollback keeps every cached
//!   translation.
//!
//! None of this is visible to the model: modelled cycles come from the cost
//! model and cache simulator, never from host data-structure choices, and
//! `state_digest` hashes page *contents*, which sharing never changes.

use std::collections::HashMap;
use std::sync::Arc;

use shift_isa::{is_implemented, region_of, RangeSet};

use crate::fault::Fault;

/// Page size in bytes.
pub const PAGE_SIZE: u64 = 4096;

const PAGE_USIZE: usize = PAGE_SIZE as usize;

/// The canonical all-zero page every `PageData::Zero` frame reads from.
static ZERO_PAGE: [u8; PAGE_USIZE] = [0u8; PAGE_USIZE];

/// log2 of the number of software-TLB entries.
const TLB_BITS: u32 = 5;
const TLB_SIZE: usize = 1 << TLB_BITS;

/// Sentinel page number marking an empty TLB entry. Unreachable by real
/// translations: page `u64::MAX` would require addresses above the
/// implemented-bits ceiling.
const TLB_EMPTY: u64 = u64::MAX;

/// Error from a raw memory access (converted to a [`Fault`] by
/// [`MemError::fault`], which adds the faulting `ip`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemError {
    /// Address has unimplemented bits set.
    Unimplemented {
        /// The offending address.
        addr: u64,
    },
    /// Address is not mapped.
    Unmapped {
        /// The offending address.
        addr: u64,
    },
    /// Access is not naturally aligned.
    Unaligned {
        /// The offending address.
        addr: u64,
        /// Access size in bytes.
        size: u64,
    },
}

impl MemError {
    /// The address involved in the error.
    pub fn addr(&self) -> u64 {
        match *self {
            MemError::Unimplemented { addr }
            | MemError::Unmapped { addr }
            | MemError::Unaligned { addr, .. } => addr,
        }
    }

    /// The architectural fault this error raises at instruction `ip` — the
    /// one mapping the executor and the runtime's syscalls share.
    #[inline]
    pub fn fault(self, ip: usize) -> Fault {
        match self {
            MemError::Unimplemented { addr } => Fault::Unimplemented { addr, ip },
            MemError::Unmapped { addr } => Fault::Unmapped { addr, ip },
            MemError::Unaligned { addr, size } => Fault::Unaligned { addr, size, ip },
        }
    }
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MemError::Unimplemented { addr } => write!(f, "unimplemented bits in {addr:#x}"),
            MemError::Unmapped { addr } => write!(f, "unmapped address {addr:#x}"),
            MemError::Unaligned { addr, size } => {
                write!(f, "unaligned {size}-byte access at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// One page of bytes.
type Page = [u8; PAGE_USIZE];

/// Backing storage of one resident page.
///
/// `Zero` and `Shared` are immutable — a write COW-faults them into `Owned`
/// first. Cloning is an `Arc` bump for `Shared` and free for `Zero` and
/// `Owned`: an owned page's bytes live in [`Memory::owned`], outside the
/// table.
#[derive(Clone, Debug)]
enum PageData {
    /// No backing: reads see the canonical all-zero page. Every all-zero
    /// page — lazily-faulted region-0 tag pages included — deduplicates to
    /// this one representation.
    Zero,
    /// An immutable page shared by reference: the pristine image a spawn
    /// inherits.
    Shared(Arc<Page>),
    /// This instance's private copy, produced by a COW fault: the index of
    /// its bytes in the owning [`Memory`]'s private pages. The only variant
    /// the write path may hand out.
    Owned(u32),
}

impl PageData {
    /// The page's bytes, wherever they live; `owned` holds the private
    /// pages the table's `Owned` frames index.
    #[inline]
    fn bytes<'a>(&'a self, owned: &'a [Box<Page>]) -> &'a Page {
        match self {
            PageData::Zero => &ZERO_PAGE,
            PageData::Shared(a) => a,
            PageData::Owned(i) => &owned[*i as usize],
        }
    }
}

/// One resident page frame.
#[derive(Clone, Debug)]
struct Frame {
    page: u64,
    data: PageData,
}

/// Marks a TLB entry whose frame is not `Owned`.
const NOT_OWNED: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct TlbEntry {
    page: u64,
    slot: u32,
    /// The private page's index when the frame is `Owned` — the one case a
    /// write may go straight through — else [`NOT_OWNED`].
    owned: u32,
}

const EMPTY_TLB: [TlbEntry; TLB_SIZE] =
    [TlbEntry { page: TLB_EMPTY, slot: 0, owned: NOT_OWNED }; TLB_SIZE];

/// The sharable page table: everything a pristine image contributes. Lives
/// behind an `Arc` in [`Memory`] so spawning and checkpoints share it
/// wholesale; the first change to it after a share clones frame headers
/// (`Arc::make_mut`) while page contents stay where they are.
#[derive(Clone, Debug, Default)]
struct Table {
    frames: Vec<Frame>,
    page_idx: HashMap<u64, u32>,
    /// The mapped page numbers.
    mapped: RangeSet,
}

impl Table {
    /// The bytes of `page`'s frame, if the page is resident.
    fn page<'a>(&'a self, page: u64, owned: &'a [Box<Page>]) -> Option<&'a Page> {
        self.page_idx.get(&page).map(|&slot| self.frames[slot as usize].data.bytes(owned))
    }
}

/// A restorable point of a [`Memory`]: its page table and private pages,
/// and its spill-NaT bank, as they were when [`Memory::checkpoint`] took
/// it. Self-contained — the table is held by reference, so nothing a later
/// write, mapping or checkpoint does can change it.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    table: Arc<Table>,
    owned: Vec<Box<Page>>,
    spill_nat: Vec<u64>,
}

/// Sparse paged memory with explicit mappings (plus lazily-backed region 0).
///
/// Besides byte contents, the memory tracks one NaT bit per 8-byte slot for
/// `st8.spill`/`ld8.fill`. Real Itanium banks these bits in the 64-bit `UNAT`
/// register and relies on the compiler to save/restore `UNAT` around spill
/// areas; modelling the bits as a per-slot side table is equivalent to a
/// compiler that manages `UNAT` correctly, without emitting the bookkeeping
/// code. Ordinary stores *clear* the slot's NaT bit (the spilled value is
/// gone), and ordinary loads never see it — only `ld8.fill` does.
///
/// Cloning shares the whole page table copy-on-write (see the module docs):
/// a clone of a [`Memory::freeze`]-prepared pristine image costs O(1) in the
/// image size, and the clones stay observably independent.
#[derive(Clone, Debug)]
pub struct Memory {
    table: Arc<Table>,
    /// This instance's private pages, indexed by `PageData::Owned`. Kept
    /// out of the shared table so a store never has to un-share it.
    owned: Vec<Box<Page>>,
    /// Banked spill-NaT slots (8-aligned addresses), sorted ascending. The
    /// bank holds a handful of slots, so a binary search beats hashing and
    /// the digest walks it in order without sorting.
    spill_nat: Vec<u64>,
    tlb: [TlbEntry; TLB_SIZE],
    tlb_hits: u64,
    tlb_misses: u64,
    /// COW faults taken: transitions of a `Zero`/`Shared`/absent page into a
    /// private `Owned` copy on this instance's write path.
    cow_faults: u64,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            table: Arc::new(Table::default()),
            owned: Vec::new(),
            spill_nat: Vec::new(),
            tlb: EMPTY_TLB,
            tlb_hits: 0,
            tlb_misses: 0,
            cow_faults: 0,
        }
    }
}

/// Natural-alignment check. Executor access sizes (`MemSize::bytes()`) are
/// always powers of two, so the common case is a mask test rather than the
/// `u64` division `is_multiple_of` costs on the hot load/store path; the
/// fallback keeps the documented any-size behaviour of the public accessors.
#[inline]
fn aligned(addr: u64, size: u64) -> bool {
    if size.is_power_of_two() {
        addr & (size - 1) == 0
    } else {
        addr.is_multiple_of(size)
    }
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    #[inline]
    fn tlb_index(page: u64) -> usize {
        // Multiplicative hashing spreads region and tag-space bits so a data
        // page and its tag page rarely collide in the direct-mapped array.
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - TLB_BITS)) as usize
    }

    #[inline]
    fn tlb_flush(&mut self) {
        self.tlb = EMPTY_TLB;
    }

    /// Software-TLB hit/miss counters. Host-side diagnostics only: the TLB
    /// models nothing and contributes no modelled cycles.
    pub fn tlb_stats(&self) -> (u64, u64) {
        (self.tlb_hits, self.tlb_misses)
    }

    /// Copy-on-write footprint counters, host-side diagnostics like
    /// [`Memory::tlb_stats`]: `(owned_pages, shared_pages, cow_faults)`.
    pub fn cow_stats(&self) -> (usize, usize, u64) {
        (self.owned_pages(), self.shared_pages(), self.cow_faults)
    }

    /// Pages this instance privately owns — its real per-instance memory
    /// cost, `owned_pages() * PAGE_SIZE` bytes. Shared and zero pages cost
    /// an instance nothing beyond the frame header.
    pub fn owned_pages(&self) -> usize {
        self.owned.len()
    }

    /// Resident pages backed by a shared (`Arc`'d) immutable page — the
    /// pristine image this instance references but has not dirtied.
    pub fn shared_pages(&self) -> usize {
        self.table.frames.iter().filter(|f| matches!(f.data, PageData::Shared(_))).count()
    }

    /// Resident pages with no backing at all (all-zero / all-clean),
    /// deduplicated to the canonical zero page.
    pub fn zero_pages(&self) -> usize {
        self.table.frames.iter().filter(|f| matches!(f.data, PageData::Zero)).count()
    }

    /// COW faults this instance has taken: writes that materialized a
    /// private copy of a zero, shared, or absent page.
    pub fn cow_faults(&self) -> u64 {
        self.cow_faults
    }

    /// The page bytes behind a translation (read path — any variant
    /// serves): an owned page straight from the private pages (`NOT_OWNED`
    /// is past their end), anything else through the table.
    #[inline]
    fn entry_bytes(&self, e: TlbEntry) -> &Page {
        match self.owned.get(e.owned as usize) {
            Some(page) => page,
            None => self.table.frames[e.slot as usize].data.bytes(&self.owned),
        }
    }

    /// Moves `data` into the private pages, returning its `Owned` backing.
    fn push_owned(&mut self, data: Box<Page>) -> PageData {
        let i = u32::try_from(self.owned.len()).expect("private page count fits u32");
        self.owned.push(data);
        self.cow_faults += 1;
        PageData::Owned(i)
    }

    /// Takes the COW fault for `slot` if its page is not yet private:
    /// `Zero`/`Shared` become a freshly copied `Owned` page. Returns the
    /// private page's index.
    #[inline]
    fn own_frame(&mut self, slot: u32) -> u32 {
        // Fast probe without un-sharing the table.
        let copy = match &self.table.frames[slot as usize].data {
            PageData::Owned(i) => return *i,
            PageData::Zero => Box::new([0u8; PAGE_USIZE]),
            PageData::Shared(a) => Box::new(**a),
        };
        let data = self.push_owned(copy);
        Arc::make_mut(&mut self.table).frames[slot as usize].data = data;
        self.owned.len() as u32 - 1
    }

    /// Full translation: permission checks, frame allocation, COW faulting
    /// (for writes), and TLB fill. Returns the installed entry. Error order
    /// matches the historical `check()`: `Unimplemented` before `Unmapped`.
    fn resolve_slow(&mut self, addr: u64, for_write: bool) -> Result<TlbEntry, MemError> {
        self.tlb_misses += 1;
        if !is_implemented(addr) {
            return Err(MemError::Unimplemented { addr });
        }
        let page = addr / PAGE_SIZE;
        if !self.table.mapped.contains(page) && region_of(addr) != 0 {
            return Err(MemError::Unmapped { addr });
        }
        let slot = match self.table.page_idx.get(&page) {
            Some(&slot) => {
                if for_write {
                    self.own_frame(slot);
                }
                slot
            }
            None => {
                // The page did not exist. Reads install a backing-free
                // `Zero` frame — observably identical to an absent page,
                // but deduplicated to the canonical zero page. Writes take
                // the COW fault to a private zeroed copy.
                let data = if for_write {
                    self.push_owned(Box::new([0u8; PAGE_USIZE]))
                } else {
                    PageData::Zero
                };
                let table = Arc::make_mut(&mut self.table);
                let slot = u32::try_from(table.frames.len()).expect("frame arena overflow");
                table.frames.push(Frame { page, data });
                table.page_idx.insert(page, slot);
                slot
            }
        };
        let owned = match self.table.frames[slot as usize].data {
            PageData::Owned(i) => i,
            _ => NOT_OWNED,
        };
        let e = TlbEntry { page, slot, owned };
        self.tlb[Self::tlb_index(page)] = e;
        Ok(e)
    }

    /// Translation for byte-granularity accessors (no alignment concerns).
    /// A read may use any TLB hit; a write-through hit additionally needs
    /// an owned page — anything else resolves slowly (COW fault, entry
    /// upgrade).
    #[inline]
    fn entry_for(&mut self, addr: u64, for_write: bool) -> Result<TlbEntry, MemError> {
        let page = addr / PAGE_SIZE;
        let e = self.tlb[Self::tlb_index(page)];
        if e.page == page && (!for_write || e.owned != NOT_OWNED) {
            self.tlb_hits += 1;
            Ok(e)
        } else {
            self.resolve_slow(addr, for_write)
        }
    }

    /// Converts every private (`Owned`) page into an immutable shared one
    /// and deduplicates all-zero pages (all-clean region-0 tag pages
    /// included) down to the canonical backing-free zero page.
    ///
    /// This is the load-time preparation step for spawn-sharing
    /// ([`crate::MachineSeed`]): after a freeze, cloning this memory is an
    /// `Arc` bump and every clone COW-faults its own private copies on
    /// first write. Observably a no-op — contents, mappings, digests, and
    /// error behaviour are unchanged. Also resets the host-side TLB/COW
    /// diagnostic counters, so instances meter their own traffic rather
    /// than inheriting the loader's.
    pub fn freeze(&mut self) {
        let table = Arc::make_mut(&mut self.table);
        for f in &mut table.frames {
            if let PageData::Owned(i) = f.data {
                let b = &self.owned[i as usize];
                f.data = if b.iter().all(|&x| x == 0) {
                    PageData::Zero
                } else {
                    PageData::Shared(Arc::new(**b))
                };
            }
        }
        self.owned.clear();
        self.tlb_flush();
        self.tlb_hits = 0;
        self.tlb_misses = 0;
        self.cow_faults = 0;
    }

    /// Maps (zero-fills) the pages covering `[addr, addr+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range touches unimplemented address bits — mappings are
    /// made by the loader/runtime, which must use canonical addresses.
    pub fn map_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = addr.checked_add(len - 1).expect("mapping wraps the address space");
        assert!(
            is_implemented(addr) && is_implemented(end),
            "mapping {addr:#x}+{len:#x} touches unimplemented bits"
        );
        Arc::make_mut(&mut self.table).mapped.insert(addr / PAGE_SIZE, end / PAGE_SIZE + 1);
        self.tlb_flush();
    }

    /// Returns `true` if the byte at `addr` is mapped (or lazily mappable —
    /// i.e. an implemented region-0 tag address).
    pub fn is_mapped(&self, addr: u64) -> bool {
        is_implemented(addr)
            && (self.table.mapped.contains(addr / PAGE_SIZE) || region_of(addr) == 0)
    }

    /// Takes a checkpoint: the page table by reference, and copies of the
    /// private pages and the spill-NaT bank, so [`Memory::rollback`] can
    /// return to this point. The live table is untouched, so cached
    /// translations stay valid.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            table: Arc::clone(&self.table),
            owned: self.owned.clone(),
            spill_nat: self.spill_nat.clone(),
        }
    }

    /// Returns pages, mappings and banked spill-NaT bits to their state at
    /// `ck`: reinstalls its table and copies its private pages back. `ck`
    /// is left as it was, so the same point can be rolled back to again.
    pub fn rollback(&mut self, ck: &Checkpoint) {
        // The checkpoint's own table means no page became resident or
        // private and no mapping moved since it was taken (a change would
        // have un-shared the table): every cached translation still holds.
        // Otherwise rollback can drop pages, revoke mappings, and un-own
        // frames, and every cached translation is suspect.
        if !Arc::ptr_eq(&self.table, &ck.table) {
            self.table = Arc::clone(&ck.table);
            self.tlb = EMPTY_TLB;
        }
        self.owned.clone_from(&ck.owned);
        self.spill_nat.clone_from(&ck.spill_nat);
    }

    /// Number of pages whose bytes differ between this memory and `ck` —
    /// the pages a rollback to it would change. A page absent on either
    /// side counts as all-zero: `ck` may be older or newer than the live
    /// state, so either side can hold pages the other lacks.
    pub fn dirty_pages(&self, ck: &Checkpoint) -> usize {
        let changed = self.table.frames.iter().filter(|f| {
            ck.table.page(f.page, &ck.owned).unwrap_or(&ZERO_PAGE) != f.data.bytes(&self.owned)
        });
        let dropped = ck.table.frames.iter().filter(|f| {
            !self.table.page_idx.contains_key(&f.page) && f.data.bytes(&ck.owned) != &ZERO_PAGE
        });
        changed.count() + dropped.count()
    }

    /// Reads a naturally-aligned little-endian integer of `size` ∈ {1,2,4,8}
    /// bytes, zero-extended to `u64`.
    ///
    /// # Errors
    ///
    /// [`MemError`] on unimplemented, unmapped, or unaligned access.
    pub fn read_int(&mut self, addr: u64, size: u64) -> Result<u64, MemError> {
        let page = addr / PAGE_SIZE;
        let e = self.tlb[Self::tlb_index(page)];
        let e = if e.page == page {
            // A hit proves implemented + mapped; only alignment can fail.
            self.tlb_hits += 1;
            if !aligned(addr, size) {
                return Err(MemError::Unaligned { addr, size });
            }
            e
        } else {
            // Historical error order: unimplemented, unaligned, unmapped.
            if !is_implemented(addr) {
                return Err(MemError::Unimplemented { addr });
            }
            if !aligned(addr, size) {
                return Err(MemError::Unaligned { addr, size });
            }
            self.resolve_slow(addr, false)?
        };
        let data = self.entry_bytes(e);
        let off = (addr % PAGE_SIZE) as usize;
        Ok(match size {
            8 => u64::from_le_bytes(data[off..off + 8].try_into().expect("8-byte slice")),
            4 => {
                u64::from(u32::from_le_bytes(data[off..off + 4].try_into().expect("4-byte slice")))
            }
            2 => {
                u64::from(u16::from_le_bytes(data[off..off + 2].try_into().expect("2-byte slice")))
            }
            1 => u64::from(data[off]),
            sz => {
                let mut v = 0u64;
                for i in (0..sz as usize).rev() {
                    v = (v << 8) | u64::from(data[off + i]);
                }
                v
            }
        })
    }

    /// Writes a naturally-aligned little-endian integer of `size` ∈ {1,2,4,8}
    /// bytes (value truncated to `size`).
    ///
    /// # Errors
    ///
    /// [`MemError`] on unimplemented, unmapped, or unaligned access.
    pub fn write_int(&mut self, addr: u64, size: u64, value: u64) -> Result<(), MemError> {
        let page = addr / PAGE_SIZE;
        let e = self.tlb[Self::tlb_index(page)];
        let owned = if e.page == page && e.owned != NOT_OWNED {
            // A hit on an owned page proves it is private: write straight
            // through, without touching the shared table.
            self.tlb_hits += 1;
            if !aligned(addr, size) {
                return Err(MemError::Unaligned { addr, size });
            }
            e.owned
        } else {
            if !is_implemented(addr) {
                return Err(MemError::Unimplemented { addr });
            }
            if !aligned(addr, size) {
                return Err(MemError::Unaligned { addr, size });
            }
            self.resolve_slow(addr, true)?.owned
        };
        let data = &mut self.owned[owned as usize];
        let off = (addr % PAGE_SIZE) as usize;
        match size {
            8 => data[off..off + 8].copy_from_slice(&value.to_le_bytes()),
            4 => data[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
            2 => data[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            1 => data[off] = value as u8,
            sz => {
                for i in 0..sz as usize {
                    data[off + i] = (value >> (8 * i)) as u8;
                }
            }
        }
        // Overwriting any part of a spill slot invalidates its banked NaT.
        // The empty-bank exit is not the common case: the instrumented
        // Apache guest keeps one slot banked for its whole run, so its
        // stores pay this one binary search of the sorted bank.
        if !self.spill_nat.is_empty() {
            self.set_spill_nat(addr, false);
        }
        Ok(())
    }

    /// Sets or clears the banked NaT bit of the 8-byte spill slot at `addr`
    /// (callers must have just written the slot with `write_int`).
    pub fn set_spill_nat(&mut self, addr: u64, nat: bool) {
        match (self.spill_nat.binary_search(&(addr & !7)), nat) {
            (Err(at), true) => self.spill_nat.insert(at, addr & !7),
            (Ok(at), false) => {
                self.spill_nat.remove(at);
            }
            _ => {}
        }
    }

    /// Reads the banked NaT bit of the 8-byte spill slot at `addr`
    /// (non-destructive, like `ld8.fill`).
    pub fn spill_nat(&self, addr: u64) -> bool {
        self.spill_nat.binary_search(&(addr & !7)).is_ok()
    }

    /// Reads `out.len()` bytes starting at `addr` (no alignment requirement).
    ///
    /// Runs page-span at a time; on error, spans before the faulting page
    /// have already been copied into `out` — exactly the bytes a per-byte
    /// loop would have produced, since permissions are page-granular.
    ///
    /// # Errors
    ///
    /// [`MemError`] if any byte is unimplemented or unmapped.
    pub fn read_bytes(&mut self, addr: u64, out: &mut [u8]) -> Result<(), MemError> {
        self.read_spans(addr, out.len(), |done, span| {
            out[done..done + span.len()].copy_from_slice(span);
            true
        })
    }

    /// The page-span read loop behind the bulk readers: `take(done, span)`
    /// sees the `span.len()` bytes that start `done` bytes into the range,
    /// and returns `false` to stop before the next page.
    fn read_spans(
        &mut self,
        addr: u64,
        len: usize,
        mut take: impl FnMut(usize, &[u8]) -> bool,
    ) -> Result<(), MemError> {
        let mut done = 0usize;
        while done < len {
            let a = addr.wrapping_add(done as u64);
            let off = (a % PAGE_SIZE) as usize;
            let span = (PAGE_USIZE - off).min(len - done);
            let e = self.entry_for(a, false)?;
            if !take(done, &self.entry_bytes(e)[off..off + span]) {
                break;
            }
            done += span;
        }
        Ok(())
    }

    /// Writes `data` starting at `addr` (no alignment requirement).
    ///
    /// Runs page-span at a time (one check + at most one COW fault per
    /// page); on error, spans before the faulting page
    /// have already been written, matching the per-byte loop's
    /// partial-write semantics. Banked spill NaTs inside a span are one
    /// sorted range of the bank, dropped together, so invalidation costs
    /// O(log banked slots) per span, not O(bytes written).
    ///
    /// # Errors
    ///
    /// [`MemError`] if any byte is unimplemented or unmapped.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.write_spans(addr, data.len(), |done, span| {
            span.copy_from_slice(&data[done..done + span.len()])
        })
    }

    /// Sets the `len` bytes starting at `addr` to `byte` (no alignment
    /// requirement), with [`Memory::write_bytes`]'s page-span behaviour:
    /// one check and at most one COW fault per page, banked spill NaTs in
    /// the range dropped, and spans before a faulting page already written.
    ///
    /// # Errors
    ///
    /// [`MemError`] if any byte is unimplemented or unmapped.
    pub fn fill_bytes(&mut self, addr: u64, len: usize, byte: u8) -> Result<(), MemError> {
        self.write_spans(addr, len, |_, span| span.fill(byte))
    }

    /// The page-span write loop behind the bulk writers: `fill(done, span)`
    /// writes the `span.len()` bytes that start `done` bytes into the range.
    fn write_spans(
        &mut self,
        addr: u64,
        len: usize,
        mut fill: impl FnMut(usize, &mut [u8]),
    ) -> Result<(), MemError> {
        let mut done = 0usize;
        while done < len {
            let a = addr.wrapping_add(done as u64);
            let off = (a % PAGE_SIZE) as usize;
            let span = (PAGE_USIZE - off).min(len - done);
            let owned = self.entry_for(a, true)?.owned;
            fill(done, &mut self.owned[owned as usize][off..off + span]);
            // Drop every banked spill slot the span overlaps: one sorted
            // range of the bank, found by two binary searches.
            let first = a & !7;
            let last = (a + span as u64 - 1) & !7;
            let lo = self.spill_nat.partition_point(|&s| s < first);
            let hi = self.spill_nat.partition_point(|&s| s <= last);
            self.spill_nat.drain(lo..hi);
            done += span;
        }
        Ok(())
    }

    /// Appends the `len` bytes starting at `addr` to `out` (no alignment
    /// requirement), a page span at a time, without zero-filling `out`
    /// first. `out` grows only as each span succeeds, so an oversized `len`
    /// faults at the first unmapped byte without allocating for the rest.
    /// On error `out` is left exactly as it was.
    ///
    /// # Errors
    ///
    /// [`MemError`] if any byte is unimplemented or unmapped.
    pub fn append_bytes(
        &mut self,
        addr: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), MemError> {
        let start = out.len();
        self.read_spans(addr, len, |_, span| {
            out.extend_from_slice(span);
            true
        })
        .inspect_err(|_| out.truncate(start))
    }

    /// Reads a NUL-terminated string starting at `addr`, up to `max` bytes
    /// (NUL not included in the result).
    ///
    /// # Errors
    ///
    /// [`MemError`] if the string runs off mapped memory before a NUL or
    /// before `max` bytes.
    pub fn read_cstr(&mut self, addr: u64, max: usize) -> Result<Vec<u8>, MemError> {
        let mut out = Vec::new();
        self.read_spans(addr, max, |_, span| {
            let nul = span.iter().position(|&b| b == 0);
            out.extend_from_slice(&span[..nul.unwrap_or(span.len())]);
            nul.is_none()
        })?;
        Ok(out)
    }

    /// Number of distinct pages that have been touched (diagnostics).
    /// Under sharing this counts frame *headers*, not private bytes — see
    /// [`Memory::owned_pages`] / [`Memory::shared_pages`] for the split.
    pub fn resident_pages(&self) -> usize {
        self.table.frames.len()
    }

    /// Folds the observable memory state into `h`. All-zero pages digest
    /// identically to absent ones: region 0 is lazily zero-backed, so a page
    /// a read faulted in is indistinguishable from one never touched — and
    /// sharing state (`Zero`/`Shared`/`Owned`) never enters the digest,
    /// only contents do.
    pub(crate) fn digest_into(&self, h: &mut crate::snapshot::Fnv) {
        let mut slots: Vec<(u64, usize)> = self
            .table
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !matches!(f.data, PageData::Zero)
                    && f.data.bytes(&self.owned).iter().any(|&b| b != 0)
            })
            .map(|(s, f)| (f.page, s))
            .collect();
        slots.sort_unstable();
        for (_, slot) in &slots {
            let f = &self.table.frames[*slot];
            h.word(f.page);
            h.bytes(&f.data.bytes(&self.owned)[..]);
        }
        // Domain separators keep the variable-length sections unambiguous.
        h.word(u64::MAX);
        for (first, end) in self.table.mapped.iter() {
            for page in first..end {
                h.word(page);
            }
        }
        h.word(u64::MAX);
        for &n in &self.spill_nat {
            h.word(n);
        }
    }

    /// A stable digest of the observable memory state — the memory portion
    /// of [`crate::Machine::state_digest`]. Sharing never enters it: a COW
    /// spawn and a deep copy with the same bytes digest identically.
    pub fn digest(&self) -> u64 {
        let mut h = crate::snapshot::Fnv::new();
        self.digest_into(&mut h);
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_isa::make_vaddr;

    fn mapped() -> (Memory, u64) {
        let mut m = Memory::new();
        let base = make_vaddr(1, 0x10000);
        m.map_range(base, 0x2000);
        (m, base)
    }

    #[test]
    fn int_round_trip_all_sizes() {
        let (mut m, base) = mapped();
        for (size, val) in [(1u64, 0xab), (2, 0xbeef), (4, 0xdead_beef), (8, 0x0123_4567_89ab_cdef)]
        {
            m.write_int(base, size, val).unwrap();
            assert_eq!(m.read_int(base, size).unwrap(), val);
        }
    }

    #[test]
    fn little_endian_layout() {
        let (mut m, base) = mapped();
        m.write_int(base, 8, 0x0102_0304_0506_0708).unwrap();
        let mut bytes = [0u8; 8];
        m.read_bytes(base, &mut bytes).unwrap();
        assert_eq!(bytes, [8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn unaligned_int_access_rejected() {
        let (mut m, base) = mapped();
        assert_eq!(m.read_int(base + 1, 8), Err(MemError::Unaligned { addr: base + 1, size: 8 }));
        // …but byte-granularity accessors don't require alignment.
        m.write_bytes(base + 1, &[9]).unwrap();
        // The alignment error must also fire on the TLB-hit fast path.
        m.read_int(base, 8).unwrap();
        assert_eq!(m.read_int(base + 4, 8), Err(MemError::Unaligned { addr: base + 4, size: 8 }));
        // …and on the writable-hit fast path.
        m.write_int(base, 8, 1).unwrap();
        assert_eq!(
            m.write_int(base + 4, 8, 1),
            Err(MemError::Unaligned { addr: base + 4, size: 8 })
        );
    }

    #[test]
    fn unmapped_access_rejected() {
        let mut m = Memory::new();
        let a = make_vaddr(1, 0);
        assert_eq!(m.read_int(a, 8), Err(MemError::Unmapped { addr: a }));
    }

    #[test]
    fn unimplemented_bits_rejected() {
        let mut m = Memory::new();
        let bad = (1u64 << 61) | (1 << 55);
        assert_eq!(m.read_int(bad, 8), Err(MemError::Unimplemented { addr: bad }));
    }

    #[test]
    fn region_zero_is_lazily_backed() {
        let mut m = Memory::new();
        // No explicit mapping: tag space reads as zero and accepts writes.
        let tag = make_vaddr(0, 0x1234 * 8);
        assert_eq!(m.read_int(tag, 1).unwrap(), 0);
        m.write_int(tag, 1, 0xff).unwrap();
        assert_eq!(m.read_int(tag, 1).unwrap(), 0xff);
    }

    #[test]
    fn cstr_reading() {
        let (mut m, base) = mapped();
        m.write_bytes(base, b"hello\0world").unwrap();
        assert_eq!(m.read_cstr(base, 64).unwrap(), b"hello");
        // max cap respected when no NUL found in range
        assert_eq!(m.read_cstr(base, 3).unwrap(), b"hel");
    }

    #[test]
    fn map_range_page_granularity() {
        let mut m = Memory::new();
        let base = make_vaddr(2, 0x5000);
        m.map_range(base + 10, 1);
        // Whole containing page becomes mapped.
        assert!(m.is_mapped(base));
        assert!(!m.is_mapped(base + PAGE_SIZE));
    }

    #[test]
    fn map_range_keeps_coalesced_ranges_and_allocates_nothing() {
        let mut m = Memory::new();
        let heap = crate::layout::HEAP_BASE;
        m.map_range(heap, 1 << 39);
        let (first, end) = (heap / PAGE_SIZE, (heap + (1 << 39)) / PAGE_SIZE);
        assert_eq!(m.table.mapped.iter().collect::<Vec<_>>(), [(first, end)]);
        assert_eq!((m.resident_pages(), m.owned_pages()), (0, 0));
        assert!(m.is_mapped(heap + (1 << 39) - 1) && !m.is_mapped(heap + (1 << 39)));
        // A gap keeps ranges apart; touching or overlapping ones merge.
        let page = |n: u64| heap + (1 << 39) + n * PAGE_SIZE;
        m.map_range(page(2), PAGE_SIZE);
        assert_eq!(m.table.mapped.iter().collect::<Vec<_>>(), [(first, end), (end + 2, end + 3)]);
        assert!(!m.is_mapped(page(1)) && m.is_mapped(page(2)));
        m.map_range(page(0), PAGE_SIZE + 1);
        assert_eq!(m.table.mapped.iter().collect::<Vec<_>>(), [(first, end + 3)]);
        m.map_range(heap + PAGE_SIZE, 8);
        assert_eq!(m.table.mapped.iter().collect::<Vec<_>>(), [(first, end + 3)]);
        assert_eq!((m.resident_pages(), m.owned_pages()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "unimplemented bits")]
    fn map_range_rejects_noncanonical() {
        let mut m = Memory::new();
        m.map_range((1u64 << 61) | (1 << 50), 8);
    }

    #[test]
    fn tlb_counts_hits_and_misses() {
        let (mut m, base) = mapped();
        m.write_int(base, 8, 1).unwrap();
        let (_, misses) = m.tlb_stats();
        assert!(misses >= 1);
        for i in 0..16 {
            m.read_int(base + i * 8, 8).unwrap();
        }
        let (hits, misses_after) = m.tlb_stats();
        assert!(hits >= 16, "same-page accesses must hit the TLB (hits={hits})");
        assert_eq!(misses_after, misses, "no new misses on a hot page");
    }

    #[test]
    fn tlb_invalidated_by_rollback() {
        let mut m = Memory::new();
        let base = make_vaddr(1, 0x10000);
        let ck = m.checkpoint();
        // Map + write after the checkpoint, priming the TLB for the page.
        m.map_range(base, PAGE_SIZE);
        m.write_int(base, 8, 0xdead).unwrap();
        assert!(m.is_mapped(base));
        m.rollback(&ck);
        // The mapping was revoked; a stale TLB entry must not leak through.
        assert!(!m.is_mapped(base));
        assert_eq!(m.read_int(base, 8), Err(MemError::Unmapped { addr: base }));
    }

    #[test]
    fn repeated_rollback_to_same_checkpoint() {
        let (mut m, base) = mapped();
        m.write_int(base, 8, 111).unwrap();
        let ck = m.checkpoint();
        for round in 0..3 {
            m.write_int(base, 8, 222 + round).unwrap();
            m.rollback(&ck);
            assert_eq!(m.read_int(base, 8).unwrap(), 111, "round {round}");
        }
    }

    #[test]
    fn spill_nat_survives_unrelated_stores_and_dies_on_overwrite() {
        let (mut m, base) = mapped();
        m.write_int(base, 8, 7).unwrap();
        m.set_spill_nat(base, true);
        // Store to a *different* slot: NaT survives (and the empty-bank
        // fast path is not taken, since the bank is non-empty).
        m.write_int(base + 8, 8, 9).unwrap();
        assert!(m.spill_nat(base));
        // Byte store into the slot kills it.
        m.write_bytes(base + 3, &[1]).unwrap();
        assert!(!m.spill_nat(base));
    }

    #[test]
    fn bulk_write_drops_exactly_the_banked_slots_it_overlaps() {
        let mut m = Memory::new();
        let base = make_vaddr(1, 0x10000);
        m.map_range(base, 3 * PAGE_SIZE);
        // A two-page span with ragged ends: the slots holding its first and
        // last bytes die, and so does one at its page crossing; their outer
        // neighbours survive. Random spans rarely land a banked slot on an
        // end, so the differential proptests do not pin these edges.
        let (start, len) = (base + 13, PAGE_SIZE + 20);
        let (first, last) = (start & !7, (start + len - 1) & !7);
        let slots = [first - 8, first, base + PAGE_SIZE, last, last + 8, base + 2 * PAGE_SIZE];
        for s in slots {
            m.set_spill_nat(s, true);
        }
        m.write_bytes(start, &vec![0; len as usize]).unwrap();
        let banked: Vec<bool> = slots.iter().map(|&s| m.spill_nat(s)).collect();
        assert_eq!(banked, [true, false, false, false, true, true]);
    }

    #[test]
    fn bulk_ops_cross_page_boundaries() {
        let mut m = Memory::new();
        let base = make_vaddr(1, 0x10000);
        m.map_range(base, 0x4000);
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let start = base + PAGE_SIZE - 100;
        m.write_bytes(start, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read_bytes(start, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn bulk_write_faults_at_page_boundary_with_partial_write() {
        let mut m = Memory::new();
        let base = make_vaddr(1, 0x10000);
        m.map_range(base, PAGE_SIZE); // one page only
        let data = vec![0xaa; (PAGE_SIZE + 10) as usize];
        let err = m.write_bytes(base, &data).unwrap_err();
        assert_eq!(err, MemError::Unmapped { addr: base + PAGE_SIZE });
        // The mapped prefix was written before the fault.
        assert_eq!(m.read_int(base + PAGE_SIZE - 8, 8).unwrap(), 0xaaaa_aaaa_aaaa_aaaa);
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let (mut m, base) = mapped();
        m.write_bytes(base, b"pristine").unwrap();
        m.freeze();
        assert_eq!((m.owned_pages(), m.shared_pages()), (0, 1));

        let mut a = m.clone();
        let mut b = m.clone();
        // Clones read the shared page without faulting a private copy.
        assert_eq!(a.read_int(base, 8).unwrap(), b.read_int(base, 8).unwrap());
        assert_eq!(a.owned_pages(), 0);
        assert_eq!(a.cow_faults(), 0);

        // First write COW-faults exactly one private page, leaving the
        // sibling and the origin untouched.
        a.write_int(base, 8, 0xdead).unwrap();
        assert_eq!((a.owned_pages(), a.cow_faults()), (1, 1));
        assert_eq!(a.read_int(base, 8).unwrap(), 0xdead);
        assert_eq!(&b.read_cstr(base, 16).unwrap(), b"pristine");
        assert_eq!(&m.read_cstr(base, 16).unwrap(), b"pristine");
        assert_eq!(b.owned_pages(), 0);

        // Repeat writes ride the writable TLB entry: no further faults.
        a.write_int(base + 8, 8, 1).unwrap();
        assert_eq!(a.cow_faults(), 1);
    }

    #[test]
    fn freeze_dedupes_all_zero_pages() {
        let (mut m, base) = mapped();
        // Dirty two pages, one of which ends up all-zero again.
        m.write_int(base, 8, 7).unwrap();
        m.write_int(base + PAGE_SIZE, 8, 9).unwrap();
        m.write_int(base + PAGE_SIZE, 8, 0).unwrap();
        let digest_before = {
            let mut h = crate::snapshot::Fnv::new();
            m.digest_into(&mut h);
            h.0
        };
        m.freeze();
        // The all-zero page became the canonical zero page; the non-zero
        // one became shared. Nothing observable moved.
        assert_eq!((m.owned_pages(), m.shared_pages(), m.zero_pages()), (0, 1, 1));
        let digest_after = {
            let mut h = crate::snapshot::Fnv::new();
            m.digest_into(&mut h);
            h.0
        };
        assert_eq!(digest_before, digest_after, "freeze must be digest-neutral");
        assert_eq!(m.read_int(base + PAGE_SIZE, 8).unwrap(), 0);
        assert_eq!(m.read_int(base, 8).unwrap(), 7);
    }

    #[test]
    fn lazy_reads_allocate_no_backing() {
        let mut m = Memory::new();
        let tag = make_vaddr(0, 0x9000);
        assert_eq!(m.read_int(tag, 8).unwrap(), 0);
        // The faulted-in tag page is the canonical zero page: resident as a
        // frame header, but zero private bytes.
        assert_eq!(m.resident_pages(), 1);
        assert_eq!((m.owned_pages(), m.shared_pages(), m.zero_pages()), (0, 0, 1));
        // Writing it takes the COW fault into a private page.
        m.write_int(tag, 8, 1).unwrap();
        assert_eq!((m.owned_pages(), m.zero_pages()), (1, 0));
        assert_eq!(m.cow_faults(), 1);
    }

    #[test]
    fn rollback_restores_pages_by_reference() {
        let (mut m, base) = mapped();
        m.write_bytes(base, b"origin").unwrap();
        m.freeze();
        let mut inst = m.clone();
        let ck = inst.checkpoint();
        inst.write_int(base, 8, 0xbad).unwrap();
        // The checkpoint copied the shared page by reference, not by bytes;
        // the write itself took the one COW fault.
        assert_eq!(inst.cow_faults(), 1);
        inst.rollback(&ck);
        assert_eq!(&inst.read_cstr(base, 16).unwrap(), b"origin");
        // The saved table holds the page as shared, so the rolled-back page
        // is shared again: the next write faults anew.
        inst.write_int(base, 8, 0xfeed).unwrap();
        assert_eq!(inst.cow_faults(), 2);
        assert_eq!(&m.read_cstr(base, 16).unwrap(), b"origin", "origin untouched");
    }

    #[test]
    fn rollback_keeps_owned_pages_owned() {
        let (mut m, base) = mapped();
        m.write_int(base, 8, 111).unwrap();
        let ck = m.checkpoint();
        m.write_int(base, 8, 222).unwrap();
        m.rollback(&ck);
        assert_eq!(m.read_int(base, 8).unwrap(), 111);
        // The checkpoint saved the private page by value, and the rollback
        // restored a private copy: a write after it takes no COW fault.
        assert_eq!((m.owned_pages(), m.shared_pages()), (1, 0));
        let faults = m.cow_faults();
        m.write_int(base, 8, 333).unwrap();
        assert_eq!(m.cow_faults(), faults);
    }

    /// Whether the live table is `ck`'s, by reference.
    fn table_shared_with(m: &Memory, ck: &Checkpoint) -> bool {
        Arc::ptr_eq(&m.table, &ck.table)
    }

    #[test]
    fn checkpoint_shares_the_table_until_it_changes() {
        let (mut m, base) = mapped();
        m.write_int(base, 8, 1).unwrap();
        let ck = m.checkpoint();
        assert!(table_shared_with(&m, &ck));
        // Stores to an owned page take no COW fault and leave the table
        // shared.
        m.write_int(base + 8, 8, 2).unwrap();
        m.write_bytes(base + 16, &[1, 2, 3]).unwrap();
        m.fill_bytes(base + 32, 8, 0xee).unwrap();
        assert_eq!(m.cow_faults(), 1);
        assert!(table_shared_with(&m, &ck));
        // A COW fault changes the table, which un-shares it.
        m.write_int(base + PAGE_SIZE, 8, 3).unwrap();
        assert_eq!(m.cow_faults(), 2);
        assert!(!table_shared_with(&m, &ck));
        // A new checkpoint shares it again.
        let ck = m.checkpoint();
        assert!(table_shared_with(&m, &ck));
    }

    #[test]
    fn store_after_rollback_takes_no_cow_fault() {
        let (mut m, base) = mapped();
        m.write_int(base, 8, 1).unwrap();
        let ck = m.checkpoint();
        m.write_int(base, 8, 2).unwrap();
        let (faults, misses) = (m.cow_faults(), m.tlb_stats().1);
        m.rollback(&ck);
        assert_eq!(m.read_int(base, 8).unwrap(), 1);
        m.write_int(base, 8, 3).unwrap();
        assert_eq!(m.cow_faults(), faults, "the owned page stays owned across the rollback");
        assert_eq!(m.tlb_stats().1, misses, "an unchanged table keeps its translations");
        m.rollback(&ck);
        assert_eq!(m.read_int(base, 8).unwrap(), 1, "the checkpoint is reusable");
    }

    #[test]
    fn append_bytes_spans_pages_and_leaves_output_alone_on_fault() {
        let mut m = Memory::new();
        let base = make_vaddr(1, 0x10000);
        m.map_range(base, 2 * PAGE_SIZE);
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let start = base + PAGE_SIZE - 100;
        m.write_bytes(start, &data).unwrap();
        let mut out = b"head".to_vec();
        m.append_bytes(start, data.len(), &mut out).unwrap();
        assert_eq!(&out[..4], b"head");
        assert_eq!(&out[4..], &data[..]);
        // A run into the unmapped third page faults and appends nothing.
        let before = out.clone();
        let err = m.append_bytes(base + PAGE_SIZE, PAGE_SIZE as usize + 1, &mut out).unwrap_err();
        assert_eq!(err, MemError::Unmapped { addr: base + 2 * PAGE_SIZE });
        assert_eq!(out, before);
    }

    #[test]
    fn fill_bytes_matches_write_bytes() {
        let (start, len) = (make_vaddr(0, 0x8000) + 13, PAGE_SIZE as usize + 20);
        let (mut filled, mut written) = (Memory::new(), Memory::new());
        for m in [&mut filled, &mut written] {
            m.write_int(start & !7, 8, 7).unwrap();
            m.set_spill_nat(start & !7, true);
            m.set_spill_nat(start + len as u64 + 16, true);
        }
        filled.fill_bytes(start, len, 0xff).unwrap();
        written.write_bytes(start, &vec![0xff; len]).unwrap();
        assert_eq!(filled.digest(), written.digest());
        assert_eq!(filled.cow_faults(), written.cow_faults());
        assert!(!filled.spill_nat(start & !7));
        assert!(filled.spill_nat(start + len as u64 + 16));
    }

    #[test]
    fn checkpoint_keeps_hot_translations() {
        let (mut m, base) = mapped();
        m.write_int(base, 8, 1).unwrap();
        let (_, misses) = m.tlb_stats();
        let _ck = m.checkpoint();
        m.write_int(base + 8, 8, 2).unwrap();
        assert_eq!(m.tlb_stats().1, misses, "a hot page must not miss after a checkpoint");
    }

    #[test]
    fn dirty_pages_counts_pages_a_rollback_changes() {
        let (mut m, base) = mapped();
        m.write_int(base, 8, 1).unwrap();
        let ck = m.checkpoint();
        // A read-allocated page and a rewrite with the same bytes change
        // nothing a rollback would undo.
        m.read_int(make_vaddr(0, 0x9000), 8).unwrap();
        m.write_int(base, 8, 1).unwrap();
        assert_eq!(m.dirty_pages(&ck), 0);
        m.write_int(base, 8, 2).unwrap();
        m.write_int(base + PAGE_SIZE, 8, 3).unwrap();
        assert_eq!(m.dirty_pages(&ck), 2);
        m.rollback(&ck);
        assert_eq!(m.dirty_pages(&ck), 0);
    }

    #[test]
    fn dirty_pages_counts_against_the_checkpoint_it_is_given() {
        let (mut m, base) = mapped();
        let first = m.checkpoint();
        m.write_int(base, 8, 1).unwrap();
        let second = m.checkpoint();
        m.write_int(base + PAGE_SIZE, 8, 2).unwrap();
        // Both checkpoints stay live: the first misses both writes, the
        // second only the one after it.
        assert_eq!((m.dirty_pages(&first), m.dirty_pages(&second)), (2, 1));
        m.rollback(&second);
        assert_eq!((m.dirty_pages(&first), m.dirty_pages(&second)), (1, 0));
        m.rollback(&first);
        assert_eq!((m.dirty_pages(&first), m.dirty_pages(&second)), (0, 1));
        // Either one still rolls back after the other.
        m.rollback(&second);
        assert_eq!(m.read_int(base, 8).unwrap(), 1);
        assert_eq!(m.read_int(base + PAGE_SIZE, 8).unwrap(), 0);
    }

    #[test]
    fn checkpoint_write_rollback_digest_round_trip() {
        let (mut m, base) = mapped();
        m.write_bytes(base, b"seed state").unwrap();
        m.freeze();
        let digest = |mm: &Memory| {
            let mut h = crate::snapshot::Fnv::new();
            mm.digest_into(&mut h);
            h.0
        };
        let before = digest(&m);
        let ck = m.checkpoint();
        m.write_bytes(base + 100, &[1, 2, 3]).unwrap();
        m.write_int(base + PAGE_SIZE, 8, 42).unwrap();
        assert_ne!(digest(&m), before);
        m.rollback(&ck);
        assert_eq!(digest(&m), before, "rollback must restore the exact digest");
    }
}
