//! The VM's region heap: one bump arena of 64-bit words per live region.
//!
//! Unlike the interpreter's [`RegionManager`](cj_runtime::RegionManager),
//! which only *counts* bytes while objects live in a global store, this
//! heap holds the actual object payloads inside per-region arenas:
//! allocation bumps the owning region's word vector, and `RegPop` frees
//! every object in the region **wholesale** by clearing the arena — the
//! paper's dynamic semantics of `letreg`, executed for real.
//!
//! Space accounting reproduces the interpreter's documented size model
//! exactly (16-byte header + 8 bytes per field or element,
//! [`object_bytes`]), so [`SpaceStats`] — and with it every Fig 8 space
//! ratio — is identical across the two engines by construction.
//!
//! # Depth-indexed arenas
//!
//! Regions form a stack, so arenas live in a vector indexed by **stack
//! depth**, not by region id: slot 0 is the heap, `RegPush` takes the
//! slot just above the top, and `RegPop` clears the top slot, which
//! keeps its buffer warm for the next push at that depth (slots deeper
//! than a small bound drop theirs). A region id is a monotonic counter
//! that is never reused; the only state kept per region ever created is
//! a 4-byte id→depth entry, set to a dead marker on pop. Memory is
//! therefore O(max depth) arenas plus 4 B per region created, however
//! many regions a run churns through.
//!
//! Liveness stays exact: a reference into a popped region names the
//! region's id, whose entry stays dead forever, so it can never be
//! mistaken for a reference into the newer region that took over its
//! depth slot. Every accessor resolves its arena once — one map load,
//! then one slot index.
//!
//! # Object layout (word offsets from the object's base)
//!
//! | word | object | array |
//! |---|---|---|
//! | 0 | allocation serial | allocation serial |
//! | 1 | meta: class, #regions, #fields | meta: array bit, element tag, length |
//! | 2… | region arguments | elements (raw words) |
//! | 2+#regions… | fields (raw words) | — |

use cj_frontend::types::Prim;
use cj_runtime::region::{RegionError, RegionId, SpaceStats};
use cj_runtime::store::object_bytes;

/// The packed-reference null sentinel in `Ref` payload slots (shared
/// with the register tier in `cj-rvm`, which stores into the same
/// arenas).
pub const NULL_WORD: u64 = u64::MAX;

/// Meta-word bit marking an array.
const ARRAY_BIT: u64 = 1 << 63;

/// A runtime object reference: owning region, base word offset inside the
/// region's arena, and the allocation serial (the interpreter's `ObjId`,
/// so observable output is identical across engines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjRef {
    /// Owning region.
    pub region: u32,
    /// Base word offset within the region arena.
    pub word: u32,
    /// Allocation serial (0-based, program-wide).
    pub serial: u32,
}

#[derive(Debug, Default)]
struct Arena {
    /// Stats-model bytes currently accounted to this region.
    bytes: usize,
    words: Vec<u64>,
}

/// Upper bound on the word buffers kept warm in free depth slots.
/// Region nesting in practice is shallow (one letreg per frame plus the
/// call spine), so recycling the slots up to this depth captures nearly
/// all reuse while bounding the memory retained by a one-off burst of
/// deep nesting: a slot deeper than this drops its buffer on `RegPop`.
const POOL_LIMIT: usize = 16;

/// The id→depth entry of a region that has been popped.
const DEAD: u32 = u32::MAX;

/// The stack-of-arenas allocator. Region 0 is the heap and is never
/// freed.
#[derive(Debug)]
pub struct RegionHeap {
    /// Arenas indexed by stack depth: slot 0 is the heap, slots below
    /// `depth` are the live regions, and slots at or above it are free,
    /// keeping their cleared buffers (up to depth [`POOL_LIMIT`]) for the
    /// next `RegPush` at that depth.
    arenas: Vec<Arena>,
    /// For every region id ever created, its depth slot, or [`DEAD`]
    /// once popped. Ids are never reused, so liveness stays exact after
    /// a newer region takes over the slot.
    depth_of: Vec<u32>,
    /// Number of live regions, the heap included.
    depth: usize,
    live_bytes: usize,
    stats: SpaceStats,
    next_serial: u32,
    chunks_reused: u64,
}

impl RegionHeap {
    /// A fresh heap with only the global heap region.
    pub fn new() -> RegionHeap {
        RegionHeap {
            arenas: vec![Arena::default()],
            depth_of: vec![0],
            depth: 1,
            live_bytes: 0,
            stats: SpaceStats::default(),
            next_serial: 0,
            chunks_reused: 0,
        }
    }

    /// Creates a region on top of the stack (`RegPush`).
    pub fn push(&mut self) -> u32 {
        let id = self.depth_of.len() as u32;
        let depth = self.depth;
        match self.arenas.get(depth) {
            Some(slot) if slot.words.capacity() > 0 => self.chunks_reused += 1,
            Some(_) => {}
            None => self.arenas.push(Arena::default()),
        }
        self.depth_of.push(depth as u32);
        self.depth = depth + 1;
        self.stats.regions_created += 1;
        id
    }

    /// Deletes the top region (`RegPop`), freeing its arena wholesale.
    ///
    /// # Errors
    ///
    /// The deleted region must be the top of the stack; the heap
    /// (region 0) can never be popped.
    pub fn pop(&mut self, id: u32) -> Result<(), RegionError> {
        let top = self.depth - 1;
        if id == 0 || self.depth_of.get(id as usize) != Some(&(top as u32)) {
            return Err(RegionError::NotTopOfStack(RegionId(id)));
        }
        self.depth_of[id as usize] = DEAD;
        self.depth = top;
        // The wholesale free: every object in the region dies at once.
        // The slot keeps its buffer (cleared) for the next push at this
        // depth, so the dead arena is observably empty either way.
        let arena = &mut self.arenas[top];
        self.live_bytes -= std::mem::take(&mut arena.bytes);
        if top <= POOL_LIMIT {
            arena.words.clear();
        } else {
            arena.words = Vec::new();
        }
        Ok(())
    }

    /// How many `RegPush`es were served with a warm recycled buffer.
    pub fn chunks_reused(&self) -> u64 {
        self.chunks_reused
    }

    /// Whether `region` is still live.
    #[inline]
    pub fn is_live(&self, region: u32) -> bool {
        self.depth_of[region as usize] != DEAD
    }

    /// Current accounting (the interpreter-identical size model).
    pub fn stats(&self) -> SpaceStats {
        self.stats
    }

    /// The arena of a live `region`: one map load, one slot index.
    #[inline]
    fn arena(&self, region: u32) -> &Arena {
        &self.arenas[self.depth_of[region as usize] as usize]
    }

    #[inline]
    fn arena_mut(&mut self, region: u32) -> &mut Arena {
        &mut self.arenas[self.depth_of[region as usize] as usize]
    }

    /// Accounts `bytes` to `region` and returns its arena.
    fn account(&mut self, region: u32, bytes: usize) -> Result<&mut Arena, RegionError> {
        let depth = self.depth_of[region as usize];
        if depth == DEAD {
            return Err(RegionError::DeadRegion(RegionId(region)));
        }
        self.live_bytes += bytes;
        self.stats.total_allocated += bytes;
        self.stats.objects_allocated += 1;
        if self.live_bytes > self.stats.peak_live {
            self.stats.peak_live = self.live_bytes;
        }
        let arena = &mut self.arenas[depth as usize];
        arena.bytes += bytes;
        Ok(arena)
    }

    /// Allocates an object of `class` with the given recorded region
    /// arguments and already-encoded field words into `regions[0]`.
    ///
    /// # Errors
    ///
    /// Allocation into a deleted region.
    pub fn alloc_object(
        &mut self,
        region: u32,
        class: u32,
        regions: &[u32],
        fields: &[u64],
    ) -> Result<ObjRef, RegionError> {
        let serial = self.next_serial;
        let words = &mut self.account(region, object_bytes(fields.len()))?.words;
        let word = words.len() as u32;
        words.reserve(2 + regions.len() + fields.len());
        words.push(serial as u64);
        words.push(class as u64 | ((regions.len() as u64) << 32) | ((fields.len() as u64) << 44));
        words.extend(regions.iter().map(|&r| r as u64));
        words.extend_from_slice(fields);
        self.next_serial += 1;
        Ok(ObjRef {
            region,
            word,
            serial,
        })
    }

    /// Allocates a zero-initialized primitive array of length `len`.
    ///
    /// # Errors
    ///
    /// Allocation into a deleted region.
    pub fn alloc_array(
        &mut self,
        region: u32,
        elem: Prim,
        len: usize,
    ) -> Result<ObjRef, RegionError> {
        let serial = self.next_serial;
        let tag = match elem {
            Prim::Int => 0u64,
            Prim::Bool => 1,
            Prim::Float => 2,
        };
        let words = &mut self.account(region, object_bytes(len))?.words;
        let word = words.len() as u32;
        words.reserve(2 + len);
        words.push(serial as u64);
        words.push(ARRAY_BIT | (tag << 32) | len as u64);
        // All-zero words are the typed defaults: 0, false, 0.0.
        words.resize(words.len() + len, 0);
        self.next_serial += 1;
        Ok(ObjRef {
            region,
            word,
            serial,
        })
    }

    /// The runtime class of the object at `r` (objects only).
    #[inline]
    pub fn class_of(&self, r: ObjRef) -> u32 {
        self.arena(r.region).words[r.word as usize + 1] as u32
    }

    /// The `i`-th recorded region argument of the object at `r`, or the
    /// heap when the object records fewer.
    #[inline]
    pub fn region_arg(&self, r: ObjRef, i: usize) -> u32 {
        let words = &self.arena(r.region).words;
        let base = r.word as usize;
        if i < nregions(words[base + 1]) {
            words[base + 2 + i] as u32
        } else {
            0
        }
    }

    /// Reads field `idx` of the object at `r`.
    #[inline]
    pub fn field(&self, r: ObjRef, idx: usize) -> u64 {
        let words = &self.arena(r.region).words;
        let base = r.word as usize;
        words[base + 2 + nregions(words[base + 1]) + idx]
    }

    /// Writes field `idx` of the object at `r`.
    #[inline]
    pub fn set_field(&mut self, r: ObjRef, idx: usize, word: u64) {
        let words = &mut self.arena_mut(r.region).words;
        let base = r.word as usize;
        let at = base + 2 + nregions(words[base + 1]) + idx;
        words[at] = word;
    }

    /// Length of the array at `r`.
    #[inline]
    pub fn array_len(&self, r: ObjRef) -> usize {
        self.arena(r.region).words[r.word as usize + 1] as u32 as usize
    }

    /// Reads element `idx` of the array at `r`; `None` out of bounds.
    #[inline]
    pub fn element(&self, r: ObjRef, idx: usize) -> Option<u64> {
        let words = &self.arena(r.region).words;
        let base = r.word as usize;
        if idx >= words[base + 1] as u32 as usize {
            return None;
        }
        Some(words[base + 2 + idx])
    }

    /// Writes element `idx` of the array at `r`; `false` out of bounds.
    #[inline]
    pub fn set_element(&mut self, r: ObjRef, idx: usize, word: u64) -> bool {
        let words = &mut self.arena_mut(r.region).words;
        let base = r.word as usize;
        if idx >= words[base + 1] as u32 as usize {
            return false;
        }
        words[base + 2 + idx] = word;
        true
    }

    /// Reconstructs an [`ObjRef`] from a packed field word. The serial is
    /// read back from the object header; a reference into a deleted
    /// region gets a sentinel serial — its arena (and with it the real
    /// serial) is gone, even when a newer region now occupies its depth
    /// slot. For *checked* programs such a reference is never
    /// reachable (Theorem 1); on unchecked programs printing or
    /// returning it shows the sentinel where the interpreter's immortal
    /// store would show the original serial (see the engine-divergence
    /// note in [`crate::exec`]).
    #[inline]
    pub fn unpack_ref(&self, word: u64) -> Option<ObjRef> {
        if word == NULL_WORD {
            return None;
        }
        let region = (word >> 32) as u32;
        let at = word as u32;
        let depth = self.depth_of[region as usize];
        let serial = if depth != DEAD {
            self.arenas[depth as usize].words[at as usize] as u32
        } else {
            u32::MAX
        };
        Some(ObjRef {
            region,
            word: at,
            serial,
        })
    }
}

/// The number of recorded region arguments in an object's meta word.
#[inline]
fn nregions(meta: u64) -> usize {
    ((meta >> 32) & 0xfff) as usize
}

/// Packs a reference for storage in a `Ref` payload slot (the inverse of
/// [`RegionHeap::unpack_ref`]; public for the `cj-rvm` register tier).
#[inline]
pub fn pack_ref(r: ObjRef) -> u64 {
    ((r.region as u64) << 32) | r.word as u64
}

impl Default for RegionHeap {
    fn default() -> Self {
        RegionHeap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_match_the_interpreter_size_model() {
        let mut h = RegionHeap::new();
        let r = h.push();
        let obj = h.alloc_object(r, 3, &[r, 0], &[7, NULL_WORD]).unwrap();
        assert_eq!(h.stats().total_allocated, object_bytes(2));
        assert_eq!(h.class_of(obj), 3);
        assert_eq!(h.region_arg(obj, 0), r);
        assert_eq!(h.region_arg(obj, 1), 0);
        assert_eq!(h.region_arg(obj, 9), 0, "missing regions default to heap");
        assert_eq!(h.field(obj, 0), 7);
        h.set_field(obj, 1, 9);
        assert_eq!(h.field(obj, 1), 9);
        h.pop(r).unwrap();
        assert!(!h.is_live(r));
        assert_eq!(h.stats().peak_live, object_bytes(2));
        // Popping frees wholesale: a fresh region reuses no accounting.
        let r2 = h.push();
        assert_eq!(h.pop(r2), Ok(()));
        assert_eq!(h.stats().regions_created, 2);
    }

    #[test]
    fn arrays_round_trip_and_bound_check() {
        let mut h = RegionHeap::new();
        let a = h.alloc_array(0, Prim::Int, 3).unwrap();
        assert_eq!(h.array_len(a), 3);
        assert_eq!(h.element(a, 2), Some(0));
        assert!(h.set_element(a, 2, 42));
        assert_eq!(h.element(a, 2), Some(42));
        assert_eq!(h.element(a, 3), None);
        assert!(!h.set_element(a, 3, 1));
    }

    #[test]
    fn stack_discipline_and_dead_region_errors() {
        let mut h = RegionHeap::new();
        let a = h.push();
        let b = h.push();
        assert_eq!(h.pop(a), Err(RegionError::NotTopOfStack(RegionId(a))));
        h.pop(b).unwrap();
        h.pop(a).unwrap();
        assert_eq!(
            h.alloc_object(a, 0, &[a], &[]),
            Err(RegionError::DeadRegion(RegionId(a)))
        );
    }

    /// Warm buffers held by free depth slots (above the live top).
    fn retained_buffers(h: &RegionHeap) -> usize {
        h.arenas[h.depth..]
            .iter()
            .filter(|a| a.words.capacity() > 0)
            .count()
    }

    #[test]
    fn popped_chunks_are_recycled_bounded_and_invisible() {
        let mut h = RegionHeap::new();
        // An empty arena leaves nothing warm behind.
        let r = h.push();
        h.pop(r).unwrap();
        assert_eq!(retained_buffers(&h), 0);
        // A warm buffer stays in its slot and the next push reuses it.
        let r = h.push();
        h.alloc_object(r, 1, &[r], &[1, 2, 3]).unwrap();
        h.pop(r).unwrap();
        assert_eq!(retained_buffers(&h), 1);
        let r2 = h.push();
        assert_eq!(h.chunks_reused(), 1);
        assert_eq!(retained_buffers(&h), 0);
        // The recycled buffer starts logically empty: first allocation
        // lands at word 0 with fresh accounting, as with a new Vec.
        let obj = h.alloc_object(r2, 2, &[r2], &[9]).unwrap();
        assert_eq!(obj.word, 0);
        assert_eq!(h.field(obj, 0), 9);
        h.pop(r2).unwrap();
        // Retention never grows past its bound, however deep the burst.
        let mut held = Vec::new();
        for _ in 0..POOL_LIMIT + 8 {
            let r = h.push();
            h.alloc_object(r, 1, &[r], &[0]).unwrap();
            held.push(r);
        }
        for r in held.into_iter().rev() {
            h.pop(r).unwrap();
        }
        assert_eq!(retained_buffers(&h), POOL_LIMIT);
    }

    #[test]
    fn footprint_is_bounded_by_depth_not_by_regions_created() {
        const PAIRS: usize = 1_000_000;
        let mut h = RegionHeap::new();
        let mut ids = [0u32; 3];
        let mut i = 0;
        while h.stats().regions_created < PAIRS {
            // Nesting cycles through 1..=3 live regions above the heap.
            let nest = (1 + i % 3).min(PAIRS - h.stats().regions_created);
            for id in &mut ids[..nest] {
                *id = h.push();
            }
            if i % 7 == 0 {
                let top = ids[nest - 1];
                h.alloc_object(top, 1, &[top], &[i as u64]).unwrap();
            }
            for &r in ids[..nest].iter().rev() {
                h.pop(r).unwrap();
            }
            i += 1;
        }
        let created = h.stats().regions_created;
        assert_eq!(created, PAIRS);
        assert!(h.arenas.len() <= 4, "{} arena slots", h.arenas.len());
        // Region 0's entry is the heap's; every other one is a region
        // created by a push.
        let per_region = std::mem::size_of_val(h.depth_of.as_slice()) - 4;
        assert!(
            per_region <= 4 * created,
            "{per_region} B for {created} regions"
        );
        assert!(retained_buffers(&h) <= POOL_LIMIT);
        assert!(h.chunks_reused() > 0);
    }

    #[test]
    fn the_heap_region_cannot_be_popped() {
        let mut h = RegionHeap::new();
        assert_eq!(h.pop(0), Err(RegionError::NotTopOfStack(RegionId::HEAP)));
        assert!(h.is_live(0));
        h.alloc_object(0, 1, &[0], &[]).unwrap();
        let r = h.push();
        h.pop(r).unwrap();
        assert_eq!(h.pop(0), Err(RegionError::NotTopOfStack(RegionId::HEAP)));
        assert!(h.alloc_array(0, Prim::Int, 2).is_ok());
    }

    #[test]
    fn packed_refs_round_trip() {
        let mut h = RegionHeap::new();
        let r = h.push();
        let obj = h.alloc_object(r, 1, &[r], &[]).unwrap();
        let word = pack_ref(obj);
        assert_eq!(h.unpack_ref(word), Some(obj));
        assert_eq!(h.unpack_ref(NULL_WORD), None);
        h.pop(r).unwrap();
        let dangling = h.unpack_ref(word).unwrap();
        assert_eq!(dangling.serial, u32::MAX, "dead region hides the serial");
        // A newer region takes over the same depth slot and buffer; the
        // old reference and region id still read as dead.
        let r2 = h.push();
        let fresh = h.alloc_object(r2, 2, &[r2], &[]).unwrap();
        assert_eq!(fresh.word, obj.word, "same slot, same offset");
        assert!(!h.is_live(r));
        assert_eq!(h.unpack_ref(word), Some(dangling));
        assert_eq!(
            h.alloc_object(r, 0, &[r], &[]),
            Err(RegionError::DeadRegion(RegionId(r)))
        );
    }
}
