//! The lexically scoped region allocator.
//!
//! Regions form a stack over a distinguished heap region: `letreg` pushes a
//! region, leaving its scope pops it, and popping frees every object inside
//! at once — the model of the RTSJ and of the Titanium allocator the paper
//! measured against. The manager tracks *total* allocated bytes and *peak
//! live* bytes; their ratio is Fig 8's "Space Usage / Total Allocation"
//! column.

use std::fmt;

/// Identifies a runtime region. Id 0 is the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl RegionId {
    /// The global heap region.
    pub const HEAP: RegionId = RegionId(0);

    /// Whether this is the heap.
    pub fn is_heap(self) -> bool {
        self == RegionId::HEAP
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_heap() {
            f.write_str("heap")
        } else {
            write!(f, "#{}", self.0)
        }
    }
}

#[derive(Debug, Clone)]
struct RegionState {
    live: bool,
    bytes: usize,
}

/// Errors from the region allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// Allocation into a region that has already been deleted.
    DeadRegion(RegionId),
    /// Pop of a region that is not the top of the stack.
    NotTopOfStack(RegionId),
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::DeadRegion(r) => write!(f, "allocation into deleted region {r}"),
            RegionError::NotTopOfStack(r) => {
                write!(f, "region {r} popped out of stack order")
            }
        }
    }
}

impl std::error::Error for RegionError {}

/// Space accounting for one program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Bytes allocated over the whole run.
    pub total_allocated: usize,
    /// Maximum simultaneously-live bytes.
    pub peak_live: usize,
    /// Number of regions ever created (excluding the heap).
    pub regions_created: usize,
    /// Number of objects allocated.
    pub objects_allocated: usize,
}

impl SpaceStats {
    /// Peak-live over total-allocated: 1.0 means no reuse at all; small
    /// values mean regions reclaimed memory aggressively (Fig 8).
    pub fn space_ratio(&self) -> f64 {
        if self.total_allocated == 0 {
            return 1.0;
        }
        self.peak_live as f64 / self.total_allocated as f64
    }
}

/// The stack-of-regions allocator.
///
/// # Examples
///
/// ```
/// use cj_runtime::region::RegionManager;
///
/// let mut mgr = RegionManager::new();
/// let r = mgr.push();
/// mgr.alloc(r, 64).unwrap();
/// mgr.pop(r).unwrap();
/// assert!(mgr.alloc(r, 8).is_err()); // deleted
/// assert_eq!(mgr.stats().peak_live, 64);
/// ```
#[derive(Debug, Clone)]
pub struct RegionManager {
    regions: Vec<RegionState>,
    stack: Vec<RegionId>,
    live_bytes: usize,
    stats: SpaceStats,
}

impl RegionManager {
    /// A fresh manager with only the heap region.
    pub fn new() -> RegionManager {
        RegionManager {
            regions: vec![RegionState {
                live: true,
                bytes: 0,
            }],
            stack: vec![RegionId::HEAP],
            live_bytes: 0,
            stats: SpaceStats::default(),
        }
    }

    /// Creates a region on top of the stack (`letreg` entry).
    pub fn push(&mut self) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(RegionState {
            live: true,
            bytes: 0,
        });
        self.stack.push(id);
        self.stats.regions_created += 1;
        id
    }

    /// Deletes the top region (`letreg` exit), freeing its contents.
    ///
    /// # Errors
    ///
    /// The deleted region must be the top of the stack (lexical scoping
    /// guarantees this for checked programs); the heap can never be
    /// popped.
    pub fn pop(&mut self, id: RegionId) -> Result<(), RegionError> {
        if id.is_heap() || self.stack.last() != Some(&id) {
            return Err(RegionError::NotTopOfStack(id));
        }
        self.stack.pop();
        let state = &mut self.regions[id.0 as usize];
        state.live = false;
        self.live_bytes -= state.bytes;
        Ok(())
    }

    /// Allocates `bytes` in `region`.
    ///
    /// # Errors
    ///
    /// Fails if the region has been deleted (a dangling allocation — never
    /// happens for well-region-typed programs).
    pub fn alloc(&mut self, region: RegionId, bytes: usize) -> Result<(), RegionError> {
        let state = &mut self.regions[region.0 as usize];
        if !state.live {
            return Err(RegionError::DeadRegion(region));
        }
        state.bytes += bytes;
        self.live_bytes += bytes;
        self.stats.total_allocated += bytes;
        self.stats.objects_allocated += 1;
        if self.live_bytes > self.stats.peak_live {
            self.stats.peak_live = self.live_bytes;
        }
        Ok(())
    }

    /// Whether `region` is still live.
    pub fn is_live(&self, region: RegionId) -> bool {
        self.regions[region.0 as usize].live
    }

    /// Current accounting.
    pub fn stats(&self) -> SpaceStats {
        self.stats
    }

    /// Currently live bytes.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Depth of the region stack (including the heap).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

impl Default for RegionManager {
    fn default() -> Self {
        RegionManager::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_discipline() {
        let mut m = RegionManager::new();
        let a = m.push();
        let b = m.push();
        assert_eq!(m.pop(a), Err(RegionError::NotTopOfStack(a)));
        m.pop(b).unwrap();
        m.pop(a).unwrap();
        assert_eq!(m.depth(), 1);
    }

    #[test]
    fn peak_tracks_maximum_live() {
        let mut m = RegionManager::new();
        let a = m.push();
        m.alloc(a, 100).unwrap();
        m.pop(a).unwrap();
        let b = m.push();
        m.alloc(b, 60).unwrap();
        m.pop(b).unwrap();
        let s = m.stats();
        assert_eq!(s.total_allocated, 160);
        assert_eq!(s.peak_live, 100);
        assert!((s.space_ratio() - 0.625).abs() < 1e-9);
    }

    #[test]
    fn heap_never_freed() {
        let mut m = RegionManager::new();
        m.alloc(RegionId::HEAP, 32).unwrap();
        assert!(m.is_live(RegionId::HEAP));
        assert_eq!(m.live_bytes(), 32);
    }

    #[test]
    fn heap_cannot_be_popped() {
        let mut m = RegionManager::new();
        assert_eq!(
            m.pop(RegionId::HEAP),
            Err(RegionError::NotTopOfStack(RegionId::HEAP))
        );
        assert!(m.is_live(RegionId::HEAP));
        assert_eq!(m.depth(), 1);
        m.alloc(RegionId::HEAP, 8).unwrap();
    }

    #[test]
    fn dead_region_rejects_alloc() {
        let mut m = RegionManager::new();
        let a = m.push();
        m.pop(a).unwrap();
        assert_eq!(m.alloc(a, 1), Err(RegionError::DeadRegion(a)));
    }

    #[test]
    fn no_allocation_means_ratio_one() {
        let m = RegionManager::new();
        assert_eq!(m.stats().space_ratio(), 1.0);
    }

    #[test]
    fn nested_regions_interleave_accounting() {
        let mut m = RegionManager::new();
        m.alloc(RegionId::HEAP, 10).unwrap();
        let a = m.push();
        m.alloc(a, 20).unwrap();
        let b = m.push();
        m.alloc(b, 30).unwrap();
        assert_eq!(m.live_bytes(), 60);
        m.pop(b).unwrap();
        assert_eq!(m.live_bytes(), 30);
        m.pop(a).unwrap();
        assert_eq!(m.live_bytes(), 10);
        assert_eq!(m.stats().peak_live, 60);
        assert_eq!(m.stats().regions_created, 2);
    }
}
