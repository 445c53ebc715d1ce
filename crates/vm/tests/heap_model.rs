//! Model-based test of the VM's region heap against the interpreter's
//! allocator.
//!
//! Random push / pop / alloc / field-write / unpack sequences run on
//! [`RegionHeap`] and, as the oracle, on [`RegionManager`]: both must
//! agree on every region id, every error variant, per-id liveness after
//! each step, and the full [`SpaceStats`]. A shadow copy of every
//! allocated payload checks that recycled depth slots never leak one
//! region's words into another. Each case opens with the depth-slot
//! hazard: a region is popped and a newer one pushed at the same depth,
//! after which the old region's id and a packed reference into it must
//! still read as dead.
//!
//! [`SpaceStats`]: cj_runtime::SpaceStats

use cj_frontend::types::Prim;
use cj_runtime::region::{RegionError, RegionId, RegionManager};
use cj_runtime::store::object_bytes;
use cj_vm::heap::{pack_ref, ObjRef, RegionHeap};
use proptest::prelude::*;
use proptest::TestCaseError;

#[derive(Debug, Clone)]
enum HeapOp {
    Push,
    /// Pop the current top (the heap when nothing is pushed).
    PopTop,
    /// Pop an arbitrary id ever created (usually not the top).
    PopAny(usize),
    /// Allocate an object with `n` fields into a live region.
    AllocLive(usize, usize),
    /// Allocate an object into an arbitrary id ever created.
    AllocAny(usize, usize),
    /// Allocate an int array of the given length into any id.
    AllocArray(usize, usize),
    /// Write field / element `k` of an allocated object in a live region.
    Write(usize, usize, u64),
    /// Unpack a packed reference to any object ever allocated.
    Unpack(usize),
}

fn arb_heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        Just(HeapOp::Push),
        Just(HeapOp::Push),
        Just(HeapOp::PopTop),
        any::<usize>().prop_map(HeapOp::PopAny),
        (any::<usize>(), 0usize..4).prop_map(|(r, n)| HeapOp::AllocLive(r, n)),
        (any::<usize>(), 0usize..4).prop_map(|(r, n)| HeapOp::AllocAny(r, n)),
        (any::<usize>(), 0usize..4).prop_map(|(r, n)| HeapOp::AllocArray(r, n)),
        (any::<usize>(), 0usize..4, any::<u64>()).prop_map(|(o, k, v)| HeapOp::Write(o, k, v)),
        any::<usize>().prop_map(HeapOp::Unpack),
    ]
}

/// An allocated object or array and the payload words it should hold.
struct Shadow {
    obj: ObjRef,
    array: bool,
    words: Vec<u64>,
}

/// The heap, its oracle, and the shadow payloads, stepped in lockstep.
struct Model {
    heap: RegionHeap,
    oracle: RegionManager,
    /// Live region ids, bottom (the heap) to top.
    live: Vec<u32>,
    /// Ids ever created, the heap included.
    created: u32,
    objects: Vec<Shadow>,
}

impl Model {
    fn new() -> Model {
        Model {
            heap: RegionHeap::new(),
            oracle: RegionManager::new(),
            live: vec![0],
            created: 1,
            objects: Vec::new(),
        }
    }

    fn push(&mut self) -> Result<u32, TestCaseError> {
        let id = self.heap.push();
        prop_assert_eq!(RegionId(id), self.oracle.push());
        self.live.push(id);
        self.created += 1;
        Ok(id)
    }

    fn pop(&mut self, id: u32) -> Result<(), TestCaseError> {
        let got = self.heap.pop(id);
        prop_assert_eq!(&got, &self.oracle.pop(RegionId(id)), "pop {}", id);
        if got.is_ok() {
            prop_assert_eq!(self.live.pop(), Some(id));
        }
        Ok(())
    }

    fn alloc(&mut self, region: u32, fields: &[u64]) -> Result<(), TestCaseError> {
        let got = self.heap.alloc_object(region, 7, &[region], fields);
        let want = self
            .oracle
            .alloc(RegionId(region), object_bytes(fields.len()));
        self.record(got, want, false, fields.to_vec())
    }

    fn alloc_array(&mut self, region: u32, len: usize) -> Result<(), TestCaseError> {
        let got = self.heap.alloc_array(region, Prim::Int, len);
        let want = self.oracle.alloc(RegionId(region), object_bytes(len));
        self.record(got, want, true, vec![0; len])
    }

    fn record(
        &mut self,
        got: Result<ObjRef, RegionError>,
        want: Result<(), RegionError>,
        array: bool,
        words: Vec<u64>,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.clone().map(|_| ()), want);
        if let Ok(obj) = got {
            prop_assert_eq!(obj.serial as usize, self.objects.len(), "serials are dense");
            self.objects.push(Shadow { obj, array, words });
        }
        Ok(())
    }

    fn write(&mut self, which: usize, k: usize, value: u64) -> Result<(), TestCaseError> {
        let Some(s) = self.objects.get_mut(which) else {
            return Ok(());
        };
        if !self.oracle.is_live(RegionId(s.obj.region)) || k >= s.words.len() {
            return Ok(());
        }
        if s.array {
            prop_assert!(self.heap.set_element(s.obj, k, value));
        } else {
            self.heap.set_field(s.obj, k, value);
        }
        s.words[k] = value;
        Ok(())
    }

    fn unpack(&self, which: usize) -> Result<(), TestCaseError> {
        let Some(s) = self.objects.get(which) else {
            return Ok(());
        };
        let r = self.heap.unpack_ref(pack_ref(s.obj)).expect("non-null");
        prop_assert_eq!((r.region, r.word), (s.obj.region, s.obj.word));
        if self.oracle.is_live(RegionId(s.obj.region)) {
            prop_assert_eq!(r.serial, s.obj.serial);
        } else {
            prop_assert_eq!(r.serial, u32::MAX, "a dead region hides the serial");
        }
        Ok(())
    }

    /// Liveness of every id, stats, and every live payload agree.
    fn check(&self) -> Result<(), TestCaseError> {
        for id in 0..self.created {
            prop_assert_eq!(
                self.heap.is_live(id),
                self.oracle.is_live(RegionId(id)),
                "liveness of region {}",
                id
            );
        }
        prop_assert_eq!(self.heap.stats(), self.oracle.stats());
        for s in &self.objects {
            if !self.heap.is_live(s.obj.region) {
                continue;
            }
            if s.array {
                prop_assert_eq!(self.heap.array_len(s.obj), s.words.len());
            } else {
                prop_assert_eq!(self.heap.class_of(s.obj), 7);
                prop_assert_eq!(self.heap.region_arg(s.obj, 0), s.obj.region);
            }
            for (k, &w) in s.words.iter().enumerate() {
                let got = if s.array {
                    self.heap.element(s.obj, k)
                } else {
                    Some(self.heap.field(s.obj, k))
                };
                prop_assert_eq!(got, Some(w), "word {} of serial {}", k, s.obj.serial);
            }
        }
        Ok(())
    }

    fn step(&mut self, op: &HeapOp) -> Result<(), TestCaseError> {
        let any_id = |sel: usize| (sel % self.created as usize) as u32;
        match *op {
            HeapOp::Push => {
                self.push()?;
            }
            HeapOp::PopTop => self.pop(*self.live.last().expect("heap"))?,
            HeapOp::PopAny(sel) => self.pop(any_id(sel))?,
            HeapOp::AllocLive(sel, n) => {
                let region = self.live[sel % self.live.len()];
                self.alloc(region, &vec![sel as u64; n])?;
            }
            HeapOp::AllocAny(sel, n) => self.alloc(any_id(sel), &vec![n as u64; n])?,
            HeapOp::AllocArray(sel, n) => self.alloc_array(any_id(sel), n)?,
            HeapOp::Write(which, k, v) => self.write(which, k, v)?,
            HeapOp::Unpack(which) => self.unpack(which)?,
        }
        self.check()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        ..ProptestConfig::default()
    })]

    #[test]
    fn region_heap_matches_the_region_manager(
        ops in proptest::collection::vec(arb_heap_op(), 0..64),
    ) {
        let mut m = Model::new();
        // The depth-slot hazard: `old` and `new` share a depth slot.
        let old = m.push()?;
        m.alloc(old, &[1, 2])?;
        m.pop(old)?;
        let new = m.push()?;
        m.alloc(new, &[3])?;
        m.check()?;
        m.unpack(0)?;
        prop_assert_eq!(
            m.heap.alloc_object(old, 0, &[old], &[]),
            Err(RegionError::DeadRegion(RegionId(old)))
        );
        prop_assert_eq!(
            m.oracle.alloc(RegionId(old), 0),
            Err(RegionError::DeadRegion(RegionId(old)))
        );
        for op in &ops {
            m.step(op)?;
        }
        // However the run went, the first region and its object stay dead.
        prop_assert!(!m.heap.is_live(old));
        m.unpack(0)?;
    }
}
