//! The machine: front end + processing-element array.
//!
//! [`Machine`] owns every VP set (geometry, context stack, fields) and one
//! [`Tally`] of the ops issued. All simulator operations are methods on
//! `Machine` (spread across `ops`, `news`, `router` and `scan`); each one
//! validates its operands, records itself in the tally, and then executes
//! deterministically. The cycles are `cost · tally`, the [`OpCounters`] its
//! op counts, and fuel is checked against those cycles.
//! [`Machine::reset_clock`] clears the tally and nothing else.
//!
//! # Split borrows: how hot paths avoid cloning
//!
//! The dominant per-step costs of any UC program are the router and scan
//! (the paper's §4 cost model), so those paths must not copy whole fields
//! just to satisfy the borrow checker. `Machine::split_dst` is the
//! split-borrow accessor every hot path uses: it partitions the machine's
//! storage *around* the destination field and returns
//!
//! * `&mut FieldData` for the destination, and
//! * a `Peers` view that resolves `&FieldData` for any *other* field
//!   (same or different VP set) and the current context mask of any VP
//!   set — borrowed, never cloned.
//!
//! The aliasing invariant: `Peers` refuses to resolve the destination
//! itself. An elementwise operation whose source *is* its destination
//! (e.g. `unop(Neg, d, d)`) reads that operand in place — each lane only
//! ever reads its own position (see [`crate::ops`]). An operation that
//! reads *other* lanes of its destination (an in-place NEWS shift, a
//! router op whose source or address field is its destination) first
//! copies that operand into a scratch buffer (`Machine::scratch_copy`)
//! and reads the copy. Because every alias is by definition equal to the
//! destination, at most one scratch copy is ever needed per operation.
//!
//! # The scratch arena
//!
//! `Scratch` is a per-machine pool of typed buffers (`Vec<i64>`,
//! `Vec<f64>`, `Vec<bool>`). Hot paths check
//! buffers out (`take_*`) and return them (`put_*`) around each
//! operation; [`Machine::free`] retires a field's storage into the pool
//! and [`Machine::alloc`] / [`Machine::alloc_result`] draw from it. After
//! a warm-up pass, the steady-state `send`/`get`/scan/reduce/elementwise
//! chain performs zero heap allocations (enforced by the `alloc_count`
//! integration test and a CI leg). The arena is bounded: at most
//! `MAX_POOL` parked buffers per type, and
//! [`Machine::scratch_high_water`] reports the peak number checked out at
//! once.
//!
//! A pooled buffer still holds the values of the field it last backed, so
//! the two allocations make two different promises:
//!
//! * **Storage** ([`Machine::alloc`]) reads 0 at every lane no op has
//!   written. Globals, arrays, per-VP locals and solve bitmaps need this:
//!   a program may read a lane that no statement wrote.
//! * **Results** ([`Machine::alloc_result`]) are *undefined until
//!   written*: the buffer keeps its old contents and the op that defines
//!   the field decides whether to zero it. A write that covers every lane
//!   (see [`crate::ops`]) skips the zero-fill; any other first write
//!   zero-fills first, so a lane no op wrote still reads 0. Reading an
//!   undefined field — as a source, through `int_data`/`read_elem`/
//!   `read_all`, or by `Machine::scratch_copy` — is an error, never
//!   stale data. At most one field is undefined at a time: allocating the
//!   next result first zero-fills the previous one. A failed op leaves its
//!   destination undefined.

use crate::context::ContextStack;
use crate::cost::{CostModel, OpClass, OpCounters, Tally};
use crate::field::{ElemType, Field, FieldData, FieldId};
use crate::geometry::Geometry;
use crate::{CmError, Result};

/// Handle to a VP set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VpSetId(pub(crate) usize);

/// One virtual-processor set: a geometry, an activity-mask stack, and the
/// fields allocated on it. Freed field slots are reused.
#[derive(Debug)]
pub(crate) struct VpSet {
    pub(crate) geom: Geometry,
    pub(crate) context: ContextStack,
    pub(crate) fields: Vec<Option<Field>>,
    free_slots: Vec<usize>,
}

/// Retain at most this many parked buffers per element type, so a
/// transient burst of allocations cannot pin memory forever.
pub(crate) const MAX_POOL: usize = 32;

/// Reusable scratch storage shared by every hot path of one [`Machine`].
///
/// Buffers are checked out with `take_*` and returned with `put_*`; the
/// pool keeps their capacity alive so steady-state operations allocate
/// nothing. Freed field storage is retired here too, making
/// alloc/free-heavy executor code (expression temporaries)
/// allocation-free after warm-up.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    ints: Vec<Vec<i64>>,
    floats: Vec<Vec<f64>>,
    bools: Vec<Vec<bool>>,
    /// Data buffers currently checked out.
    outstanding: usize,
    /// Peak of `outstanding` over the machine's lifetime.
    high_water: usize,
}

impl Scratch {
    fn bump(&mut self) {
        self.outstanding += 1;
        self.high_water = self.high_water.max(self.outstanding);
    }

    /// Pick the pooled buffer whose capacity best fits `len`: the smallest
    /// one that already fits, else the largest (it grows once and then
    /// fits forever). The buffer keeps the contents it was parked with.
    fn take_vec<T>(pool: &mut Vec<Vec<T>>, len: usize) -> Vec<T> {
        let rank = |v: &Vec<T>| match v.capacity() {
            c if c >= len => (false, c),
            c => (true, usize::MAX - c),
        };
        let best = (0..pool.len()).min_by_key(|&i| rank(&pool[i]));
        best.map(|i| pool.swap_remove(i)).unwrap_or_default()
    }

    /// A pooled buffer of exactly `len` elements. With `zeroed` every
    /// element is `zero`; without, the elements it already held keep their
    /// old values and only a grown tail is `zero`.
    fn take_sized<T: Clone>(pool: &mut Vec<Vec<T>>, len: usize, zero: T, zeroed: bool) -> Vec<T> {
        let mut v = Self::take_vec(pool, len);
        if zeroed {
            v.clear();
        }
        v.resize(len, zero);
        v
    }

    fn put_vec<T>(pool: &mut Vec<Vec<T>>, v: Vec<T>) {
        if pool.len() < MAX_POOL {
            pool.push(v);
        }
    }

    /// A pooled buffer holding a copy of `src`.
    fn take_copy<T: Clone>(pool: &mut Vec<Vec<T>>, src: &[T]) -> Vec<T> {
        let mut v = Self::take_vec(pool, src.len());
        v.clear();
        v.extend_from_slice(src);
        v
    }

    /// Check out a `false`-initialised bool buffer of `len` elements.
    pub(crate) fn take_bools_zeroed(&mut self, len: usize) -> Vec<bool> {
        self.bump();
        Self::take_sized(&mut self.bools, len, false, true)
    }

    pub(crate) fn put_bools(&mut self, v: Vec<bool>) {
        self.outstanding -= 1;
        Self::put_vec(&mut self.bools, v);
    }

    /// Storage of `ty` and `len`, drawn from the pool but *not* tracked as
    /// checked out: the new field owns it until [`Scratch::retire_field`]
    /// returns it. Zero-initialised when `zeroed`; otherwise it holds
    /// whatever the reused buffer held (see [`Scratch::take_sized`]).
    fn draw_field_data(&mut self, ty: ElemType, len: usize, zeroed: bool) -> FieldData {
        let Scratch { ints, floats, bools, .. } = self;
        match ty {
            ElemType::Int => FieldData::I64(Self::take_sized(ints, len, 0, zeroed)),
            ElemType::Float => FieldData::F64(Self::take_sized(floats, len, 0.0, zeroed)),
            ElemType::Bool => FieldData::Bool(Self::take_sized(bools, len, false, zeroed)),
        }
    }

    /// Check out a buffer holding a copy of `src` (the alias escape
    /// hatch: operations copy a source that *is* their destination).
    pub(crate) fn take_data_copy(&mut self, src: &FieldData) -> FieldData {
        self.bump();
        match src {
            FieldData::I64(s) => FieldData::I64(Self::take_copy(&mut self.ints, s)),
            FieldData::F64(s) => FieldData::F64(Self::take_copy(&mut self.floats, s)),
            FieldData::Bool(s) => FieldData::Bool(Self::take_copy(&mut self.bools, s)),
        }
    }

    /// Return a data buffer to the pool.
    pub(crate) fn put_data(&mut self, d: FieldData) {
        self.outstanding -= 1;
        match d {
            FieldData::I64(v) => Self::put_vec(&mut self.ints, v),
            FieldData::F64(v) => Self::put_vec(&mut self.floats, v),
            FieldData::Bool(v) => Self::put_vec(&mut self.bools, v),
        }
    }

    /// Retire a freed field: its storage returns to the pool.
    fn retire_field(&mut self, field: Field) {
        match field.data {
            FieldData::I64(v) => Self::put_vec(&mut self.ints, v),
            FieldData::F64(v) => Self::put_vec(&mut self.floats, v),
            FieldData::Bool(v) => Self::put_vec(&mut self.bools, v),
        }
    }

    fn pooled(&self) -> usize {
        self.ints.len() + self.floats.len() + self.bools.len()
    }
}

/// What reading an undefined field returns.
pub(crate) const UNDEFINED_READ: CmError =
    CmError::Unsupported("internal: read of an undefined field");

/// Which lanes of its destination an op writes, for
/// [`Machine::write_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Write {
    /// Every lane, whatever the context mask.
    All,
    /// Every active lane, from sources other than the destination: every
    /// lane when the mask is all-active.
    Active,
    /// Some lanes, or lanes computed from the destination's old values.
    Partial,
}

impl Write {
    /// [`Write::Active`], unless the op also reads its destination.
    pub(crate) fn active_unless(reads_dst: bool) -> Write {
        if reads_dst {
            Write::Partial
        } else {
            Write::Active
        }
    }
}

/// The shared-borrow side of a [`Machine::split_dst`] split: resolves any
/// field *other than the destination* and any VP set's current context
/// mask, for as long as the paired `&mut FieldData` destination borrow
/// lives.
pub(crate) struct Peers<'m> {
    below: &'m [VpSet],
    above: &'m [VpSet],
    dst_vp: usize,
    dst_index: usize,
    dset_fields_below: &'m [Option<Field>],
    dset_fields_above: &'m [Option<Field>],
    dset_context: &'m ContextStack,
    /// The machine's undefined field, which no source may read.
    undefined: Option<FieldId>,
}

impl<'m> Peers<'m> {
    fn set(&self, vp: VpSetId) -> Result<&'m VpSet> {
        if vp.0 < self.dst_vp {
            self.below.get(vp.0).ok_or(CmError::UnknownVpSet)
        } else {
            self.above
                .get(vp.0 - self.dst_vp - 1)
                .ok_or(CmError::UnknownVpSet)
        }
    }

    /// Borrow a source field's storage. The destination itself is
    /// unreachable by construction; callers de-alias via
    /// [`Machine::scratch_copy`] first, so hitting that arm is an internal
    /// bug surfaced as an error rather than unsoundness. So is reading
    /// the undefined field.
    pub(crate) fn src(&self, id: FieldId) -> Result<&'m FieldData> {
        if self.undefined == Some(id) {
            return Err(UNDEFINED_READ);
        }
        let slot = if id.vp.0 == self.dst_vp {
            match id.index.cmp(&self.dst_index) {
                std::cmp::Ordering::Equal => {
                    return Err(CmError::Unsupported("internal: source aliases destination"))
                }
                std::cmp::Ordering::Less => self.dset_fields_below.get(id.index),
                std::cmp::Ordering::Greater => {
                    self.dset_fields_above.get(id.index - self.dst_index - 1)
                }
            }
        } else {
            self.set(id.vp)?.fields.get(id.index)
        };
        slot.and_then(|f| f.as_ref())
            .map(|f| &f.data)
            .ok_or(CmError::UnknownField)
    }

    /// Borrow the current activity mask of any VP set.
    pub(crate) fn mask(&self, vp: VpSetId) -> Result<&'m [bool]> {
        if vp.0 == self.dst_vp {
            Ok(self.dset_context.current())
        } else {
            Ok(self.set(vp)?.context.current())
        }
    }
}

/// Resource budgets the machine enforces while executing.
///
/// Every limit defaults to "unlimited" so library users (tests, benches)
/// see no behaviour change; the UC executor installs real budgets from
/// `ExecLimits`. Budget traps surface as [`CmError::FuelExhausted`] /
/// [`CmError::MemoryLimitExceeded`] / [`CmError::DeadlineExceeded`] and
/// are terminal: the machine stays over budget afterwards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineLimits {
    /// Maximum simulated cycles, `cost · tally`, the machine may record
    /// (`None` = unlimited). Checked on every charged instruction.
    pub fuel: Option<u64>,
    /// Maximum bytes of live field + context-mask storage (`None` =
    /// unlimited). Charged before any storage is allocated, so a hostile
    /// geometry traps instead of OOMing the process.
    pub max_mem_bytes: Option<u64>,
}

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of physical processors (the paper's machine had 16K).
    pub phys_procs: usize,
    /// Cycle charges per instruction class.
    pub cost: CostModel,
    /// Resource budgets (all unlimited by default).
    pub limits: MachineLimits,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            phys_procs: 16 * 1024,
            cost: CostModel::default(),
            limits: MachineLimits::default(),
        }
    }
}

/// Bytes of storage one element of `ty` occupies in a field.
#[inline]
pub(crate) fn elem_bytes(ty: ElemType) -> u64 {
    match ty {
        ElemType::Int | ElemType::Float => 8,
        ElemType::Bool => 1,
    }
}

/// Bytes of storage a field occupies.
fn field_bytes(field: &Field) -> u64 {
    (field.data.len() as u64).saturating_mul(elem_bytes(field.elem_type()))
}

/// The simulated Connection Machine.
#[derive(Debug)]
pub struct Machine {
    pub(crate) config: MachineConfig,
    pub(crate) vpsets: Vec<VpSet>,
    pub(crate) scratch: Scratch,
    tally: Tally,
    /// Live field + context-mask bytes currently accounted.
    mem_bytes: u64,
    /// Armed wall-clock deadline (instant, original timeout in ms).
    deadline: Option<(std::time::Instant, u64)>,
    /// The one field allocated by [`Machine::alloc_result`] and not yet
    /// written (see the module docs).
    undefined: Option<FieldId>,
    /// Fields allocated since construction.
    fields_allocated: u64,
}

impl Machine {
    /// A machine with the default 16K-processor configuration.
    pub fn with_defaults() -> Self {
        Machine::new(MachineConfig::default())
    }

    /// A machine with an explicit configuration.
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            tally: Tally::new(config.phys_procs),
            config,
            vpsets: Vec::new(),
            scratch: Scratch::default(),
            mem_bytes: 0,
            deadline: None,
            undefined: None,
            fields_allocated: 0,
        }
    }

    /// Replace the fuel budget (`None` = unlimited). The tally is *not*
    /// reset: fuel bounds total recorded cycles.
    pub fn set_fuel(&mut self, fuel: Option<u64>) {
        self.config.limits.fuel = fuel;
    }

    /// Replace the memory budget (`None` = unlimited). Already-live
    /// storage keeps its accounting; only future allocations are checked.
    pub fn set_mem_limit(&mut self, max_mem_bytes: Option<u64>) {
        self.config.limits.max_mem_bytes = max_mem_bytes;
    }

    /// Arm a wall-clock deadline `timeout_ms` from now. Every charged
    /// instruction checks it; use [`Machine::clear_deadline`] to disarm.
    pub fn arm_deadline(&mut self, timeout_ms: u64) {
        let d = std::time::Instant::now() + std::time::Duration::from_millis(timeout_ms);
        self.deadline = Some((d, timeout_ms));
    }

    /// Disarm any armed wall-clock deadline.
    pub fn clear_deadline(&mut self) {
        self.deadline = None;
    }

    /// Check the armed deadline without charging any cycles. Front-end
    /// loops that issue no machine instructions call this each iteration
    /// so `--timeout-ms` still bounds them.
    pub fn poll_deadline(&self) -> Result<()> {
        if let Some((deadline, timeout_ms)) = self.deadline {
            if std::time::Instant::now() >= deadline {
                return Err(CmError::DeadlineExceeded { timeout_ms });
            }
        }
        Ok(())
    }

    /// Live field + context-mask bytes currently accounted against the
    /// memory budget.
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// Reserve `bytes` against the memory budget, trapping *before* any
    /// allocation happens.
    #[inline]
    pub(crate) fn charge_mem(&mut self, bytes: u64) -> Result<()> {
        let new = self.mem_bytes.saturating_add(bytes);
        if let Some(limit) = self.config.limits.max_mem_bytes.filter(|&l| new > l) {
            return Err(CmError::MemoryLimitExceeded { requested: bytes, limit });
        }
        self.mem_bytes = new;
        Ok(())
    }

    #[inline]
    pub(crate) fn release_mem(&mut self, bytes: u64) {
        self.mem_bytes = self.mem_bytes.saturating_sub(bytes);
    }

    /// Number of physical processors.
    pub fn phys_procs(&self) -> usize {
        self.config.phys_procs
    }

    /// What the machine has done since construction (or the last
    /// [`Machine::reset_clock`]).
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Elapsed cycles: `cost · tally`.
    pub fn cycles(&self) -> u64 {
        self.config.cost.cycles(&self.tally)
    }

    /// Instruction counts by class, projected from the tally.
    pub fn counters(&self) -> OpCounters {
        self.tally.counters()
    }

    /// Clear the tally (e.g. to exclude setup from a timing).
    pub fn reset_clock(&mut self) {
        self.tally = Tally::new(self.config.phys_procs);
    }

    /// Record one instruction of `class` issued to a VP set of `vp_size`,
    /// then trap if the recorded cycles exceed the fuel budget or the
    /// armed wall-clock deadline has passed. With no budgets set this is
    /// two saturating adds plus two never-taken branches — cheap enough
    /// for the zero-alloc hot paths (metering never allocates).
    #[inline]
    pub(crate) fn tick(&mut self, class: OpClass, vp_size: usize) -> Result<()> {
        self.tally.record(class, vp_size);
        if let Some(limit) = self.config.limits.fuel.filter(|&l| self.cycles() > l) {
            return Err(CmError::FuelExhausted { limit });
        }
        if let Some((deadline, timeout_ms)) = self.deadline {
            if std::time::Instant::now() >= deadline {
                return Err(CmError::DeadlineExceeded { timeout_ms });
            }
        }
        Ok(())
    }

    // ---- VP sets --------------------------------------------------------

    /// Create a VP set with the given geometry. The base context mask
    /// (one byte per VP) is charged against the memory budget *before*
    /// it is allocated, so a hostile geometry traps instead of OOMing.
    /// `name` labels the call site for its reader; the machine does not
    /// store it.
    pub fn new_vp_set(&mut self, _name: &str, dims: &[usize]) -> Result<VpSetId> {
        let geom = Geometry::new(dims)?;
        let size = geom.size();
        self.charge_mem(size as u64)?;
        self.vpsets.push(VpSet {
            geom,
            context: ContextStack::new(size),
            fields: Vec::new(),
            free_slots: Vec::new(),
        });
        Ok(VpSetId(self.vpsets.len() - 1))
    }

    pub(crate) fn vp(&self, id: VpSetId) -> Result<&VpSet> {
        self.vpsets.get(id.0).ok_or(CmError::UnknownVpSet)
    }

    pub(crate) fn vp_mut(&mut self, id: VpSetId) -> Result<&mut VpSet> {
        self.vpsets.get_mut(id.0).ok_or(CmError::UnknownVpSet)
    }

    /// Number of virtual processors in a VP set.
    pub fn vp_size(&self, id: VpSetId) -> Result<usize> {
        Ok(self.vp(id)?.geom.size())
    }

    /// The geometry of a VP set.
    pub fn geometry(&self, id: VpSetId) -> Result<&Geometry> {
        Ok(&self.vp(id)?.geom)
    }

    // ---- Split borrows and scratch --------------------------------------

    /// Split the machine's storage around `dst`: a mutable borrow of the
    /// destination field's data alongside a `Peers` view of everything
    /// else (see the module docs for the aliasing invariant).
    pub(crate) fn split_dst(&mut self, dst: FieldId) -> Result<(&mut FieldData, Peers<'_>)> {
        if dst.vp.0 >= self.vpsets.len() {
            return Err(CmError::UnknownVpSet);
        }
        let (below, rest) = self.vpsets.split_at_mut(dst.vp.0);
        let (dset, above) = rest.split_first_mut().expect("index checked");
        if dst.index >= dset.fields.len() {
            return Err(CmError::UnknownField);
        }
        let VpSet { ref mut fields, ref context, .. } = *dset;
        let (fields_below, rest) = fields.split_at_mut(dst.index);
        let (dslot, fields_above) = rest.split_first_mut().expect("index checked");
        let dst_data = match dslot.as_mut() {
            Some(f) => &mut f.data,
            None => return Err(CmError::UnknownField),
        };
        Ok((
            dst_data,
            Peers {
                below,
                above,
                dst_vp: dst.vp.0,
                dst_index: dst.index,
                dset_fields_below: fields_below,
                dset_fields_above: fields_above,
                dset_context: context,
                undefined: self.undefined,
            },
        ))
    }

    /// Copy field `id`'s data into a scratch buffer (the de-aliasing step
    /// for operations whose source is also their destination). Return the
    /// buffer with [`Scratch::put_data`] when done.
    pub(crate) fn scratch_copy(&mut self, id: FieldId) -> Result<FieldData> {
        if self.undefined == Some(id) {
            return Err(UNDEFINED_READ);
        }
        let Machine { vpsets, scratch, .. } = self;
        let src = vpsets
            .get(id.vp.0)
            .ok_or(CmError::UnknownVpSet)?
            .fields
            .get(id.index)
            .and_then(|f| f.as_ref())
            .ok_or(CmError::UnknownField)?;
        Ok(scratch.take_data_copy(&src.data))
    }

    /// Run `op`, which writes `dst` as `write` says, under the
    /// undefined-field contract. A defined `dst` runs `op` unchanged. An
    /// undefined one is zero-filled first unless the write covers every
    /// lane — [`Write::All`], or [`Write::Active`] under an all-active
    /// mask — and is defined once `op` succeeds; if `op` fails it stays
    /// undefined.
    pub(crate) fn write_with<T>(
        &mut self,
        dst: FieldId,
        write: Write,
        op: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        if self.undefined != Some(dst) {
            return op(self);
        }
        let covers = match write {
            Write::All => true,
            Write::Active => self.vp(dst.vp)?.context.all_active(),
            Write::Partial => false,
        };
        if !covers {
            self.zero_fill(dst)?;
        }
        self.undefined = None;
        let res = op(self);
        if res.is_err() {
            self.undefined = Some(dst);
        }
        res
    }

    /// Zero every lane of `id`.
    fn zero_fill(&mut self, id: FieldId) -> Result<()> {
        match &mut self.field_mut(id)?.data {
            FieldData::I64(v) => v.fill(0),
            FieldData::F64(v) => v.fill(0.0),
            FieldData::Bool(v) => v.fill(false),
        }
        Ok(())
    }

    /// Peak number of scratch buffers checked out at once. Hot paths need
    /// at most a handful (one alias copy plus one or two working buffers),
    /// so a growing high-water mark indicates a scratch leak.
    pub fn scratch_high_water(&self) -> usize {
        self.scratch.high_water
    }

    /// Number of buffers currently parked in the scratch pool (bounded by
    /// `MAX_POOL` per element type).
    pub fn scratch_pooled(&self) -> usize {
        self.scratch.pooled()
    }

    // ---- Fields ---------------------------------------------------------

    /// Allocate a storage field of `ty` on `vp`: it reads 0 at every lane
    /// no op has written, however long it lives (the zero contract of the
    /// module docs). Storage is drawn from the scratch pool when available,
    /// so alloc/free cycles settle into zero heap traffic. `name` labels
    /// the call site for its reader (`alloc_int(vp, "addr")`); the machine
    /// does not store it.
    pub fn alloc(&mut self, vp: VpSetId, _name: &str, ty: ElemType) -> Result<FieldId> {
        self.alloc_field(vp, ty, true)
    }

    /// Allocate a result field of `ty` on `vp`, *undefined until written*
    /// (the module docs' second contract). Its first write zero-fills it
    /// unless that write covers every lane, and reading it before then is
    /// an error. This is the allocation for a temporary that the very next
    /// op defines: an expression's value, an address, a mask. Any field
    /// still undefined is zero-filled first, so at most one is undefined.
    pub fn alloc_result(&mut self, vp: VpSetId, _name: &str, ty: ElemType) -> Result<FieldId> {
        if let Some(prev) = self.undefined.take() {
            self.zero_fill(prev)?;
        }
        let id = self.alloc_field(vp, ty, false)?;
        self.undefined = Some(id);
        Ok(id)
    }

    fn alloc_field(&mut self, vp: VpSetId, ty: ElemType, zeroed: bool) -> Result<FieldId> {
        let len = self.vp(vp)?.geom.size();
        self.charge_mem((len as u64).saturating_mul(elem_bytes(ty)))?;
        let field = Field { data: self.scratch.draw_field_data(ty, len, zeroed) };
        self.fields_allocated += 1;
        let set = self.vp_mut(vp)?;
        let index = if let Some(slot) = set.free_slots.pop() {
            set.fields[slot] = Some(field);
            slot
        } else {
            set.fields.push(Some(field));
            set.fields.len() - 1
        };
        Ok(FieldId { vp, index })
    }

    /// Allocate an integer field.
    pub fn alloc_int(&mut self, vp: VpSetId, name: &str) -> Result<FieldId> {
        self.alloc(vp, name, ElemType::Int)
    }

    /// Allocate a float field.
    pub fn alloc_float(&mut self, vp: VpSetId, name: &str) -> Result<FieldId> {
        self.alloc(vp, name, ElemType::Float)
    }

    /// Allocate a boolean (test/flag) field.
    pub fn alloc_bool(&mut self, vp: VpSetId, name: &str) -> Result<FieldId> {
        self.alloc(vp, name, ElemType::Bool)
    }

    /// Free a field, making its slot reusable and retiring its storage to
    /// the scratch pool. Using the id afterwards yields
    /// [`CmError::UnknownField`].
    pub fn free(&mut self, id: FieldId) -> Result<()> {
        let Machine { vpsets, scratch, undefined, .. } = self;
        let set = vpsets.get_mut(id.vp.0).ok_or(CmError::UnknownVpSet)?;
        match set.fields.get_mut(id.index) {
            Some(slot @ Some(_)) => {
                let field = slot.take().expect("slot checked");
                set.free_slots.push(id.index);
                if *undefined == Some(id) {
                    *undefined = None;
                }
                let bytes = field_bytes(&field);
                scratch.retire_field(field);
                self.release_mem(bytes);
                Ok(())
            }
            _ => Err(CmError::UnknownField),
        }
    }

    /// Free every field `keep` rejects and pop every VP set's masks to its
    /// base: the machine as its client built it, whatever a failed
    /// computation left behind. Host-side and uncharged.
    pub fn retain(&mut self, keep: impl Fn(FieldId) -> bool) {
        for v in 0..self.vpsets.len() {
            for index in 0..self.vpsets[v].fields.len() {
                let id = FieldId { vp: VpSetId(v), index };
                if self.field(id).is_ok() && !keep(id) {
                    let _ = self.free(id);
                }
            }
            while self.vpsets[v].context.pop().is_ok() {}
        }
        // What stays charged: each set's base mask and the kept fields.
        let live = |s: &VpSet| s.fields.iter().flatten().map(field_bytes).sum::<u64>();
        self.mem_bytes = self.vpsets.iter().map(|s| s.geom.size() as u64 + live(s)).sum();
    }

    /// A field's metadata (type, length), readable defined or not. Reads
    /// of its values go through [`Machine::data`].
    pub(crate) fn field(&self, id: FieldId) -> Result<&Field> {
        self.vp(id.vp)?
            .fields
            .get(id.index)
            .and_then(|f| f.as_ref())
            .ok_or(CmError::UnknownField)
    }

    pub(crate) fn field_mut(&mut self, id: FieldId) -> Result<&mut Field> {
        self.vp_mut(id.vp)?
            .fields
            .get_mut(id.index)
            .and_then(|f| f.as_mut())
            .ok_or(CmError::UnknownField)
    }

    /// A field's values, for a read: the undefined field is an error.
    pub(crate) fn data(&self, id: FieldId) -> Result<&FieldData> {
        if self.undefined == Some(id) {
            return Err(UNDEFINED_READ);
        }
        Ok(&self.field(id)?.data)
    }

    /// Element type of a field.
    pub fn elem_type(&self, id: FieldId) -> Result<ElemType> {
        Ok(self.field(id)?.elem_type())
    }

    /// Number of live (allocated, un-freed) fields across all VP sets.
    /// Useful for leak tests: a well-behaved client's live count is
    /// bounded over repeated operations.
    pub fn live_fields(&self) -> usize {
        self.vpsets
            .iter()
            .map(|s| s.fields.iter().filter(|f| f.is_some()).count())
            .sum()
    }

    /// Fields allocated since construction, storage and results alike:
    /// beside [`Machine::live_fields`], what a client's temporaries cost
    /// (a field read in place is one it did not allocate).
    pub fn fields_allocated(&self) -> u64 {
        self.fields_allocated
    }

    /// Borrow an int field's storage (front-end inspection; not charged).
    pub fn int_data(&self, id: FieldId) -> Result<&[i64]> {
        match self.data(id)? {
            FieldData::I64(v) => Ok(v),
            other => {
                Err(CmError::TypeMismatch { expected: ElemType::Int, found: other.elem_type() })
            }
        }
    }

    /// Borrow a float field's storage (front-end inspection; not charged).
    pub fn float_data(&self, id: FieldId) -> Result<&[f64]> {
        match self.data(id)? {
            FieldData::F64(v) => Ok(v),
            other => {
                Err(CmError::TypeMismatch { expected: ElemType::Float, found: other.elem_type() })
            }
        }
    }

    /// Borrow a bool field's storage (front-end inspection; not charged).
    pub fn bool_data(&self, id: FieldId) -> Result<&[bool]> {
        match self.data(id)? {
            FieldData::Bool(v) => Ok(v),
            other => {
                Err(CmError::TypeMismatch { expected: ElemType::Bool, found: other.elem_type() })
            }
        }
    }

    /// Snapshot a field's storage (a front-end bulk read; charged as one
    /// front-end op). A host that only inspects a field borrows it through
    /// [`Machine::int_data`] and its siblings instead, uncharged.
    pub fn read_all(&mut self, id: FieldId) -> Result<FieldData> {
        let data = self.data(id)?.clone();
        self.tick(OpClass::FrontEnd, data.len())?;
        Ok(data)
    }

    /// Overwrite a field's storage wholesale (front-end bulk write). The
    /// data must match the field's type and the VP-set size. The context
    /// mask is *ignored*, like `write_elem`: this models front-end DMA.
    pub fn write_all(&mut self, id: FieldId, data: FieldData) -> Result<()> {
        let len = self.vp(id.vp)?.geom.size();
        let field = self.field(id)?;
        if field.elem_type() != data.elem_type() {
            return Err(CmError::TypeMismatch {
                expected: field.elem_type(),
                found: data.elem_type(),
            });
        }
        if data.len() != len {
            return Err(CmError::VpSetMismatch);
        }
        self.write_with(id, Write::All, |m| {
            m.field_mut(id)?.data = data;
            m.tick(OpClass::FrontEnd, len)
        })
    }

    // ---- Context --------------------------------------------------------

    /// Push `mask AND current` as the activity mask of `vp`. `mask` must be
    /// a bool field on `vp`. The new mask (one byte per VP) is charged
    /// against the memory budget.
    pub fn push_context(&mut self, mask: FieldId) -> Result<()> {
        let size = self.charged_push(mask, false)?;
        self.tick(OpClass::Context, size)
    }

    /// Push the `others` complement of `mask` within the enclosing context.
    pub fn push_context_others(&mut self, mask: FieldId) -> Result<()> {
        let size = self.charged_push(mask, true)?;
        self.tick(OpClass::Context, size)
    }

    /// Charge the memory budget for one context level, then push it;
    /// the charge is rolled back if the push itself fails.
    fn charged_push(&mut self, mask: FieldId, others: bool) -> Result<usize> {
        let size = self.vp(mask.vp)?.geom.size();
        self.charge_mem(size as u64)?;
        match self.push_ctx_inner(mask, others) {
            Ok(size) => Ok(size),
            Err(e) => {
                self.release_mem(size as u64);
                Err(e)
            }
        }
    }

    /// Shared body of the two context pushes: borrows the mask field's bits
    /// directly while mutating the same VP set's context stack (disjoint
    /// struct fields), avoiding the former `to_vec()` of the mask.
    fn push_ctx_inner(&mut self, mask: FieldId, others: bool) -> Result<usize> {
        if self.undefined == Some(mask) {
            return Err(UNDEFINED_READ);
        }
        let set = self
            .vpsets
            .get_mut(mask.vp.0)
            .ok_or(CmError::UnknownVpSet)?;
        let VpSet { ref fields, ref mut context, .. } = *set;
        let field = fields
            .get(mask.index)
            .and_then(|f| f.as_ref())
            .ok_or(CmError::UnknownField)?;
        let bits = match &field.data {
            FieldData::Bool(v) => v.as_slice(),
            other => {
                return Err(CmError::TypeMismatch {
                    expected: ElemType::Bool,
                    found: other.elem_type(),
                })
            }
        };
        if others {
            context.push_others(bits)?;
        } else {
            context.push_and(bits)?;
        }
        Ok(bits.len())
    }

    /// Set `vp`'s activity masks aside for a fresh all-active stack until
    /// [`Machine::restore_context`] puts them back. Host-side and
    /// uncharged: what runs meanwhile starts from the base context.
    pub fn hide_context(&mut self, vp: VpSetId) -> Result<ContextStack> {
        let base = ContextStack::new(self.vp(vp)?.geom.size());
        Ok(std::mem::replace(&mut self.vp_mut(vp)?.context, base))
    }

    /// Put back the masks [`Machine::hide_context`] set aside.
    pub fn restore_context(&mut self, vp: VpSetId, masks: ContextStack) -> Result<()> {
        self.vp_mut(vp)?.context = masks;
        Ok(())
    }

    /// Pop the innermost activity mask of `vp`.
    pub fn pop_context(&mut self, vp: VpSetId) -> Result<()> {
        let size = self.vp(vp)?.geom.size();
        self.vp_mut(vp)?.context.pop()?;
        self.release_mem(size as u64);
        self.tick(OpClass::Context, size)
    }

    /// Number of active VPs under the current mask (a global-OR style
    /// front-end test; charged as a scan).
    pub fn active_count(&mut self, vp: VpSetId) -> Result<usize> {
        let size = self.vp(vp)?.geom.size();
        self.tick(OpClass::Scan, size)?;
        Ok(self.vp(vp)?.context.active_count())
    }

    /// Whether any VP is active (the CM global-OR wire).
    pub fn any_active(&mut self, vp: VpSetId) -> Result<bool> {
        let size = self.vp(vp)?.geom.size();
        self.tick(OpClass::Scan, size)?;
        Ok(self.vp(vp)?.context.any_active())
    }

    /// Current context nesting depth (including the base mask).
    pub fn context_depth(&self, vp: VpSetId) -> Result<usize> {
        Ok(self.vp(vp)?.context.depth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vp_set_lifecycle() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("grid", &[4, 4]).unwrap();
        assert_eq!(m.vp_size(vp).unwrap(), 16);
        assert_eq!(m.geometry(vp).unwrap().rank(), 2);
        assert!(m.new_vp_set("bad", &[0]).is_err());
    }

    #[test]
    fn field_alloc_free_reuse() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[8]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let b = m.alloc_float(vp, "b").unwrap();
        assert_eq!(m.elem_type(a).unwrap(), ElemType::Int);
        assert_eq!(m.elem_type(b).unwrap(), ElemType::Float);
        m.free(a).unwrap();
        assert_eq!(m.elem_type(a), Err(CmError::UnknownField));
        // Double free of a freed handle is rejected.
        assert!(m.free(a).is_err());
        // Slot is reused by the next allocation.
        let c = m.alloc_bool(vp, "c").unwrap();
        assert_eq!(c.index, a.index);
        assert_eq!(m.elem_type(c).unwrap(), ElemType::Bool);
    }

    #[test]
    fn read_write_all_roundtrip() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[4]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        m.write_all(a, FieldData::I64(vec![5, 6, 7, 8])).unwrap();
        assert_eq!(m.read_all(a).unwrap(), FieldData::I64(vec![5, 6, 7, 8]));
        // Wrong type and wrong length are rejected.
        assert!(m.write_all(a, FieldData::F64(vec![0.0; 4])).is_err());
        assert!(m.write_all(a, FieldData::I64(vec![0; 3])).is_err());
    }

    #[test]
    fn context_push_pop_counts() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[4]).unwrap();
        let mask = m.alloc_bool(vp, "m").unwrap();
        m.write_all(mask, FieldData::Bool(vec![true, false, true, false])).unwrap();
        m.push_context(mask).unwrap();
        assert_eq!(m.active_count(vp).unwrap(), 2);
        assert!(m.any_active(vp).unwrap());
        m.push_context_others(mask).unwrap();
        assert_eq!(m.active_count(vp).unwrap(), 0);
        m.pop_context(vp).unwrap();
        m.pop_context(vp).unwrap();
        assert_eq!(m.pop_context(vp), Err(CmError::ContextUnderflow));
    }

    #[test]
    fn retain_restores_the_built_state_uncharged() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[4]).unwrap();
        let keep = m.alloc_int(vp, "keep").unwrap();
        let built = m.mem_bytes();
        let mask = m.alloc_bool(vp, "m").unwrap();
        m.write_all(mask, FieldData::Bool(vec![true, false, true, false])).unwrap();
        m.push_context(mask).unwrap();
        let _ = m.alloc_result(vp, "undefined", ElemType::Int).unwrap();
        let hidden = m.hide_context(vp).unwrap();
        m.push_context(mask).unwrap();
        let tally = *m.tally();
        m.retain(|f| f == keep);
        assert_eq!((m.live_fields(), m.mem_bytes(), m.context_depth(vp)), (1, built, Ok(1)));
        assert_eq!(*m.tally(), tally, "retain is uncharged");
        assert_eq!(m.active_count(vp).unwrap(), 4);
        // Hidden masks come back as they were.
        m.restore_context(vp, hidden).unwrap();
        assert_eq!((m.context_depth(vp), m.active_count(vp)), (Ok(2), Ok(2)));
    }

    #[test]
    fn clock_advances_and_resets() {
        let mut m = Machine::with_defaults();
        let vp = m.new_vp_set("v", &[4]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        assert_eq!(m.cycles(), 0);
        m.read_all(a).unwrap();
        assert!(m.cycles() > 0);
        assert_eq!(m.counters().front_end, 1);
        assert_eq!(m.cycles(), m.config.cost.cycles(m.tally()));
        m.reset_clock();
        assert_eq!(m.cycles(), 0);
        assert_eq!(m.counters().total(), 0);
    }

    #[test]
    fn cross_machine_ids_fail_cleanly() {
        let mut m1 = Machine::with_defaults();
        let _ = m1.new_vp_set("v", &[4]).unwrap();
        let m2 = Machine::with_defaults();
        assert!(m2.vp(VpSetId(0)).is_err());
    }
}
