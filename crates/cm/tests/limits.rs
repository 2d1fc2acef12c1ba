//! Resource budgets: fuel, memory and wall-clock deadlines.
//!
//! Budget semantics under test:
//!
//! * fuel — spending *exactly* the budget succeeds; the first charge
//!   past it traps, and a zero budget traps on the first charged op;
//! * memory — live field + context bytes are charged before allocation
//!   and released on free, so budgets bound the high-water mark;
//! * deadline — armed per run, checked on every charged instruction and
//!   pollable without charging;
//! * the tally — the machine's cycles are `cost · tally`, equal to the sum
//!   of every op's own `vp_ratio × c_class`, and one tally re-costs under
//!   any cost model to what re-running on a machine with that model gives.

use uc_cm::{
    cost::{CostModel, OpClass},
    news::Border,
    ops::BinOp,
    CmError, FieldId, Machine, MachineConfig, MachineLimits, ReduceOp, Scalar, VpSetId,
};

fn limited(fuel: Option<u64>, mem: Option<u64>) -> Machine {
    Machine::new(MachineConfig {
        limits: MachineLimits { fuel, max_mem_bytes: mem },
        ..MachineConfig::default()
    })
}

/// Cycles a fixed op sequence costs, measured on an unlimited machine.
fn sequence_cost() -> u64 {
    let mut m = Machine::with_defaults();
    run_sequence(&mut m).unwrap();
    m.cycles()
}

fn run_sequence(m: &mut Machine) -> uc_cm::Result<Scalar> {
    let vp = m.new_vp_set("v", &[256])?;
    let a = m.alloc_int(vp, "a")?;
    m.iota(a)?;
    m.binop_imm(BinOp::Mul, a, a, 3.into())?;
    m.reduce(a, uc_cm::ReduceOp::Add)
}

#[test]
fn exact_fuel_budget_succeeds() {
    let cost = sequence_cost();
    let mut m = limited(Some(cost), None);
    let s = run_sequence(&mut m).expect("spending exactly the budget is fine");
    assert_eq!(s, Scalar::Int((0..256).map(|i| 3 * i).sum()));
    assert_eq!(m.cycles(), cost);
}

#[test]
fn one_cycle_under_budget_traps() {
    let cost = sequence_cost();
    let mut m = limited(Some(cost - 1), None);
    let err = run_sequence(&mut m).expect_err("one cycle short must trap");
    assert_eq!(err, CmError::FuelExhausted { limit: cost - 1 });
    assert!(err.is_budget());
    assert!(err.to_string().contains("budget exceeded"), "{err}");
}

#[test]
fn zero_fuel_traps_on_first_charged_op() {
    let mut m = limited(Some(0), None);
    let err = run_sequence(&mut m).expect_err("zero budget");
    assert!(matches!(err, CmError::FuelExhausted { limit: 0 }));
}

#[test]
fn set_fuel_at_runtime() {
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("v", &[64]).unwrap();
    let a = m.alloc_int(vp, "a").unwrap();
    m.iota(a).unwrap();
    // Already over any tiny budget: the very next charged op traps.
    m.set_fuel(Some(1));
    let err = m.binop_imm(BinOp::Add, a, a, 1.into());
    assert!(matches!(err, Err(CmError::FuelExhausted { .. })), "{err:?}");
    // Lifting the budget un-wedges the machine.
    m.set_fuel(None);
    assert!(m.binop_imm(BinOp::Add, a, a, 1.into()).is_ok());
}

#[test]
fn memory_budget_blocks_allocation() {
    // 256 VPs: the base context mask costs 256 bytes, an int field 2048.
    let mut m = limited(None, Some(1024));
    let vp = m.new_vp_set("v", &[256]).expect("mask fits");
    let err = m.alloc_int(vp, "a").expect_err("2 KiB field over a 1 KiB budget");
    assert!(matches!(err, CmError::MemoryLimitExceeded { requested: 2048, .. }), "{err:?}");
    assert!(err.is_budget());
    assert!(err.to_string().contains("budget exceeded"), "{err}");
}

#[test]
fn freeing_releases_budget() {
    let mut m = limited(None, Some(4096));
    let vp = m.new_vp_set("v", &[256]).unwrap();
    let a = m.alloc_int(vp, "a").unwrap(); // 256 + 2048 live
    assert!(m.alloc_int(vp, "b").is_err()); // +2048 would exceed
    m.free(a).unwrap();
    let b = m.alloc_int(vp, "b").expect("freed bytes are reusable");
    assert_eq!(m.mem_bytes(), 256 + 2048);
    m.free(b).unwrap();
    assert_eq!(m.mem_bytes(), 256);
}

#[test]
fn bool_fields_cost_one_byte_per_vp() {
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("v", &[100]).unwrap();
    let base = m.mem_bytes();
    let f = m.alloc_bool(vp, "f").unwrap();
    assert_eq!(m.mem_bytes() - base, 100);
    m.free(f).unwrap();
    assert_eq!(m.mem_bytes(), base);
}

#[test]
fn context_masks_are_charged_and_released() {
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("v", &[128]).unwrap();
    let mask = m.alloc_bool(vp, "m").unwrap();
    m.fill_unconditional(mask, Scalar::Bool(true)).unwrap();
    let before = m.mem_bytes();
    m.push_context(mask).unwrap();
    assert_eq!(m.mem_bytes() - before, 128);
    m.pop_context(vp).unwrap();
    assert_eq!(m.mem_bytes(), before);
}

#[test]
fn expired_deadline_traps_next_tick() {
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("v", &[16]).unwrap();
    let a = m.alloc_int(vp, "a").unwrap();
    m.arm_deadline(0);
    std::thread::sleep(std::time::Duration::from_millis(2));
    let err = m.iota(a).expect_err("deadline passed");
    assert_eq!(err, CmError::DeadlineExceeded { timeout_ms: 0 });
    assert!(err.is_budget());
    assert!(err.to_string().contains("budget exceeded"), "{err}");
    assert!(m.poll_deadline().is_err());
    m.clear_deadline();
    assert!(m.poll_deadline().is_ok());
    assert!(m.iota(a).is_ok());
}

#[test]
fn unarmed_deadline_never_fires() {
    let m = Machine::with_defaults();
    assert!(m.poll_deadline().is_ok());
}

#[test]
fn fuel_checks_cover_every_op_class() {
    // Drive one op of each class on a fuel-0 machine that was granted
    // just enough to set up, then starved: every class must trap.
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("v", &[64, 64]).unwrap();
    let a = m.alloc_int(vp, "a").unwrap();
    let b = m.alloc_int(vp, "b").unwrap();
    m.iota(a).unwrap();
    m.set_fuel(Some(m.cycles()));
    // Clock == fuel: everything charged from here on is over budget.
    for (what, err) in [
        ("alu", m.binop_imm(BinOp::Add, b, a, 1.into()).err()),
        ("news", m.news_shift(b, a, 0, 1, uc_cm::news::Border::Wrap).err()),
        ("scan", m.reduce(a, uc_cm::ReduceOp::Add).map(|_| ()).err()),
        ("front-end", m.read_elem(a, 0).map(|_| ()).err()),
    ] {
        assert!(
            matches!(err, Some(CmError::FuelExhausted { .. })),
            "{what} must respect fuel, got {err:?}"
        );
    }
}

/// An immediate op is charged as what the front end does — broadcast the
/// scalar, then run the op — whether or not the host materialises the
/// broadcast: two `Alu` instructions, and fuel can run out between them.
#[test]
fn binop_imm_costs_two_alu_ticks_at_the_fuel_boundary() {
    let setup = |fuel: Option<u64>| {
        let mut m = limited(None, None);
        let vp = m.new_vp_set("v", &[256]).unwrap();
        let a = m.alloc_int(vp, "a").unwrap();
        let d = m.alloc_int(vp, "d").unwrap();
        m.iota(a).unwrap();
        let start = m.cycles();
        m.set_fuel(fuel.map(|f| start + f));
        (m, a, d, start)
    };
    let (mut m, a, d, start) = setup(None);
    m.binop(BinOp::Add, d, a, a).unwrap();
    let one_alu = m.cycles() - start;

    type ImmOp = fn(&mut Machine, uc_cm::FieldId, uc_cm::FieldId) -> uc_cm::Result<()>;
    let forms: [ImmOp; 2] = [
        |m, d, a| m.binop_imm(BinOp::Sub, d, a, 3.into()),
        |m, d, a| m.binop_imm_l(BinOp::Sub, d, 3.into(), a),
    ];
    for imm_op in forms {
        let (mut m, a, d, start) = setup(None);
        let alu_before = m.counters().alu;
        imm_op(&mut m, d, a).unwrap();
        assert_eq!(m.cycles() - start, 2 * one_alu);
        assert_eq!(m.counters().alu - alu_before, 2);

        // Exactly two ticks of fuel: fine.
        let (mut m, a, d, _) = setup(Some(2 * one_alu));
        imm_op(&mut m, d, a).expect("spending exactly the budget is fine");

        // One cycle short: the broadcast is paid for, the op itself traps
        // and writes nothing.
        let (mut m, a, d, start) = setup(Some(2 * one_alu - 1));
        let err = imm_op(&mut m, d, a).expect_err("one cycle short must trap");
        assert_eq!(err, CmError::FuelExhausted { limit: start + 2 * one_alu - 1 });
        assert_eq!(m.cycles() - start, 2 * one_alu, "both instructions were charged");
        assert_eq!(m.int_data(d).unwrap(), &[0; 256]);

        // Less than one tick: the broadcast itself traps.
        let (mut m, a, d, start) = setup(Some(one_alu - 1));
        assert!(matches!(imm_op(&mut m, d, a), Err(CmError::FuelExhausted { .. })));
        assert_eq!(m.cycles() - start, one_alu, "the op was never issued");
    }
}

/// The broadcast temporary of an immediate op is held against the memory
/// budget while the op runs: a budget that admits the operands but not one
/// more field traps exactly as the allocation of that field would, and a
/// successful op leaves the accounting where it found it.
#[test]
fn binop_imm_broadcast_is_charged_to_the_memory_budget() {
    // 256 VPs: base mask 256 bytes, two int fields 2 × 2048.
    let operands = 256 + 2 * 2048;
    let mut m = limited(None, Some(operands + 2047));
    let vp = m.new_vp_set("v", &[256]).unwrap();
    let a = m.alloc_int(vp, "a").unwrap();
    let d = m.alloc_int(vp, "d").unwrap();
    m.iota(a).unwrap();
    let cycles = m.cycles();
    for res in [
        m.binop_imm(BinOp::Add, d, a, 1.into()),
        m.binop_imm_l(BinOp::Sub, d, 1.into(), a),
    ] {
        assert_eq!(
            res,
            Err(CmError::MemoryLimitExceeded { requested: 2048, limit: operands + 2047 })
        );
    }
    assert_eq!(m.cycles(), cycles, "a refused broadcast charges no instruction");
    assert_eq!(m.int_data(d).unwrap(), &[0; 256]);

    m.set_mem_limit(Some(operands + 2048));
    m.binop_imm(BinOp::Add, d, a, 1.into()).expect("the broadcast just fits");
    assert_eq!(m.mem_bytes(), operands, "the transient charge is released");
    assert_eq!(m.int_data(d).unwrap()[..3], [1, 2, 3]);
    // Released on the error path too.
    assert_eq!(m.binop_imm(BinOp::Div, d, a, 0.into()), Err(CmError::DivideByZero));
    assert_eq!(m.mem_bytes(), operands);
}

/// One op's charge as the cost model states it, computed here without the
/// machine's code: `vp_ratio × c_class`, the scan class paying
/// `tree_step · ⌈log₂ P⌉` more per VP ratio, the front end flat.
fn own_charge(c: &CostModel, class: OpClass, vp_size: usize, phys_procs: usize) -> u64 {
    let ratio = vp_size.div_ceil(phys_procs).max(1) as u64;
    let log2p = (phys_procs as f64).log2().ceil() as u64;
    match class {
        OpClass::Alu => c.alu * ratio,
        OpClass::Context => c.context * ratio,
        OpClass::News => c.news * ratio,
        OpClass::Router => c.router * ratio,
        OpClass::Scan => (c.scan + c.tree_step * log2p) * ratio,
        OpClass::FrontEnd => c.front_end,
    }
}

/// A cost model with every constant, `tree_step` included, moved off the
/// default.
fn perturbed() -> CostModel {
    CostModel { alu: 7, context: 3, news: 11, router: 101, scan: 37, front_end: 5, tree_step: 13 }
}

fn machine(phys_procs: usize, cost: CostModel) -> Machine {
    Machine::new(MachineConfig { phys_procs, cost, ..MachineConfig::default() })
}

/// Operands of one VP set: an index field, an output, in-range router
/// addresses and a mask.
struct Set {
    vp: VpSetId,
    size: usize,
    a: FieldId,
    b: FieldId,
    addr: FieldId,
    mask: FieldId,
}

/// A seeded sequence of 60 ops, ten of each class, over three VP sets:
/// below, at and above `phys_procs` VPs. Setup is excluded by clearing the
/// tally. Returns the sum of [`own_charge`] over the ops issued.
fn drive(m: &mut Machine, cost: &CostModel, seed: u64) -> uc_cm::Result<u64> {
    let p = m.phys_procs();
    let mut sets = Vec::new();
    for size in [p.div_ceil(2), p, 3 * p + 1] {
        let vp = m.new_vp_set("v", &[size])?;
        let [a, b, addr] = [(); 3].map(|_| m.alloc_int(vp, "x").unwrap());
        let mask = m.alloc_bool(vp, "m")?;
        m.iota(a)?;
        m.rand_int(addr, size as i64, seed)?;
        m.binop(BinOp::Le, mask, a, addr)?;
        sets.push(Set { vp, size, a, b, addr, mask });
    }
    m.reset_clock();
    let mut rng = seed;
    let mut want = 0;
    for step in 0..60 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let s = &sets[(rng % 3) as usize];
        let class = [
            OpClass::Alu,
            OpClass::Context,
            OpClass::News,
            OpClass::Router,
            OpClass::Scan,
            OpClass::FrontEnd,
        ][step % 6];
        let mut issued = 1;
        match class {
            OpClass::Alu => m.binop(BinOp::Add, s.b, s.a, s.addr)?,
            OpClass::Context => {
                m.push_context(s.mask)?;
                m.pop_context(s.vp)?;
                issued = 2;
            }
            OpClass::News => m.news_shift(s.b, s.a, 0, (rng % 5) as i64 - 2, Border::Wrap)?,
            OpClass::Router => m.get(s.b, s.addr, s.a)?,
            OpClass::Scan => m.reduce(s.a, ReduceOp::Max).map(|_| ())?,
            OpClass::FrontEnd => m.read_elem(s.a, rng as usize % s.size).map(|_| ())?,
        }
        want += issued * own_charge(cost, class, s.size, p);
    }
    Ok(want)
}

/// The machine's clock is `cost · tally` and equals the sum of every op's
/// own charge, on machines whose combine trees have 0 to 10 levels. The
/// tally does not depend on the cost model, and re-costing the default
/// model's tally under a perturbed one gives exactly what re-running the
/// sequence on a machine with that model costs: the linearity a
/// sensitivity study relies on.
#[test]
fn the_tally_is_the_clock_and_re_costs() {
    let (default, other) = (CostModel::default(), perturbed());
    for phys_procs in [1, 2, 16, 64, 1000] {
        for seed in [1, 0x5eed, 0xdead_beef] {
            let mut m = machine(phys_procs, default.clone());
            let want = drive(&mut m, &default, seed).unwrap();
            let tally = *m.tally();
            assert_eq!(m.cycles(), want, "P = {phys_procs}, seed {seed}");
            assert_eq!(m.cycles(), default.cycles(&tally));
            assert!(tally.ops.iter().all(|&n| n >= 10), "every class driven: {tally:?}");
            assert_eq!(tally.counters().total(), 70);

            let mut q = machine(phys_procs, other.clone());
            let want = drive(&mut q, &other, seed).unwrap();
            assert_eq!(q.tally(), &tally, "the tally is the same work under any model");
            assert_eq!(other.cycles(&tally), q.cycles());
            assert_eq!(q.cycles(), want);
        }
    }
}

/// A router op whose charge saturates the clock still traps on fuel at
/// that op, as when every op was added to a running total: the ALU ops
/// before it fit the budget, the router op is recorded and traps, and the
/// machine stays over budget.
#[test]
fn a_saturating_charge_traps_on_fuel_at_its_own_op() {
    let cost = CostModel { router: u64::MAX / 2, ..CostModel::default() };
    let mut m = Machine::new(MachineConfig {
        phys_procs: 4,
        cost,
        limits: MachineLimits { fuel: Some(u64::MAX - 1), max_mem_bytes: None },
    });
    let vp = m.new_vp_set("v", &[1 << 12]).unwrap(); // VP ratio 1024
    let (a, b) = (m.alloc_int(vp, "a").unwrap(), m.alloc_int(vp, "b").unwrap());
    m.iota(a).unwrap();
    m.binop(BinOp::Add, b, a, a).unwrap();
    assert_eq!(m.cycles(), 2 * 30 * 1024);
    let err = m.get(b, a, a).expect_err("the router op saturates the clock");
    assert_eq!(err, CmError::FuelExhausted { limit: u64::MAX - 1 });
    assert_eq!((m.cycles(), m.counters().router, m.counters().total()), (u64::MAX, 1, 3));
    assert!(m.iota(a).is_err(), "fuel traps are terminal");
}
