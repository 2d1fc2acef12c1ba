//! Resource budgets: fuel, memory and wall-clock deadlines.
//!
//! Budget semantics under test:
//!
//! * fuel — spending *exactly* the budget succeeds; the first charge
//!   past it traps, and a zero budget traps on the first charged op;
//! * memory — live field + context bytes are charged before allocation
//!   and released on free, so budgets bound the high-water mark;
//! * deadline — armed per run, checked on every charged instruction and
//!   pollable without charging.

use uc_cm::{
    cost::OpClass, ops::BinOp, CmError, Machine, MachineConfig, MachineLimits, Scalar,
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
    let cost = uc_cm::cost::CostModel::default();
    assert_eq!(
        cost.charge(OpClass::FrontEnd, 1, 16),
        cost.charge(OpClass::FrontEnd, 1 << 20, 16),
        "front-end charges are flat"
    );
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
