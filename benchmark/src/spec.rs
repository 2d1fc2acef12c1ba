//! The benchmark's metric names, units, directions and bounds. This is the
//! single in-code copy of what `BENCHMARK.json` declares; a unit test
//! keeps the two identical.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// `sim_cycles` must not move at all; a bound this small is below one
/// cycle for any count under 10^9, and still a positive number so that a
/// spread of exactly zero sits strictly inside it.
pub const EXACT: f64 = 1e-9;

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "run_wall_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "compile_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "exec_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "check_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: EXACT,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics of the traced pass, grouped by layer (module name
/// before the dot). Times are medians of host time spent in the call into
/// that layer's public function; counts are exact.
pub const PER_LAYER: &[PerLayer] = &[
    lo("lexer.ms", "ms"),
    lo("lexer.tokens", "count"),
    hi("lexer.mtok_per_s", "Mtok/s"),
    lo("parser.ms", "ms"),
    lo("parser.src_bytes", "bytes"),
    hi("parser.mb_per_s", "MB/s"),
    lo("opt.fold_ms", "ms"),
    lo("sema.ms", "ms"),
    lo("mapping.ms", "ms"),
    lo("ir.lower_ms", "ms"),
    lo("ir.instrs", "count"),
    lo("ir.tree_escapes", "count"),
    hi("ir.inline_ok", "bool"),
    lo("analysis.ms", "ms"),
    lo("analysis.findings", "count"),
    lo("exec.first_ms", "ms"),
    lo("exec.setup_ms", "ms"),
    lo("exec.allocs_per_run", "count"),
    lo("exec.alloc_kb_per_run", "KB"),
    lo("exec.us_per_op", "us"),
    lo("exec.overhead_ms", "ms"),
    lo("exec.overhead_share", "share"),
    lo("cm.ops_alu", "count"),
    lo("cm.ops_context", "count"),
    lo("cm.ops_news", "count"),
    lo("cm.ops_router", "count"),
    lo("cm.ops_scan", "count"),
    lo("cm.ops_front_end", "count"),
    lo("cm.mem_kb", "KB"),
    lo("cm.scratch_high_water", "count"),
    lo("cm.us_alu", "us"),
    lo("cm.us_context", "us"),
    lo("cm.us_news", "us"),
    lo("cm.us_router_get", "us"),
    lo("cm.us_router_send", "us"),
    lo("cm.us_scan", "us"),
    lo("cm.us_reduce", "us"),
    lo("cm.est_ms", "ms"),
    hi("pool.threads", "count"),
    lo("pool.run_wall_t1_ms", "ms"),
    hi("pool.speedup", "x"),
    lo("pool.scope_us", "us"),
    lo("pool.chunks_us", "us"),
    lo("cli.startup_ms", "ms"),
    lo("cli.overhead_ms", "ms"),
    lo("cli.stdout_bytes", "bytes"),
    lo("cli.run_wall_p75_ms", "ms"),
    lo("mapping.cycles_router", "cycles"),
    lo("mapping.cycles_news", "cycles"),
    lo("mapping.cycles_local", "cycles"),
    hi("mapping.gain", "x"),
    lo("trace.overhead_share", "share"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Unit of a declared metric of either pass.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let layer = PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit);
    end_to_end(name).map(|m| m.unit).or(layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::WORKLOADS;

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).unwrap()
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing `{key}`"))
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let decl = declared();
        let e2e = decl.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (d, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(d, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                d.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = decl.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (d, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(d, "better"), m.better.as_str(), "{}", m.name);
        }
        let workloads = decl.get("workloads").and_then(Value::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (d, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(d, "name"), w.name);
            assert_eq!(field(d, "why"), w.why);
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
        let layers = PER_LAYER.iter().map(|m| (m.name, m.unit));
        let loads = WORKLOADS.iter().map(|w| (w.name, "count"));
        for (name, unit) in e2e.chain(layers).chain(loads) {
            assert!(name_ok(name), "bad name {name}");
            assert!(unit_ok(unit), "bad unit {unit} for {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
    }
}
