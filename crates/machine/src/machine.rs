//! The machine description proper: units, latencies, reservations.

use crate::banks::BankModel;
use crate::ops::OpClass;
use crate::regs::{RegClass, RegFile};
use std::fmt;

/// A functional-unit resource class.
///
/// Every operation consumes one issue slot plus cycles on exactly one of
/// these unit classes (possibly several consecutive cycles for unpipelined
/// operations such as divide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceClass {
    /// Issue bandwidth (the R8000 dispatches at most 4 ops per cycle).
    Issue,
    /// Memory pipes (2 on the R8000).
    Memory,
    /// Floating-point pipes (2 on the R8000).
    Float,
    /// Integer ALUs (2 on the R8000).
    Integer,
}

impl ResourceClass {
    /// All resource classes in a fixed order.
    pub const ALL: [ResourceClass; 4] = [
        ResourceClass::Issue,
        ResourceClass::Memory,
        ResourceClass::Float,
        ResourceClass::Integer,
    ];

    /// Dense index for table lookups.
    pub fn index(self) -> usize {
        match self {
            ResourceClass::Issue => 0,
            ResourceClass::Memory => 1,
            ResourceClass::Float => 2,
            ResourceClass::Integer => 3,
        }
    }
}

impl fmt::Display for ResourceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceClass::Issue => "issue",
            ResourceClass::Memory => "mem",
            ResourceClass::Float => "fp",
            ResourceClass::Integer => "int",
        };
        f.write_str(s)
    }
}

/// One resource requirement of an operation: `count` units of `class` at
/// each cycle offset in `0..duration` relative to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Which unit class is reserved.
    pub class: ResourceClass,
    /// For how many consecutive cycles, starting at the issue cycle. Fully
    /// pipelined operations use 1; the R8000's divide blocks its FP pipe.
    pub duration: u32,
}

/// An immutable machine description.
///
/// Construct with [`Machine::r8000`] or via [`MachineBuilder`] for ablation
/// configurations (wider issue, un-banked memory, different latencies).
///
/// # Examples
///
/// ```
/// use swp_machine::{Machine, OpClass, ResourceClass};
/// let m = Machine::r8000();
/// assert_eq!(m.units(ResourceClass::Float), 2);
/// let res = m.reservations(OpClass::FDiv);
/// assert!(res.iter().any(|r| r.duration > 1), "divide is unpipelined");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    name: String,
    issue_width: u32,
    units: [u32; 4],
    latency: [u32; 12],
    occupancy: [u32; 12],
    regs: Vec<RegFile>,
    banks: Option<BankModel>,
}

impl Machine {
    /// The default model of the MIPS R8000 used throughout the reproduction.
    ///
    /// Parameters (documented in DESIGN.md §5): 4-issue; 2 memory, 2 FP and
    /// 2 integer pipes; FP arithmetic latency 4 (fully pipelined, including
    /// madd); load latency 4 (streaming second-level cache); unpipelined
    /// divide (latency 14, occupancy 11) and sqrt (latency 20, occupancy 17);
    /// 32 FP registers (31 allocatable) and 32 integer registers (24
    /// allocatable after ABI reservations); even/odd double-word banks with a
    /// one-entry bellows queue.
    pub fn r8000() -> Machine {
        MachineBuilder::new("r8000").build()
    }

    /// A variant of [`Machine::r8000`] with the banked memory system
    /// replaced by an ideal (conflict-free) memory. Used by experiments that
    /// isolate the memory-bank effects (Figures 4 and 5).
    pub fn r8000_unbanked() -> Machine {
        MachineBuilder::new("r8000-unbanked")
            .banked_memory(false)
            .build()
    }

    /// Machine name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Maximum operations issued per cycle.
    pub fn issue_width(&self) -> u32 {
        self.issue_width
    }

    /// Number of functional units of a class.
    pub fn units(&self, class: ResourceClass) -> u32 {
        self.units[class.index()]
    }

    /// Result latency of an operation class: the number of cycles before a
    /// dependent operation may issue. Always at least 1.
    pub fn latency(&self, op: OpClass) -> u32 {
        self.latency[op_index(op)]
    }

    /// Cycles an operation class holds its pipe (1 = fully pipelined).
    pub fn occupancy(&self, op: OpClass) -> u32 {
        self.occupancy[op_index(op)]
    }

    /// The resource reservations of an operation class: one issue slot plus
    /// `occupancy` cycles on its pipe.
    pub fn reservations(&self, op: OpClass) -> Vec<Reservation> {
        let pipe = pipe_of(op);
        vec![
            Reservation {
                class: ResourceClass::Issue,
                duration: 1,
            },
            Reservation {
                class: pipe,
                duration: self.occupancy(op),
            },
        ]
    }

    /// Register files, one per [`RegClass`].
    pub fn reg_files(&self) -> &[RegFile] {
        &self.regs
    }

    /// Allocatable register count for a class.
    pub fn allocatable(&self, class: RegClass) -> u32 {
        self.regs
            .iter()
            .find(|f| f.class() == class)
            .map_or(0, RegFile::allocatable)
    }

    /// The banked-memory model, if this machine has one.
    pub fn bank_model(&self) -> Option<&BankModel> {
        self.banks.as_ref()
    }

    /// A loose per-iteration resource lower bound on II for an op-class
    /// histogram: `max_r ceil(uses_r / units_r)` (the ResMII component of
    /// MinII, \[RaGl81\]). Unpipelined ops contribute their full occupancy.
    ///
    /// `counts` maps each [`OpClass`] to the number of such operations in
    /// the loop body.
    pub fn res_mii(&self, counts: &[(OpClass, u32)]) -> u32 {
        let mut usage = [0u64; 4];
        for &(op, n) in counts {
            usage[ResourceClass::Issue.index()] += u64::from(n);
            usage[pipe_of(op).index()] += u64::from(n) * u64::from(self.occupancy[op_index(op)]);
        }
        let mut ii = 1;
        for class in ResourceClass::ALL {
            let units = u64::from(self.units(class)).max(1);
            let need = usage[class.index()].div_ceil(units);
            ii = ii.max(need as u32);
        }
        ii
    }
}

impl Default for Machine {
    fn default() -> Machine {
        Machine::r8000()
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}-issue, mem={}, fp={}, int={}, banks={})",
            self.name,
            self.issue_width,
            self.units[1],
            self.units[2],
            self.units[3],
            if self.banks.is_some() {
                "even/odd"
            } else {
                "ideal"
            }
        )
    }
}

fn op_index(op: OpClass) -> usize {
    OpClass::ALL
        .iter()
        .position(|&c| c == op)
        .expect("op class in table")
}

fn pipe_of(op: OpClass) -> ResourceClass {
    if op.is_memory() {
        ResourceClass::Memory
    } else if op.is_float() {
        ResourceClass::Float
    } else {
        ResourceClass::Integer
    }
}

/// Builder for custom machine configurations.
///
/// # Examples
///
/// ```
/// use swp_machine::{MachineBuilder, OpClass, ResourceClass};
/// let wide = MachineBuilder::new("wide8")
///     .issue_width(8)
///     .units(ResourceClass::Float, 4)
///     .latency(OpClass::FAdd, 2)
///     .build();
/// assert_eq!(wide.issue_width(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    machine: Machine,
}

impl MachineBuilder {
    /// Start from the R8000 defaults under the given name.
    pub fn new(name: &str) -> MachineBuilder {
        // Index order must match OpClass::ALL:
        // Load Store FAdd FMul FMadd FDiv FSqrt FCmp CMov IntAlu IntMul Copy
        let latency = [4, 1, 4, 4, 4, 14, 20, 1, 1, 1, 4, 1];
        let occupancy = [1, 1, 1, 1, 1, 11, 17, 1, 1, 1, 1, 1];
        MachineBuilder {
            machine: Machine {
                name: name.to_owned(),
                issue_width: 4,
                units: [4, 2, 2, 2],
                latency,
                occupancy,
                regs: vec![
                    RegFile::new(RegClass::Float, 32, 31),
                    RegFile::new(RegClass::Int, 32, 24),
                ],
                banks: Some(BankModel::r8000()),
            },
        }
    }

    /// Set the issue width (also the `Issue` resource count).
    pub fn issue_width(&mut self, w: u32) -> &mut MachineBuilder {
        assert!(w > 0, "issue width must be positive");
        self.machine.issue_width = w;
        self.machine.units[ResourceClass::Issue.index()] = w;
        self
    }

    /// Set the unit count of a resource class.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `class` is [`ResourceClass::Issue`] (use
    /// [`MachineBuilder::issue_width`]).
    pub fn units(&mut self, class: ResourceClass, n: u32) -> &mut MachineBuilder {
        assert!(n > 0, "unit count must be positive");
        assert!(
            class != ResourceClass::Issue,
            "set issue width via issue_width()"
        );
        self.machine.units[class.index()] = n;
        self
    }

    /// Set the result latency of an op class (min 1).
    pub fn latency(&mut self, op: OpClass, cycles: u32) -> &mut MachineBuilder {
        self.machine.latency[op_index(op)] = cycles.max(1);
        self
    }

    /// Set the pipe occupancy of an op class (1 = fully pipelined).
    pub fn occupancy(&mut self, op: OpClass, cycles: u32) -> &mut MachineBuilder {
        self.machine.occupancy[op_index(op)] = cycles.max(1);
        self
    }

    /// Set the allocatable register count of a class.
    pub fn allocatable(&mut self, class: RegClass, n: u32) -> &mut MachineBuilder {
        for f in &mut self.machine.regs {
            if f.class() == class {
                *f = RegFile::new(class, f.total().max(n), n);
            }
        }
        self
    }

    /// Enable or disable the banked memory system.
    pub fn banked_memory(&mut self, enabled: bool) -> &mut MachineBuilder {
        self.machine.banks = if enabled {
            Some(BankModel::r8000())
        } else {
            None
        };
        self
    }

    /// Finish the build.
    pub fn build(&self) -> Machine {
        self.machine.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_r8000() {
        assert_eq!(Machine::default(), Machine::r8000());
    }

    #[test]
    fn res_mii_memory_bound() {
        let m = Machine::r8000();
        // 8 loads on 2 memory pipes: at least 4 cycles per iteration.
        assert_eq!(m.res_mii(&[(OpClass::Load, 8)]), 4);
    }

    #[test]
    fn res_mii_issue_bound() {
        let m = Machine::r8000();
        // 4 loads + 4 fadds + 4 ialu = 12 ops on 4-issue: at least 3.
        let counts = [(OpClass::Load, 4), (OpClass::FAdd, 4), (OpClass::IntAlu, 4)];
        assert_eq!(m.res_mii(&counts), 3);
    }

    #[test]
    fn res_mii_unpipelined_divide() {
        let m = Machine::r8000();
        // 2 divides on 2 FP pipes, each blocking 11 cycles: ceil(22/2)=11.
        assert_eq!(m.res_mii(&[(OpClass::FDiv, 2)]), 11);
    }

    #[test]
    fn builder_overrides() {
        let m = MachineBuilder::new("t")
            .latency(OpClass::Load, 6)
            .occupancy(OpClass::FDiv, 1)
            .build();
        assert_eq!(m.latency(OpClass::Load), 6);
        assert!(m
            .reservations(OpClass::FDiv)
            .iter()
            .all(|r| r.duration == 1));
    }

    #[test]
    fn unbanked_has_no_bank_model() {
        assert!(Machine::r8000_unbanked().bank_model().is_none());
        assert!(Machine::r8000().bank_model().is_some());
    }

    #[test]
    fn every_class_has_reservation_on_its_pipe() {
        let m = Machine::r8000();
        for op in OpClass::ALL {
            let res = m.reservations(op);
            assert_eq!(res[0].class, ResourceClass::Issue);
            assert_eq!(res.len(), 2);
        }
    }
}
