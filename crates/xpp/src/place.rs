//! Array geometry, resource accounting and placement.
//!
//! The XPP-64A provides an 8×8 array of ALU-PAEs with a column of eight
//! RAM-PAEs on either side, two routing registers per PAE, and four
//! dual-channel I/O ports. The placer here is deliberately simple: it
//! allocates *counts* of each resource class and a coarse routing budget,
//! which is exactly the quantity the paper reasons about (how many PAEs a
//! kernel occupies, whether two configurations fit simultaneously).

use crate::error::{Error, Result};
use crate::netlist::Netlist;
use crate::object::SlotClass;

/// Physical dimensions of an array instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of ALU processing elements (XPP-64A: 8×8 = 64).
    pub alu_paes: usize,
    /// Number of RAM processing elements (XPP-64A: 2×8 = 16).
    pub ram_paes: usize,
    /// Number of logical streaming I/O channels (XPP-64A: 4 dual-channel
    /// ports carrying packed 12-bit I/Q pairs = 16 logical streams).
    pub io_channels: usize,
    /// Routing registers per PAE (forward + backward register).
    pub regs_per_pae: usize,
    /// Routing segments per PAE (horizontal/vertical bus budget).
    pub routes_per_pae: usize,
}

impl Geometry {
    /// The XPP-64A geometry described in the paper.
    ///
    /// The device has four dual-channel I/O ports (8 physical word
    /// channels); the paper's receivers use 12-bit I and Q, which pack as a
    /// pair into one 24-bit word, so the simulator exposes 16 logical
    /// streams (one per I/Q component) to keep the kernel netlists readable.
    pub fn xpp64a() -> Self {
        Geometry {
            alu_paes: 64,
            ram_paes: 16,
            io_channels: 16,
            regs_per_pae: 2,
            routes_per_pae: 4,
        }
    }

    /// Total register slots.
    pub(crate) fn reg_slots(&self) -> usize {
        (self.alu_paes + self.ram_paes) * self.regs_per_pae
    }

    /// Total routing segments.
    pub(crate) fn route_slots(&self) -> usize {
        (self.alu_paes + self.ram_paes) * self.routes_per_pae
    }

    /// Total PAEs of both kinds.
    pub(crate) fn total_paes(&self) -> usize {
        self.alu_paes + self.ram_paes
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry::xpp64a()
    }
}

/// A bundle of resource quantities (one per class, plus routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceCounts {
    /// ALU-PAE function units.
    pub alu: usize,
    /// Forward/backward registers.
    pub reg: usize,
    /// RAM-PAEs.
    pub ram: usize,
    /// I/O channels.
    pub io: usize,
    /// Routing segments (≈ one per channel).
    pub route: usize,
}

impl ResourceCounts {
    /// Resources required by a netlist.
    pub(crate) fn of_netlist(netlist: &Netlist) -> Self {
        let mut counts = ResourceCounts::default();
        for kind in netlist.kinds() {
            match kind.slot_class() {
                SlotClass::Alu => counts.alu += 1,
                SlotClass::Reg => counts.reg += 1,
                SlotClass::Ram => counts.ram += 1,
                SlotClass::Io => counts.io += 1,
            }
        }
        counts.route = netlist.edge_count();
        counts
    }

    /// The first resource class where `self` exceeds `available`, as
    /// `(class name, needed, available)` — `None` when everything fits.
    ///
    /// The class names are the ones [`ResourcePool::allocate`] puts in its
    /// placement errors.
    pub(crate) fn first_deficit(
        &self,
        available: &ResourceCounts,
    ) -> Option<(&'static str, usize, usize)> {
        let checks = [
            ("ALU slots", self.alu, available.alu),
            ("register slots", self.reg, available.reg),
            ("RAM slots", self.ram, available.ram),
            ("I/O channels", self.io, available.io),
            ("routing segments", self.route, available.route),
        ];
        checks
            .into_iter()
            .find(|&(_, needed, avail)| needed > avail)
    }
}

/// Tracks free resources on a live array.
#[derive(Debug, Clone)]
pub(crate) struct ResourcePool {
    total: ResourceCounts,
    free: ResourceCounts,
}

impl ResourcePool {
    /// A pool covering a whole (empty) array.
    pub(crate) fn new(geometry: Geometry) -> Self {
        let total = ResourceCounts {
            alu: geometry.alu_paes,
            reg: geometry.reg_slots(),
            ram: geometry.ram_paes,
            io: geometry.io_channels,
            route: geometry.route_slots(),
        };
        ResourcePool { total, free: total }
    }

    /// Currently free resources.
    pub(crate) fn free(&self) -> ResourceCounts {
        self.free
    }

    /// Attempts to reserve the requested resources.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PlacementFailed`] naming the exhausted class.
    pub(crate) fn allocate(&mut self, need: ResourceCounts) -> Result<()> {
        if let Some((name, needed, available)) = need.first_deficit(&self.free) {
            return Err(Error::PlacementFailed {
                resource: name.to_string(),
                needed,
                available,
            });
        }
        self.free.alu -= need.alu;
        self.free.reg -= need.reg;
        self.free.ram -= need.ram;
        self.free.io -= need.io;
        self.free.route -= need.route;
        Ok(())
    }

    /// Returns resources to the pool.
    ///
    /// # Panics
    ///
    /// Panics (debug) if more is released than was allocated.
    pub(crate) fn release(&mut self, counts: ResourceCounts) {
        self.free.alu += counts.alu;
        self.free.reg += counts.reg;
        self.free.ram += counts.ram;
        self.free.io += counts.io;
        self.free.route += counts.route;
        debug_assert!(self.free.alu <= self.total.alu);
        debug_assert!(self.free.reg <= self.total.reg);
        debug_assert!(self.free.ram <= self.total.ram);
        debug_assert!(self.free.io <= self.total.io);
        debug_assert!(self.free.route <= self.total.route);
    }

    /// Fraction of ALU-PAEs in use.
    pub(crate) fn alu_utilization(&self) -> f64 {
        if self.total.alu == 0 {
            0.0
        } else {
            (self.total.alu - self.free.alu) as f64 / self.total.alu as f64
        }
    }
}

/// The outcome of placing one netlist: what it holds on the array.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Configuration name.
    pub name: String,
    /// Resources held.
    pub counts: ResourceCounts,
    /// Number of objects.
    pub objects: usize,
}

impl Placement {
    /// Computes the placement footprint for a netlist.
    pub(crate) fn of(netlist: &Netlist) -> Self {
        Placement {
            name: netlist.name().to_string(),
            counts: ResourceCounts::of_netlist(netlist),
            objects: netlist.object_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::object::AluOp;
    use crate::word::Word;

    fn small_netlist() -> Netlist {
        let mut nl = NetlistBuilder::new("t");
        let a = nl.input("a");
        let k = nl.constant(Word::new(2));
        let y = nl.alu(AluOp::Mul, a, k);
        nl.output("y", y);
        nl.build().unwrap()
    }

    #[test]
    fn xpp64a_geometry_counts() {
        let g = Geometry::xpp64a();
        assert_eq!(g.alu_paes, 64);
        assert_eq!(g.ram_paes, 16);
        assert_eq!(g.io_channels, 16);
        assert_eq!(g.reg_slots(), 160);
        assert_eq!(g.total_paes(), 80);
    }

    #[test]
    fn netlist_requirements() {
        let counts = ResourceCounts::of_netlist(&small_netlist());
        assert_eq!(counts.alu, 1); // the multiplier
        assert_eq!(counts.reg, 1); // the constant
        assert_eq!(counts.io, 2); // in + out
        assert_eq!(counts.ram, 0);
        assert_eq!(counts.route, 3);
    }

    #[test]
    fn pool_allocates_and_releases() {
        let mut pool = ResourcePool::new(Geometry::xpp64a());
        let need = ResourceCounts {
            alu: 10,
            reg: 5,
            ram: 2,
            io: 4,
            route: 20,
        };
        pool.allocate(need).unwrap();
        assert_eq!(pool.free().alu, 54);
        assert!(pool.alu_utilization() > 0.15);
        pool.release(need);
        assert_eq!(pool.free(), pool.total);
        assert_eq!(pool.alu_utilization(), 0.0);
    }

    #[test]
    fn pool_rejects_overallocation_naming_resource() {
        let mut pool = ResourcePool::new(Geometry::xpp64a());
        let need = ResourceCounts {
            alu: 100,
            ..Default::default()
        };
        match pool.allocate(need) {
            Err(Error::PlacementFailed {
                resource,
                needed,
                available,
            }) => {
                assert_eq!(resource, "ALU slots");
                assert_eq!(needed, 100);
                assert_eq!(available, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn failed_allocation_leaves_pool_untouched() {
        let mut pool = ResourcePool::new(Geometry::xpp64a());
        let need = ResourceCounts {
            alu: 2,
            io: 100,
            ..Default::default()
        };
        assert!(pool.allocate(need).is_err());
        assert_eq!(pool.free(), pool.total);
    }

    #[test]
    fn placement_footprint() {
        let p = Placement::of(&small_netlist());
        assert_eq!(p.objects, 4);
        assert_eq!(p.counts.alu + p.counts.ram, 1);
        assert_eq!(p.name, "t");
    }

    #[test]
    fn first_deficit_names_the_exhausted_class() {
        let need = ResourceCounts {
            alu: 4,
            ram: 3,
            ..Default::default()
        };
        let avail = ResourceCounts {
            alu: 4,
            ram: 2,
            ..Default::default()
        };
        assert_eq!(need.first_deficit(&avail), Some(("RAM slots", 3, 2)));
        assert_eq!(need.first_deficit(&need), None);
    }
}
