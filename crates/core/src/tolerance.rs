//! Stage selection and the information-loss knob.
//!
//! "Some users may be satisfied with fewer results for their semantic
//! subscriptions, if the matching would be faster. The idea is to allow
//! the user to inform the system about how much information loss the user
//! is willing to tolerate" (§3.2). Two dials exist: which semantic stages
//! apply, and how far up the concept hierarchy a match may reach.

use std::fmt;

/// A set of enabled semantic stages.
///
/// The paper's three stages compose freely: "Each of the approaches can be
/// used independently … It is also possible to use all three approaches
/// together" (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageMask(u8);

impl StageMask {
    /// The synonym-translation stage.
    pub const SYNONYM: StageMask = StageMask(0b001);
    /// The concept-hierarchy stage.
    pub const HIERARCHY: StageMask = StageMask(0b010);
    /// The mapping-function stage.
    pub const MAPPING: StageMask = StageMask(0b100);

    /// No semantic processing: plain syntactic matching.
    pub const fn syntactic() -> StageMask {
        StageMask(0)
    }

    /// All three stages.
    pub const fn all() -> StageMask {
        StageMask(0b111)
    }

    /// True if this mask enables `stage`.
    #[inline]
    pub fn contains(self, stage: StageMask) -> bool {
        self.0 & stage.0 == stage.0
    }

    /// Union of two masks.
    #[must_use]
    pub fn with(self, stage: StageMask) -> StageMask {
        StageMask(self.0 | stage.0)
    }

    /// This mask minus `stage`.
    #[must_use]
    pub fn without(self, stage: StageMask) -> StageMask {
        StageMask(self.0 & !stage.0)
    }

    /// Intersection of two masks.
    #[must_use]
    pub fn intersect(self, other: StageMask) -> StageMask {
        StageMask(self.0 & other.0)
    }

    /// True if no stage is enabled.
    pub fn is_syntactic(self) -> bool {
        self.0 == 0
    }

    /// Shorthand accessors.
    pub fn synonym(self) -> bool {
        self.contains(Self::SYNONYM)
    }
    /// True if the hierarchy stage is enabled.
    pub fn hierarchy(self) -> bool {
        self.contains(Self::HIERARCHY)
    }
    /// True if the mapping stage is enabled.
    pub fn mapping(self) -> bool {
        self.contains(Self::MAPPING)
    }

    /// All eight stage combinations, for ablation sweeps (E1).
    pub fn all_combinations() -> [StageMask; 8] {
        [
            StageMask(0b000),
            StageMask(0b001),
            StageMask(0b010),
            StageMask(0b011),
            StageMask(0b100),
            StageMask(0b101),
            StageMask(0b110),
            StageMask(0b111),
        ]
    }
}

macro_rules! stage_mask_fmt {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.is_syntactic() {
                return f.write_str("syntactic");
            }
            let mut first = true;
            for (bit, name) in [
                (StageMask::SYNONYM, "synonym"),
                (StageMask::HIERARCHY, "hierarchy"),
                (StageMask::MAPPING, "mapping"),
            ] {
                if self.contains(bit) {
                    if !first {
                        f.write_str("+")?;
                    }
                    first = false;
                    f.write_str(name)?;
                }
            }
            Ok(())
        }
    };
}

impl fmt::Debug for StageMask {
    stage_mask_fmt!();
}

impl fmt::Display for StageMask {
    stage_mask_fmt!();
}

/// A subscriber's information-loss tolerance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Tolerance {
    /// Stages this subscriber accepts matches from.
    pub stages: StageMask,
    /// Maximum generalization distance per hierarchy step (`None` =
    /// unbounded). `Some(0)` disables generalization entirely, equivalent
    /// to removing the hierarchy stage. The bound applies component-wise:
    /// both the attribute's and the value's generalization distance must
    /// stay within it.
    pub max_distance: Option<u32>,
}

impl Tolerance {
    /// Full semantics: all stages, unbounded generalization.
    pub const fn full() -> Tolerance {
        Tolerance { stages: StageMask::all(), max_distance: None }
    }

    /// Purely syntactic matching.
    pub const fn syntactic() -> Tolerance {
        Tolerance { stages: StageMask::syntactic(), max_distance: None }
    }

    /// All stages but generalization limited to `k` levels.
    pub const fn bounded(k: u32) -> Tolerance {
        Tolerance { stages: StageMask::all(), max_distance: Some(k) }
    }

    /// Restricts to the given stages, unbounded distance.
    pub const fn stages(stages: StageMask) -> Tolerance {
        Tolerance { stages, max_distance: None }
    }

    /// True if `distance` is within this tolerance.
    #[inline]
    pub fn admits_distance(&self, distance: u32) -> bool {
        match self.max_distance {
            Some(k) => distance <= k,
            None => true,
        }
    }

    /// The tolerance at least as strict as both inputs (used to clamp a
    /// subscriber's request to the system-wide configuration).
    #[must_use]
    pub fn clamp_to(&self, system: &Tolerance) -> Tolerance {
        Tolerance {
            stages: self.stages.intersect(system.stages),
            max_distance: match (self.max_distance, system.max_distance) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) => Some(a),
                (None, b) => b,
            },
        }
    }

    /// The canonical representative of this tolerance's *closure
    /// behaviour*: two tolerances with equal verification classes close
    /// every event into bit-identical [`crate::ClosedEvent`]s, so the
    /// matcher keeps one engine partition per class and the
    /// per-publication tolerance-class cache ([`crate::TierCache`]) keys
    /// on it instead of the raw tolerance.
    ///
    /// Two redundancies collapse: a distance bound of 0 disables the
    /// hierarchy stage outright, and without the hierarchy stage the
    /// distance bound is inert.
    #[must_use]
    pub fn verify_class(&self) -> Tolerance {
        let mut class = *self;
        if class.max_distance == Some(0) {
            class.stages = class.stages.without(StageMask::HIERARCHY);
        }
        if !class.stages.hierarchy() {
            class.max_distance = None;
        }
        class
    }
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_algebra() {
        let m = StageMask::syntactic().with(StageMask::SYNONYM).with(StageMask::MAPPING);
        assert!(m.synonym());
        assert!(!m.hierarchy());
        assert!(m.mapping());
        assert!(!m.without(StageMask::MAPPING).mapping());
        assert_eq!(m.intersect(StageMask::SYNONYM), StageMask::SYNONYM);
        assert!(StageMask::all().contains(StageMask::HIERARCHY));
        assert!(StageMask::syntactic().is_syntactic());
    }

    #[test]
    fn all_combinations_are_distinct_and_complete() {
        let combos = StageMask::all_combinations();
        assert_eq!(combos.len(), 8);
        for (i, a) in combos.iter().enumerate() {
            for b in &combos[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(combos[0], StageMask::syntactic());
        assert_eq!(combos[7], StageMask::all());
    }

    #[test]
    fn display_names_stages() {
        assert_eq!(StageMask::syntactic().to_string(), "syntactic");
        assert_eq!(StageMask::all().to_string(), "synonym+hierarchy+mapping");
        assert_eq!(StageMask::SYNONYM.with(StageMask::MAPPING).to_string(), "synonym+mapping");
    }

    #[test]
    fn tolerance_distance_bounds() {
        assert!(Tolerance::full().admits_distance(1_000_000));
        let t = Tolerance::bounded(2);
        assert!(t.admits_distance(0));
        assert!(t.admits_distance(2));
        assert!(!t.admits_distance(3));
    }

    #[test]
    fn verify_class_collapses_redundant_tolerances() {
        // Distance 0 is the same as no hierarchy stage at all.
        let zero = Tolerance { stages: StageMask::all(), max_distance: Some(0) };
        let no_hier = Tolerance {
            stages: StageMask::all().without(StageMask::HIERARCHY),
            max_distance: None,
        };
        assert_eq!(zero.verify_class(), no_hier);
        // Without the hierarchy stage the distance bound is inert.
        let bounded_syn = Tolerance { stages: StageMask::SYNONYM, max_distance: Some(5) };
        assert_eq!(bounded_syn.verify_class().max_distance, None);
        assert_eq!(bounded_syn.verify_class().stages, StageMask::SYNONYM);
        // Meaningful bounds survive.
        assert_eq!(Tolerance::bounded(2).verify_class(), Tolerance::bounded(2));
        assert_eq!(Tolerance::full().verify_class(), Tolerance::full());
        // Idempotent.
        for t in [zero, bounded_syn, Tolerance::bounded(3), Tolerance::syntactic()] {
            assert_eq!(t.verify_class().verify_class(), t.verify_class());
        }
    }

    #[test]
    fn clamping_takes_the_stricter_side() {
        let system = Tolerance { stages: StageMask::all(), max_distance: Some(3) };
        let wide = Tolerance::full().clamp_to(&system);
        assert_eq!(wide.max_distance, Some(3));
        let narrow =
            Tolerance { stages: StageMask::SYNONYM, max_distance: Some(5) }.clamp_to(&system);
        assert_eq!(narrow.stages, StageMask::SYNONYM);
        assert_eq!(narrow.max_distance, Some(3));
        let tight = Tolerance { stages: StageMask::all(), max_distance: Some(1) }.clamp_to(&system);
        assert_eq!(tight.max_distance, Some(1));
    }
}
