//! Mapping functions — the third semantic stage's knowledge source.
//!
//! "A mapping function is a many-to-many function that correlates one or
//! more attribute-value pairs to one or more semantically related
//! attribute-value pairs. It is possible to have many mapping functions
//! for each attribute. We assume that mapping functions are specified by
//! domain experts." (§3.1)
//!
//! A [`MappingFunction`] has a *pattern* — attributes that must be present,
//! each optionally guarded by a comparison — and *productions* — new
//! attribute–value pairs computed by [`Expr`]essions over the matched
//! values. The [`MappingRegistry`] indexes functions by their pattern
//! attributes so the candidates for an event are found with hash lookups,
//! "the key aspect of this approach in terms of performance" (§3.2).

use stopss_types::{Event, FxHashMap, FxHashSet, Interner, Operator, Predicate, Symbol, Value};

use crate::error::OntologyError;
use crate::expr::{Env, Expr};

/// A guard on one pattern attribute (`op value`, e.g. `>= 4`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Guard {
    /// Comparison operator.
    pub op: Operator,
    /// Right-hand side.
    pub value: Value,
}

impl Guard {
    /// Evaluates the guard against a candidate value.
    pub fn eval(&self, candidate: &Value, attr: Symbol, interner: &Interner) -> bool {
        Predicate::new(attr, self.op, self.value).eval(candidate, interner)
    }
}

/// One required attribute of a pattern, with an optional guard.
#[derive(Clone, Debug, PartialEq)]
pub struct PatternItem {
    /// The attribute that must be present on the event.
    pub attr: Symbol,
    /// Optional constraint on its value (`None` = existence is enough).
    pub guard: Option<Guard>,
}

/// One produced attribute–value pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Production {
    /// Attribute of the produced pair.
    pub attr: Symbol,
    /// Expression computing its value.
    pub expr: Expr,
}

/// Identifier of a mapping function within one registry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FnId(pub u32);

/// A domain-expert-specified mapping function.
#[derive(Clone, Debug)]
pub struct MappingFunction {
    /// Name used in provenance and reports.
    pub name: String,
    /// Attributes (with optional guards) that must all be matched.
    pub pattern: Vec<PatternItem>,
    /// Pairs appended to the derived event when the pattern matches.
    pub produce: Vec<Production>,
}

impl MappingFunction {
    /// Builds a function. Patterns should be non-empty; a pattern-less
    /// function would fire on every event, which the registry cannot index
    /// (and the paper's functions are always triggered by attributes).
    pub fn new(
        name: impl Into<String>,
        pattern: Vec<PatternItem>,
        produce: Vec<Production>,
    ) -> Self {
        MappingFunction { name: name.into(), pattern, produce }
    }

    /// Tries to match the pattern and evaluate the productions.
    ///
    /// Binding rule: for each pattern item, the *first* event pair for that
    /// attribute that satisfies the guard is bound. Expressions may also
    /// reference unmatched event attributes (first pair wins). Returns the
    /// produced pairs, or `None` if the pattern does not match or any
    /// production fails to evaluate.
    pub fn try_apply(
        &self,
        event: &Event,
        interner: &Interner,
        now_year: i64,
    ) -> Option<Vec<(Symbol, Value)>> {
        debug_assert!(!self.pattern.is_empty(), "pattern-less mapping functions are not indexable");
        // Small-N: patterns have a handful of items, a vec beats a map.
        let mut bindings: Vec<(Symbol, Value)> = Vec::with_capacity(self.pattern.len());
        for item in &self.pattern {
            let bound = event.values_for(item.attr).find(|v| match &item.guard {
                Some(g) => g.eval(v, item.attr, interner),
                None => true,
            })?;
            bindings.push((item.attr, *bound));
        }
        let lookup = |sym: Symbol| -> Option<Value> {
            bindings
                .iter()
                .find(|(a, _)| *a == sym)
                .map(|(_, v)| *v)
                .or_else(|| event.get(sym).copied())
        };
        let env = Env { now_year, lookup: &lookup };
        let mut out = Vec::with_capacity(self.produce.len());
        for prod in &self.produce {
            out.push((prod.attr, prod.expr.eval(&env)?));
        }
        Some(out)
    }

    /// The attributes that trigger this function (its pattern attributes).
    pub fn trigger_attrs(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.pattern.iter().map(|p| p.attr)
    }
}

/// Receives each fired mapping function together with its produced pairs.
pub type MappingSink<'a> = dyn FnMut(FnId, &MappingFunction, Vec<(Symbol, Value)>) + 'a;

/// A registry of mapping functions, indexed by pattern attribute.
#[derive(Default, Debug, Clone)]
pub struct MappingRegistry {
    fns: Vec<MappingFunction>,
    by_name: FxHashMap<String, FnId>,
    /// attribute → functions having it in their pattern.
    by_trigger: FxHashMap<Symbol, Vec<FnId>>,
    /// Every attribute some function reads: its pattern attributes plus
    /// the attributes its production expressions reference.
    reads: FxHashSet<Symbol>,
}

impl MappingRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a function; names must be unique within one registry.
    pub fn register(&mut self, func: MappingFunction) -> Result<FnId, OntologyError> {
        if self.by_name.contains_key(&func.name) {
            return Err(OntologyError::DuplicateMapping(func.name.clone()));
        }
        let id = FnId(u32::try_from(self.fns.len()).expect("too many mapping functions"));
        for attr in func.trigger_attrs() {
            let triggers = self.by_trigger.entry(attr).or_default();
            if !triggers.contains(&id) {
                triggers.push(id);
            }
        }
        self.reads.extend(func.trigger_attrs());
        for prod in &func.produce {
            self.reads.extend(prod.expr.referenced_attrs());
        }
        self.by_name.insert(func.name.clone(), id);
        self.fns.push(func);
        Ok(id)
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// True if no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// True if some registered function reads `attr`, as a pattern
    /// attribute or from a production expression. Pairs of any other
    /// attribute cannot change what [`MappingRegistry::apply_all`] does.
    pub(crate) fn reads(&self, attr: Symbol) -> bool {
        self.reads.contains(&attr)
    }

    /// Looks a function up by id.
    pub fn get(&self, id: FnId) -> Option<&MappingFunction> {
        self.fns.get(id.0 as usize)
    }

    /// Looks a function up by name.
    pub fn by_name(&self, name: &str) -> Option<(FnId, &MappingFunction)> {
        let id = *self.by_name.get(name)?;
        Some((id, &self.fns[id.0 as usize]))
    }

    /// Iterates all functions.
    pub fn iter(&self) -> impl Iterator<Item = (FnId, &MappingFunction)> {
        self.fns.iter().enumerate().map(|(k, f)| (FnId(k as u32), f))
    }

    /// Applies every candidate function to `event`, calling `sink` with
    /// the function and its produced pairs. Candidates are discovered via
    /// the trigger index — only functions whose pattern mentions an
    /// attribute present on the event are attempted — and each function is
    /// attempted at most once per call.
    pub fn apply_all(
        &self,
        event: &Event,
        interner: &Interner,
        now_year: i64,
        sink: &mut MappingSink<'_>,
    ) {
        // Small scratch of attempted ids; events trigger few functions.
        let mut attempted: Vec<FnId> = Vec::new();
        for (attr, _) in event.pairs() {
            let Some(candidates) = self.by_trigger.get(attr) else {
                continue;
            };
            for &id in candidates {
                if attempted.contains(&id) {
                    continue;
                }
                attempted.push(id);
                let func = &self.fns[id.0 as usize];
                if let Some(produced) = func.try_apply(event, interner, now_year) {
                    sink(id, func, produced);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stopss_types::EventBuilder;

    /// The paper's §3.1 mapping example:
    /// `professional experience = present date − graduation year`.
    fn experience_fn(i: &mut Interner) -> MappingFunction {
        let grad = i.intern("graduation_year");
        let exp = i.intern("professional_experience");
        MappingFunction::new(
            "experience_from_graduation",
            vec![PatternItem { attr: grad, guard: None }],
            vec![Production { attr: exp, expr: Expr::sub(Expr::Now, Expr::Attr(grad)) }],
        )
    }

    #[test]
    fn paper_example_fires_and_computes() {
        let mut i = Interner::new();
        let f = experience_fn(&mut i);
        let e = EventBuilder::new(&mut i)
            .term("school", "toronto")
            .pair("graduation_year", 1993i64)
            .build();
        let produced = f.try_apply(&e, &i, 2003).unwrap();
        let exp = i.get("professional_experience").unwrap();
        assert_eq!(produced, vec![(exp, Value::Int(10))]);
    }

    #[test]
    fn pattern_without_attribute_does_not_fire() {
        let mut i = Interner::new();
        let f = experience_fn(&mut i);
        let e = EventBuilder::new(&mut i).term("school", "toronto").build();
        assert!(f.try_apply(&e, &i, 2003).is_none());
    }

    #[test]
    fn guards_constrain_binding() {
        let mut i = Interner::new();
        let year = i.intern("year");
        let era = i.intern("era");
        let mainframe = i.intern("mainframe_era");
        let f = MappingFunction::new(
            "era_from_year",
            vec![
                PatternItem {
                    attr: year,
                    guard: Some(Guard { op: Operator::Ge, value: Value::Int(1960) }),
                },
                PatternItem {
                    attr: year,
                    guard: Some(Guard { op: Operator::Le, value: Value::Int(1980) }),
                },
            ],
            vec![Production { attr: era, expr: Expr::Const(Value::Sym(mainframe)) }],
        );
        let hit = EventBuilder::new(&mut i).pair("year", 1970i64).build();
        let miss = EventBuilder::new(&mut i).pair("year", 1995i64).build();
        assert_eq!(f.try_apply(&hit, &i, 0).unwrap(), vec![(era, Value::Sym(mainframe))]);
        assert!(f.try_apply(&miss, &i, 0).is_none());
    }

    #[test]
    fn guard_binds_first_satisfying_pair() {
        let mut i = Interner::new();
        let x = i.intern("x");
        let y = i.intern("y");
        let f = MappingFunction::new(
            "pick",
            vec![PatternItem {
                attr: x,
                guard: Some(Guard { op: Operator::Gt, value: Value::Int(5) }),
            }],
            vec![Production { attr: y, expr: Expr::Attr(x) }],
        );
        let e = Event::new().with(x, Value::Int(1)).with(x, Value::Int(7)).with(x, Value::Int(9));
        assert_eq!(f.try_apply(&e, &i, 0).unwrap(), vec![(y, Value::Int(7))]);
    }

    #[test]
    fn failed_production_suppresses_the_function() {
        let mut i = Interner::new();
        let x = i.intern("x");
        let out = i.intern("out");
        let f = MappingFunction::new(
            "div",
            vec![PatternItem { attr: x, guard: None }],
            vec![Production {
                attr: out,
                expr: Expr::div(Expr::Const(Value::Int(1)), Expr::Attr(x)),
            }],
        );
        let zero = Event::new().with(x, Value::Int(0));
        assert!(f.try_apply(&zero, &i, 0).is_none());
        let two = Event::new().with(x, Value::Int(2));
        assert!(f.try_apply(&two, &i, 0).is_some());
    }

    #[test]
    fn registry_indexes_by_trigger() {
        let mut i = Interner::new();
        let mut reg = MappingRegistry::new();
        let f = experience_fn(&mut i);
        let id = reg.register(f).unwrap();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.by_name("experience_from_graduation").unwrap().0, id);
        assert!(reg.get(id).is_some());

        let trigger_event = EventBuilder::new(&mut i).pair("graduation_year", 2000i64).build();
        let other_event = EventBuilder::new(&mut i).pair("salary", 100i64).build();
        let mut fired = Vec::new();
        reg.apply_all(&trigger_event, &i, 2003, &mut |fid, _, pairs| fired.push((fid, pairs)));
        assert_eq!(fired.len(), 1);
        fired.clear();
        reg.apply_all(&other_event, &i, 2003, &mut |fid, _, pairs| fired.push((fid, pairs)));
        assert!(fired.is_empty(), "no candidates without trigger attribute");
    }

    #[test]
    fn registry_attempts_multi_trigger_function_once() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let out = i.intern("out");
        let mut reg = MappingRegistry::new();
        reg.register(MappingFunction::new(
            "sum",
            vec![PatternItem { attr: a, guard: None }, PatternItem { attr: b, guard: None }],
            vec![Production { attr: out, expr: Expr::add(Expr::Attr(a), Expr::Attr(b)) }],
        ))
        .unwrap();
        let e = Event::new().with(a, Value::Int(1)).with(b, Value::Int(2));
        let mut count = 0;
        reg.apply_all(&e, &i, 0, &mut |_, _, pairs| {
            count += 1;
            assert_eq!(pairs, vec![(out, Value::Int(3))]);
        });
        assert_eq!(count, 1, "function must fire once despite two trigger attrs");
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut i = Interner::new();
        let mut reg = MappingRegistry::new();
        reg.register(experience_fn(&mut i)).unwrap();
        let err = reg.register(experience_fn(&mut i)).unwrap_err();
        assert!(matches!(err, OntologyError::DuplicateMapping(_)));
    }

    #[test]
    fn many_functions_per_attribute_all_fire() {
        let mut i = Interner::new();
        let x = i.intern("x");
        let mut reg = MappingRegistry::new();
        for k in 0..3 {
            let out = i.intern(&format!("out{k}"));
            reg.register(MappingFunction::new(
                format!("f{k}"),
                vec![PatternItem { attr: x, guard: None }],
                vec![Production {
                    attr: out,
                    expr: Expr::mul(Expr::Attr(x), Expr::Const(Value::Int(k))),
                }],
            ))
            .unwrap();
        }
        let e = Event::new().with(x, Value::Int(2));
        let mut fired = Vec::new();
        reg.apply_all(&e, &i, 0, &mut |id, _, _| fired.push(id));
        fired.sort_unstable();
        assert_eq!(fired, vec![FnId(0), FnId(1), FnId(2)]);
    }
}
