//! Ontology bundles and the multi-domain registry.
//!
//! An [`Ontology`] packages the three knowledge sources of one domain:
//! synonyms, a concept hierarchy, and mapping functions. The paper
//! emphasizes that "the current trend is to have many domain-specific
//! ontologies … instead of a single, large and global ontology" and that a
//! single S-ToPSS instance can serve several domains at once, bridged by
//! *inter-domain* mapping functions (§3.2). [`DomainRegistry`] implements
//! exactly that: it exposes the same [`SemanticSource`] interface as a
//! single ontology, fanning queries out across domains and the bridge
//! functions.

use stopss_types::{Event, FxHashMap, Interner, Symbol, Value};

use crate::error::OntologyError;
use crate::mapping::{FnId, MappingFunction, MappingRegistry};
use crate::synonyms::SynonymTable;
use crate::taxonomy::Taxonomy;

/// Receives each fired mapping function's name and produced pairs.
pub type NamedMappingSink<'a> = dyn FnMut(&str, Vec<(Symbol, Value)>) + 'a;

/// What the semantic stages need from an ontology. Implemented by
/// [`Ontology`] (single domain) and [`DomainRegistry`] (multi-domain).
pub trait SemanticSource: Send + Sync {
    /// Resolves a term through the synonym table(s).
    fn resolve_synonym(&self, term: Symbol) -> Symbol;

    /// Visits `(ancestor, min_distance)` for every generalization of
    /// `term`.
    fn for_each_ancestor(&self, term: Symbol, f: &mut dyn FnMut(Symbol, u32));

    /// All `(descendant, min_distance)` specializations of `term`.
    fn descendants(&self, term: Symbol) -> Vec<(Symbol, u32)>;

    /// True iff `special` is a strict specialization of `general`.
    fn is_a(&self, special: Symbol, general: Symbol) -> bool;

    /// Minimum generalization distance, if related.
    fn distance(&self, special: Symbol, general: Symbol) -> Option<u32>;

    /// Applies every candidate mapping function to `event` (see
    /// [`MappingRegistry::apply_all`](crate::mapping::MappingRegistry::apply_all)).
    /// The `name` passed to the sink is the function's registered name
    /// (used for provenance).
    fn apply_mappings(
        &self,
        event: &Event,
        interner: &Interner,
        now_year: i64,
        sink: &mut NamedMappingSink<'_>,
    );

    /// True if some mapping function may read pairs of `attr` — as a
    /// pattern attribute or from a production expression. Pairs of any
    /// other attribute cannot change what [`SemanticSource::apply_mappings`]
    /// produces. The default claims every attribute, which is always safe.
    fn mapping_reads(&self, attr: Symbol) -> bool {
        let _ = attr;
        true
    }

    /// Downcast hook for live ontology evolution: sources that are a
    /// plain single-domain [`Ontology`] return themselves, so a caller
    /// holding only `dyn SemanticSource` can clone the running ontology,
    /// apply a delta, and swap the fork in (the wire protocol's
    /// `SetOntology` path). Composite sources keep the default `None` —
    /// a delta against them has no single table to land in.
    fn as_ontology(&self) -> Option<&Ontology> {
        None
    }
}

/// A single domain's knowledge: synonyms + taxonomy + mapping functions.
#[derive(Debug, Default, Clone)]
pub struct Ontology {
    name: String,
    /// Synonym table over attributes and values.
    pub synonyms: SynonymTable,
    /// Concept hierarchy over attributes and values.
    pub taxonomy: Taxonomy,
    /// Mapping functions of this domain.
    pub mappings: MappingRegistry,
}

impl Ontology {
    /// Creates an empty ontology named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Ontology { name: name.into(), ..Default::default() }
    }

    /// The domain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Size summary `(synonym aliases, concepts, is-a edges, mapping fns)`
    /// for reports.
    pub fn stats(&self) -> (usize, usize, usize, usize) {
        (
            self.synonyms.alias_count(),
            self.taxonomy.len(),
            self.taxonomy.edge_count(),
            self.mappings.len(),
        )
    }
}

impl SemanticSource for Ontology {
    fn resolve_synonym(&self, term: Symbol) -> Symbol {
        self.synonyms.resolve(term)
    }

    fn as_ontology(&self) -> Option<&Ontology> {
        Some(self)
    }

    fn for_each_ancestor(&self, term: Symbol, f: &mut dyn FnMut(Symbol, u32)) {
        self.taxonomy.for_each_ancestor(term, f);
    }

    fn descendants(&self, term: Symbol) -> Vec<(Symbol, u32)> {
        self.taxonomy.descendants(term)
    }

    fn is_a(&self, special: Symbol, general: Symbol) -> bool {
        self.taxonomy.is_a(special, general)
    }

    fn distance(&self, special: Symbol, general: Symbol) -> Option<u32> {
        self.taxonomy.distance(special, general)
    }

    fn apply_mappings(
        &self,
        event: &Event,
        interner: &Interner,
        now_year: i64,
        sink: &mut NamedMappingSink<'_>,
    ) {
        self.mappings
            .apply_all(event, interner, now_year, &mut |_, func, pairs| sink(&func.name, pairs));
    }

    fn mapping_reads(&self, attr: Symbol) -> bool {
        self.mappings.reads(attr)
    }
}

/// Identifier of a domain within a registry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DomainId(pub u32);

/// Several domain ontologies plus inter-domain bridge functions, exposed
/// as one combined [`SemanticSource`].
///
/// Synonym resolution applies each domain's table in registration order
/// until one rewrites the term (domains are expected to govern disjoint
/// vocabularies; the order only matters for terms claimed by several
/// domains). Hierarchy queries take the union of all taxonomies; mapping
/// application runs every domain's functions plus the bridges.
#[derive(Debug, Default)]
pub struct DomainRegistry {
    domains: Vec<Ontology>,
    by_name: FxHashMap<String, DomainId>,
    /// Inter-domain mapping functions ("it is possible to provide
    /// inter-domain mapping by simply adding additional functions").
    pub bridges: MappingRegistry,
}

impl DomainRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a domain; names must be unique.
    pub fn add_domain(&mut self, ontology: Ontology) -> Result<DomainId, OntologyError> {
        if self.by_name.contains_key(ontology.name()) {
            return Err(OntologyError::DuplicateDomain(ontology.name().to_owned()));
        }
        let id = DomainId(u32::try_from(self.domains.len()).expect("too many domains"));
        self.by_name.insert(ontology.name().to_owned(), id);
        self.domains.push(ontology);
        Ok(id)
    }

    /// Registers an inter-domain bridge function.
    pub fn add_bridge(&mut self, func: MappingFunction) -> Result<FnId, OntologyError> {
        self.bridges.register(func)
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True if no domains are registered.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Domain by id.
    pub fn get(&self, id: DomainId) -> Option<&Ontology> {
        self.domains.get(id.0 as usize)
    }

    /// Mutable domain by id (setup phase only).
    pub fn get_mut(&mut self, id: DomainId) -> Option<&mut Ontology> {
        self.domains.get_mut(id.0 as usize)
    }

    /// Domain by name.
    pub fn by_name(&self, name: &str) -> Option<(DomainId, &Ontology)> {
        let id = *self.by_name.get(name)?;
        Some((id, &self.domains[id.0 as usize]))
    }

    /// Iterates domains in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (DomainId, &Ontology)> {
        self.domains.iter().enumerate().map(|(k, o)| (DomainId(k as u32), o))
    }
}

impl SemanticSource for DomainRegistry {
    fn resolve_synonym(&self, term: Symbol) -> Symbol {
        for domain in &self.domains {
            let resolved = domain.synonyms.resolve(term);
            if resolved != term {
                return resolved;
            }
        }
        term
    }

    fn for_each_ancestor(&self, term: Symbol, f: &mut dyn FnMut(Symbol, u32)) {
        for domain in &self.domains {
            domain.taxonomy.for_each_ancestor(term, f);
        }
    }

    fn descendants(&self, term: Symbol) -> Vec<(Symbol, u32)> {
        let mut out = Vec::new();
        for domain in &self.domains {
            out.extend(domain.taxonomy.descendants(term));
        }
        out
    }

    fn is_a(&self, special: Symbol, general: Symbol) -> bool {
        self.domains.iter().any(|d| d.taxonomy.is_a(special, general))
    }

    fn distance(&self, special: Symbol, general: Symbol) -> Option<u32> {
        self.domains.iter().filter_map(|d| d.taxonomy.distance(special, general)).min()
    }

    fn apply_mappings(
        &self,
        event: &Event,
        interner: &Interner,
        now_year: i64,
        sink: &mut NamedMappingSink<'_>,
    ) {
        for domain in &self.domains {
            domain.apply_mappings(event, interner, now_year, sink);
        }
        self.bridges
            .apply_all(event, interner, now_year, &mut |_, func, pairs| sink(&func.name, pairs));
    }

    fn mapping_reads(&self, attr: Symbol) -> bool {
        self.domains.iter().any(|d| d.mappings.reads(attr)) || self.bridges.reads(attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::mapping::{PatternItem, Production};
    use stopss_types::EventBuilder;

    fn jobs_domain(i: &mut Interner) -> Ontology {
        let mut o = Ontology::new("jobs");
        let university = i.intern("university");
        let school = i.intern("school");
        o.synonyms.add_synonym(university, school, i).unwrap();
        let degree = i.intern("degree");
        let phd = i.intern("phd");
        o.taxonomy.add_isa(phd, degree, i).unwrap();
        o
    }

    fn commerce_domain(i: &mut Interner) -> Ontology {
        let mut o = Ontology::new("commerce");
        let vehicle = i.intern("vehicle");
        let car = i.intern("car");
        o.taxonomy.add_isa(car, vehicle, i).unwrap();
        o
    }

    #[test]
    fn single_ontology_implements_semantic_source() {
        let mut i = Interner::new();
        let o = jobs_domain(&mut i);
        let school = i.get("school").unwrap();
        let university = i.get("university").unwrap();
        let phd = i.get("phd").unwrap();
        let degree = i.get("degree").unwrap();
        assert_eq!(o.resolve_synonym(school), university);
        assert!(o.is_a(phd, degree));
        assert_eq!(o.distance(phd, degree), Some(1));
        assert_eq!(o.stats(), (1, 2, 1, 0));
    }

    #[test]
    fn registry_unions_domains() {
        let mut i = Interner::new();
        let mut reg = DomainRegistry::new();
        reg.add_domain(jobs_domain(&mut i)).unwrap();
        reg.add_domain(commerce_domain(&mut i)).unwrap();
        assert_eq!(reg.len(), 2);

        let school = i.get("school").unwrap();
        let university = i.get("university").unwrap();
        let car = i.get("car").unwrap();
        let vehicle = i.get("vehicle").unwrap();
        let phd = i.get("phd").unwrap();
        let degree = i.get("degree").unwrap();
        assert_eq!(reg.resolve_synonym(school), university);
        assert!(reg.is_a(car, vehicle), "second domain's taxonomy is visible");
        assert!(reg.is_a(phd, degree), "first domain's taxonomy is visible");
        assert!(!reg.is_a(car, degree), "no cross-domain edges appear from nowhere");
    }

    #[test]
    fn duplicate_domain_names_rejected() {
        let mut i = Interner::new();
        let mut reg = DomainRegistry::new();
        reg.add_domain(jobs_domain(&mut i)).unwrap();
        let err = reg.add_domain(Ontology::new("jobs")).unwrap_err();
        assert!(matches!(err, OntologyError::DuplicateDomain(_)));
    }

    #[test]
    fn bridges_fire_alongside_domain_mappings() {
        let mut i = Interner::new();
        let mut reg = DomainRegistry::new();
        let mut jobs = jobs_domain(&mut i);
        // Domain-local function.
        let grad = i.intern("graduation_year");
        let exp = i.intern("professional_experience");
        jobs.mappings
            .register(MappingFunction::new(
                "experience",
                vec![PatternItem { attr: grad, guard: None }],
                vec![Production { attr: exp, expr: Expr::sub(Expr::Now, Expr::Attr(grad)) }],
            ))
            .unwrap();
        reg.add_domain(jobs).unwrap();
        reg.add_domain(commerce_domain(&mut i)).unwrap();
        // Inter-domain bridge: salary (jobs) → budget (commerce).
        let salary = i.intern("salary");
        let budget = i.intern("budget");
        reg.add_bridge(MappingFunction::new(
            "salary_to_budget",
            vec![PatternItem { attr: salary, guard: None }],
            vec![Production { attr: budget, expr: Expr::Attr(salary) }],
        ))
        .unwrap();

        let e = EventBuilder::new(&mut i)
            .pair("graduation_year", 1998i64)
            .pair("salary", 90_000i64)
            .build();
        let mut fired: Vec<String> = Vec::new();
        reg.apply_mappings(&e, &i, 2003, &mut |name, _| fired.push(name.to_owned()));
        fired.sort();
        assert_eq!(fired, vec!["experience".to_owned(), "salary_to_budget".to_owned()]);
    }

    #[test]
    fn mapping_reads_covers_patterns_expressions_and_bridges() {
        let mut i = Interner::new();
        let (grad, offset, exp) =
            (i.intern("graduation_year"), i.intern("offset"), i.intern("experience"));
        let (salary, budget, currency) =
            (i.intern("salary"), i.intern("budget"), i.intern("currency"));
        let mut jobs = jobs_domain(&mut i);
        jobs.mappings
            .register(MappingFunction::new(
                "experience",
                vec![PatternItem { attr: grad, guard: None }],
                vec![Production {
                    attr: exp,
                    expr: Expr::sub(Expr::Now, Expr::add(Expr::Attr(grad), Expr::Attr(offset))),
                }],
            ))
            .unwrap();
        assert!(jobs.mapping_reads(grad), "pattern attribute");
        assert!(jobs.mapping_reads(offset), "attribute only an expression references");
        assert!(!jobs.mapping_reads(exp), "a produced attribute nobody reads");
        assert!(!jobs.mapping_reads(i.get("university").unwrap()));

        let mut reg = DomainRegistry::new();
        reg.add_domain(jobs).unwrap();
        reg.add_domain(commerce_domain(&mut i)).unwrap();
        assert!(reg.mapping_reads(grad) && reg.mapping_reads(offset), "domain functions");
        assert!(!reg.mapping_reads(salary) && !reg.mapping_reads(currency));
        reg.add_bridge(MappingFunction::new(
            "salary_to_budget",
            vec![PatternItem { attr: salary, guard: None }],
            vec![Production {
                attr: budget,
                expr: Expr::mul(Expr::Attr(salary), Expr::Attr(currency)),
            }],
        ))
        .unwrap();
        assert!(reg.mapping_reads(salary), "bridge pattern attribute");
        assert!(reg.mapping_reads(currency), "bridge expression attribute");
        assert!(!reg.mapping_reads(budget));
    }

    #[test]
    fn lookup_by_name_and_iteration() {
        let mut i = Interner::new();
        let mut reg = DomainRegistry::new();
        let jobs_id = reg.add_domain(jobs_domain(&mut i)).unwrap();
        let (found_id, found) = reg.by_name("jobs").unwrap();
        assert_eq!(found_id, jobs_id);
        assert_eq!(found.name(), "jobs");
        assert!(reg.by_name("nope").is_none());
        assert_eq!(reg.iter().count(), 1);
        assert!(reg.get(jobs_id).is_some());
        assert!(reg.get_mut(jobs_id).is_some());
    }

    #[test]
    fn registry_distance_takes_minimum_across_domains() {
        let mut i = Interner::new();
        let mut reg = DomainRegistry::new();
        // Same concepts present in two domains with different path lengths.
        let (a, b, mid) = (i.intern("a"), i.intern("b"), i.intern("mid"));
        let mut d1 = Ontology::new("d1");
        d1.taxonomy.add_isa(a, mid, &i).unwrap();
        d1.taxonomy.add_isa(mid, b, &i).unwrap();
        let mut d2 = Ontology::new("d2");
        d2.taxonomy.add_isa(a, b, &i).unwrap();
        reg.add_domain(d1).unwrap();
        reg.add_domain(d2).unwrap();
        assert_eq!(reg.distance(a, b), Some(1));
    }
}
