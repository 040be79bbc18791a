//! The conjunctive-query model.
//!
//! A SPARQL conjunctive query (CQ) is a set of triple patterns over binding
//! variables and constants, plus a projection list. Its *query graph* has the
//! variables as nodes and the patterns as labeled edges — the structure both
//! planners reason over.

use std::collections::HashMap;
use std::fmt;

use wireframe_graph::{Dictionary, NodeId, PredId};

use crate::error::QueryError;
use crate::term::{Term, Var};

/// One triple pattern `subject --predicate--> object` of a CQ, with the
/// predicate already resolved against the graph's dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// The subject term (variable or constant).
    pub subject: Term,
    /// The (constant) predicate of the pattern.
    pub predicate: PredId,
    /// The object term (variable or constant).
    pub object: Term,
}

impl TriplePattern {
    /// Creates a new pattern.
    pub fn new(subject: impl Into<Term>, predicate: PredId, object: impl Into<Term>) -> Self {
        TriplePattern {
            subject: subject.into(),
            predicate,
            object: object.into(),
        }
    }

    /// The variables appearing in this pattern (0, 1 or 2 of them).
    pub fn variables(&self) -> impl Iterator<Item = Var> {
        [self.subject.as_var(), self.object.as_var()]
            .into_iter()
            .flatten()
    }

    /// Whether the given variable appears in this pattern.
    pub fn mentions(&self, v: Var) -> bool {
        self.subject.as_var() == Some(v) || self.object.as_var() == Some(v)
    }
}

/// A SPARQL conjunctive query after name resolution: triple patterns over
/// dense variables, a projection list, and the original variable names.
#[derive(Debug, Clone)]
pub struct ConjunctiveQuery {
    patterns: Vec<TriplePattern>,
    projection: Vec<Var>,
    distinct: bool,
    var_names: Vec<String>,
}

impl ConjunctiveQuery {
    /// Creates a query from parts. `var_names[i]` names variable `Var(i)`.
    /// Every variable used by a pattern or the projection must be named, and
    /// every projected variable must appear in some pattern (otherwise no
    /// embedding binds it).
    pub fn new(
        patterns: Vec<TriplePattern>,
        projection: Vec<Var>,
        distinct: bool,
        var_names: Vec<String>,
    ) -> Result<Self, QueryError> {
        let num_vars = var_names.len() as u32;
        let check = |v: Var| -> Result<(), QueryError> {
            if v.0 >= num_vars {
                Err(QueryError::UnknownVariable(format!("?{}", v.0)))
            } else {
                Ok(())
            }
        };
        for p in &patterns {
            for v in p.variables() {
                check(v)?;
            }
        }
        for &v in &projection {
            check(v)?;
        }
        if patterns.is_empty() {
            return Err(QueryError::EmptyQuery);
        }
        if let Some(&v) = projection
            .iter()
            .find(|&&v| !patterns.iter().any(|p| p.mentions(v)))
        {
            return Err(QueryError::UnknownVariable(format!(
                "?{}",
                var_names[v.index()]
            )));
        }
        Ok(ConjunctiveQuery {
            patterns,
            projection,
            distinct,
            var_names,
        })
    }

    /// The triple patterns (the query's edges), in declaration order.
    pub fn patterns(&self) -> &[TriplePattern] {
        &self.patterns
    }

    /// Number of triple patterns.
    pub fn num_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// The projected variables, in SELECT order.
    pub fn projection(&self) -> &[Var] {
        &self.projection
    }

    /// Whether the query is a `SELECT DISTINCT`.
    pub fn distinct(&self) -> bool {
        self.distinct
    }

    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// All variables of the query.
    pub fn variables(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.var_names.len() as u32).map(Var)
    }

    /// The source name of a variable (without the leading `?`).
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// Looks up a variable by its source name (without the leading `?`).
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| Var(i as u32))
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for v in &self.projection {
            write!(f, "?{} ", self.var_name(*v))?;
        }
        write!(f, "WHERE {{ ")?;
        for p in &self.patterns {
            let t = |t: Term| match t {
                Term::Var(v) => format!("?{}", self.var_name(v)),
                Term::Const(n) => format!("<{}>", n.0),
            };
            write!(f, "{} p{} {} . ", t(p.subject), p.predicate.0, t(p.object))?;
        }
        write!(f, "}}")
    }
}

/// Incremental construction of a [`ConjunctiveQuery`] from string-form terms,
/// resolving predicate and constant labels against a [`Dictionary`].
///
/// Terms starting with `?` are variables; anything else is a constant node
/// label that must already exist in the dictionary.
#[derive(Debug)]
pub struct CqBuilder<'d> {
    dictionary: &'d Dictionary,
    patterns: Vec<TriplePattern>,
    var_ids: HashMap<String, Var>,
    var_names: Vec<String>,
    projection: Vec<Var>,
    distinct: bool,
}

impl<'d> CqBuilder<'d> {
    /// Creates a builder resolving labels against `dictionary`.
    pub fn new(dictionary: &'d Dictionary) -> Self {
        CqBuilder {
            dictionary,
            patterns: Vec::new(),
            var_ids: HashMap::new(),
            var_names: Vec::new(),
            projection: Vec::new(),
            distinct: false,
        }
    }

    /// Marks the query as `SELECT DISTINCT`.
    pub fn distinct(&mut self) -> &mut Self {
        self.distinct = true;
        self
    }

    /// Adds a variable to the projection list (with or without leading `?`).
    pub fn project(&mut self, name: &str) -> &mut Self {
        let v = self.variable(name.trim_start_matches('?'));
        self.projection.push(v);
        self
    }

    /// Interns a variable by name (without the leading `?`).
    pub fn variable(&mut self, name: &str) -> Var {
        if let Some(&v) = self.var_ids.get(name) {
            return v;
        }
        let v = Var(self.var_names.len() as u32);
        self.var_ids.insert(name.to_owned(), v);
        self.var_names.push(name.to_owned());
        v
    }

    fn term(&mut self, label: &str) -> Result<Term, QueryError> {
        if let Some(name) = label.strip_prefix('?') {
            if name.is_empty() {
                return Err(QueryError::Parse("empty variable name '?'".into()));
            }
            Ok(Term::Var(self.variable(name)))
        } else {
            let label = label.trim_start_matches(':');
            self.dictionary
                .node_id(label)
                .map(Term::Const)
                .ok_or_else(|| QueryError::UnknownNode(label.to_owned()))
        }
    }

    /// Adds a triple pattern given as string terms and a predicate label.
    /// The predicate label may carry a leading `:` which is ignored.
    pub fn pattern(
        &mut self,
        subject: &str,
        predicate: &str,
        object: &str,
    ) -> Result<&mut Self, QueryError> {
        let predicate = predicate.trim_start_matches(':');
        let p = self
            .dictionary
            .predicate_id(predicate)
            .ok_or_else(|| QueryError::UnknownPredicate(predicate.to_owned()))?;
        let s = self.term(subject)?;
        let o = self.term(object)?;
        self.patterns.push(TriplePattern::new(s, p, o));
        Ok(self)
    }

    /// Adds a pattern whose ends are already resolved terms.
    pub fn pattern_terms(&mut self, subject: Term, predicate: PredId, object: Term) -> &mut Self {
        self.patterns
            .push(TriplePattern::new(subject, predicate, object));
        self
    }

    /// Finishes the query. If no projection was given, all variables are
    /// projected in order of first appearance (SPARQL `SELECT *`).
    pub fn build(self) -> Result<ConjunctiveQuery, QueryError> {
        let projection = if self.projection.is_empty() {
            (0..self.var_names.len() as u32).map(Var).collect()
        } else {
            self.projection
        };
        ConjunctiveQuery::new(self.patterns, projection, self.distinct, self.var_names)
    }
}

/// Convenience: resolves a constant node label to a term, for use with
/// [`CqBuilder::pattern_terms`].
pub fn const_term(dictionary: &Dictionary, label: &str) -> Result<Term, QueryError> {
    dictionary
        .node_id(label)
        .map(|n: NodeId| Term::Const(n))
        .ok_or_else(|| QueryError::UnknownNode(label.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wireframe_graph::GraphBuilder;

    fn dict() -> Dictionary {
        let mut b = GraphBuilder::new();
        b.add("alice", "knows", "bob");
        b.add("bob", "worksAt", "acme");
        b.build().dictionary().clone()
    }

    #[test]
    fn builder_simple_chain() {
        let d = dict();
        let mut b = CqBuilder::new(&d);
        b.pattern("?x", "knows", "?y").unwrap();
        b.pattern("?y", "worksAt", "?z").unwrap();
        let q = b.build().unwrap();
        assert_eq!(q.num_patterns(), 2);
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.projection().len(), 3, "SELECT * projects all variables");
        assert_eq!(q.var_name(Var(0)), "x");
        assert_eq!(q.var_by_name("z"), Some(Var(2)));
    }

    #[test]
    fn builder_with_constant() {
        let d = dict();
        let mut b = CqBuilder::new(&d);
        b.pattern("?x", "worksAt", "acme").unwrap();
        let q = b.build().unwrap();
        let p = q.patterns()[0];
        assert!(p.subject.is_var());
        assert!(p.object.as_const().is_some());
        assert_eq!(p.variables().count(), 1);
    }

    #[test]
    fn builder_rejects_unknown_predicate() {
        let d = dict();
        let mut b = CqBuilder::new(&d);
        let err = b.pattern("?x", "nonexistent", "?y").unwrap_err();
        assert!(matches!(err, QueryError::UnknownPredicate(_)));
    }

    #[test]
    fn builder_rejects_unknown_constant() {
        let d = dict();
        let mut b = CqBuilder::new(&d);
        let err = b.pattern("?x", "knows", "nobody").unwrap_err();
        assert!(matches!(err, QueryError::UnknownNode(_)));
    }

    #[test]
    fn empty_query_is_rejected() {
        let d = dict();
        let b = CqBuilder::new(&d);
        assert!(matches!(b.build(), Err(QueryError::EmptyQuery)));
    }

    #[test]
    fn explicit_projection_and_distinct() {
        let d = dict();
        let mut b = CqBuilder::new(&d);
        b.distinct();
        b.project("?y");
        b.pattern("?x", "knows", "?y").unwrap();
        let q = b.build().unwrap();
        assert!(q.distinct());
        assert_eq!(q.projection(), &[Var(0)]);
        assert_eq!(q.var_name(q.projection()[0]), "y");
    }

    #[test]
    fn new_rejects_out_of_range_variable() {
        let p = TriplePattern::new(Var(5), PredId(0), Var(0));
        let err = ConjunctiveQuery::new(vec![p], vec![], false, vec!["x".into()]).unwrap_err();
        assert!(matches!(err, QueryError::UnknownVariable(_)));
    }

    #[test]
    fn new_rejects_a_projected_variable_no_pattern_binds() {
        let d = dict();
        let mut b = CqBuilder::new(&d);
        b.project("?z");
        b.pattern("?x", "knows", "?y").unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            QueryError::UnknownVariable("?z".into())
        );
    }

    #[test]
    fn display_is_parseable_shape() {
        let d = dict();
        let mut b = CqBuilder::new(&d);
        b.pattern("?x", "knows", "?y").unwrap();
        let q = b.build().unwrap();
        let s = q.to_string();
        assert!(s.starts_with("SELECT"));
        assert!(s.contains("?x"));
    }

    #[test]
    fn pattern_mentions() {
        let p = TriplePattern::new(Var(0), PredId(1), Var(2));
        assert!(p.mentions(Var(0)));
        assert!(p.mentions(Var(2)));
        assert!(!p.mentions(Var(1)));
    }

    #[test]
    fn const_term_helper() {
        let d = dict();
        assert!(const_term(&d, "acme").is_ok());
        assert!(const_term(&d, "missing").is_err());
    }
}
