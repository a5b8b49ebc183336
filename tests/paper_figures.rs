//! Figure-by-figure artifact reproduction.
//!
//! Every figure of the paper is a language or rule artifact; this suite
//! asserts each one is reproduced by the public API. The table in
//! `DESIGN.md` §5 maps figures to modules; `EXPERIMENTS.md` records the
//! quantitative counterparts.

use eds_adt::{collection, CollKind, Type, Value};
use eds_core::{figure10_constraints, Dbms};
use eds_lera::Expr;
use eds_rewrite::{parse_source, SourceItem};

/// Figure 2 DDL, as printed in the paper (OCR glitches repaired).
const FIGURE2: &str =
    "TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western') ;
     TYPE Point TUPLE (ABS : REAL, ORD : REAL) ;
     TYPE Person OBJECT TUPLE ( Name : CHAR, Firstname : SET OF CHAR,
                                Caricature : LIST OF Point) ;
     TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC)
       FUNCTION IncreaseSalary(This Actor, Val NUMERIC) ;
     TYPE Text LIST OF CHAR ;
     TYPE SetCategory SET OF Category ;
     TYPE Pairs LIST OF TUPLE (Pros : INT, Cons : INT) ;
     TABLE FILM ( Numf : NUMERIC, Title : CHAR, Categories : SetCategory) ;
     TABLE APPEARS_IN ( Numf : NUMERIC, Refactor : Actor) ;
     TABLE DOMINATE ( Numf : NUMERIC, Refactor1 : Actor, Refactor2 : Actor, Score : Pairs) ;";

fn film_dbms() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(FIGURE2).unwrap();
    dbms
}

#[test]
fn figure1_generic_adt_hierarchy() {
    // The collection hierarchy with its function library: conversion,
    // emptiness, equality, insert/remove at the collection level; union,
    // intersection, difference, include, choice, member on sets; append
    // and access on lists.
    let dbms = film_dbms();
    let types = &dbms.db.catalog.types;
    let coll = Type::AnyColl(Box::new(Type::Any));
    for ty in [
        Type::set_of(Type::Int),
        Type::bag_of(Type::Int),
        Type::list_of(Type::Int),
        Type::array_of(Type::Int),
    ] {
        assert!(types.isa(&ty, &coll), "{ty} ISA collection");
    }
    // Figure-1 functions all registered.
    for f in [
        "CONVERT",
        "ISEMPTY",
        "EQUAL",
        "INSERT",
        "REMOVE",
        "MEMBER",
        "UNION",
        "INTERSECTION",
        "DIFFERENCE",
        "INCLUDE",
        "CHOICE",
        "APPEND",
        "NTH",
        "MAKESET",
        "ALL",
        "EXIST",
    ] {
        assert!(dbms.db.functions.contains(f), "missing builtin {f}");
    }
    // Convert bag -> set removes duplicates (the paper's example).
    let bag = Value::bag(vec![1.into(), 1.into(), 2.into()]);
    let set = collection::convert(&bag, CollKind::Set).unwrap();
    assert_eq!(set, Value::set(vec![1.into(), 2.into()]));
}

#[test]
fn figure2_schema_installs() {
    let dbms = film_dbms();
    let catalog = &dbms.db.catalog;
    assert_eq!(catalog.table("FILM").unwrap().arity(), 3);
    assert_eq!(catalog.table("DOMINATE").unwrap().arity(), 4);
    assert!(catalog.types.get("Actor").unwrap().is_object);
    assert_eq!(
        catalog.types.get("Actor").unwrap().supertype.as_deref(),
        Some("Person")
    );
    assert_eq!(
        catalog.types.get("Actor").unwrap().methods[0].name,
        "IncreaseSalary"
    );
    assert_eq!(catalog.types.enum_values("Category").unwrap().len(), 4);
}

#[test]
fn figure3_and_section31_translation() {
    // Section 3.1 shows the translation
    //   search((APPEARS-IN, FILM), [1.1=2.1 ∧ name(1.2)='Quinn'
    //          ∧ member('Adventure',2.3)], (2.2, 2.3, salary(1.2)))
    // Our FROM order is (FILM, APPEARS_IN), so indices mirror.
    let dbms = film_dbms();
    let prepared = dbms
        .prepare(
            "SELECT Title, Categories, Salary(Refactor) \
             FROM FILM, APPEARS_IN \
             WHERE FILM.Numf = APPEARS_IN.Numf \
             AND Name(Refactor) = 'Quinn' \
             AND MEMBER('Adventure', Categories) ;",
        )
        .unwrap();
    assert_eq!(
        prepared.expr.to_string(),
        "search((FILM, APPEARS_IN), \
         [1.1 = 2.1 ∧ PROJECT(VALUE(2.2), Name) = 'Quinn' ∧ MEMBER('Adventure', 1.3)], \
         (1.2, 1.3, PROJECT(VALUE(2.2), Salary)))"
    );
}

#[test]
fn figure4_nested_view_artifacts() {
    let mut dbms = film_dbms();
    dbms.execute_ddl(
        "CREATE VIEW FilmActors (Title, Categories, Actors) AS \
         SELECT Title, Categories, MakeSet(Refactor) \
         FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf \
         GROUP BY Title, Categories ;",
    )
    .unwrap();
    // The view's registered schema exposes a SET OF Actor attribute.
    let schema = dbms.db.catalog.relation("FilmActors").unwrap();
    assert_eq!(schema.columns[2].name, "Actors");
    assert_eq!(
        schema.columns[2].ty,
        Type::set_of(Type::Named("Actor".into()))
    );
    // The translation uses the nest operator.
    let prepared = dbms.prepare("SELECT Title FROM FilmActors ;").unwrap();
    let Expr::Search { inputs, .. } = &prepared.expr else {
        panic!("expected search")
    };
    assert!(matches!(&inputs[0], Expr::Nest { .. }));
}

#[test]
fn figure5_fixpoint_form() {
    // Section 3.2 shows
    //   fix(BETTER_THAN, union({DOMINATE,
    //       search((BETTER_THAN, BETTER_THAN), [1.2=2.1], (1.1, 2.2))}))
    let mut dbms = film_dbms();
    dbms.execute_ddl(
        "CREATE VIEW BETTER_THAN (Refactor1, Refactor2) AS \
         ( SELECT Refactor1, Refactor2 FROM DOMINATE \
           UNION \
           SELECT B1.Refactor1, B2.Refactor2 \
           FROM BETTER_THAN B1, BETTER_THAN B2 \
           WHERE B1.Refactor2 = B2.Refactor1 ) ;",
    )
    .unwrap();
    let prepared = dbms.prepare("SELECT Refactor1 FROM BETTER_THAN ;").unwrap();
    let Expr::Search { inputs, .. } = &prepared.expr else {
        panic!("expected search")
    };
    let rendered = inputs[0].to_string();
    assert!(
        rendered.starts_with("fix(BETTER_THAN, union({search((DOMINATE)"),
        "{rendered}"
    );
    assert!(
        rendered.contains("search((BETTER_THAN, BETTER_THAN), [1.2 = 2.1], (1.1, 2.2))"),
        "{rendered}"
    );
}

#[test]
fn figure6_rule_language_corpus() {
    // Every rule printed in the paper parses in our Figure-6 grammar
    // (modulo the documented notation mapping: attribute access is
    // PROJECT(x, A), set literals use {..}, methods carry the extra
    // context arguments the prose describes).
    let corpus = "\
        // Section 4.1 example rule\n\
        Example : F(SET(x*, G(y, f))) / MEMBER(y, x*), f = TRUE --> F(SET(x*)) / ;\n\
        // Figure 7\n\
        SearchMerging : SEARCH(LIST(x*, SEARCH(z, g, b), v*), f, a) / \
          --> SEARCH(APPEND(x*, z, v*), f' AND g', a') / \
          SUBSTITUTE(f, x*, z, b, f'), SUBSTITUTE(a, x*, z, b, a'), SHIFT(g, x*, g') ;\n\
        UnionMerging : UNION(SET(x*, UNION(z))) / --> UNION(SET_UNION(x*, z)) / ;\n\
        // Figure 8\n\
        SearchThroughUnion : SEARCH(LIST(x*, UNION(SET(u, v)), y*), f, a) / --> \
          UNION(SET(SEARCH(APPEND(x*, LIST(u), y*), f, a), \
                    SEARCH(APPEND(x*, LIST(v), y*), f, a))) / ;\n\
        // Figure 9\n\
        Alexander : SEARCH(LIST(x*, FIX(r, e), y*), f, a) / ADORNMENT(x*, r, f, s) \
          --> SEARCH(LIST(x*, u, y*), f', a) / ALEXANDER(r, e, x*, f, s, u, f') ;\n\
        // Figure 10\n\
        PointAbs : F(x) / ISA(x, Point) --> F(x) AND PROJECT(x, ABS) > 0 / ;\n\
        CategoryDom : F(x) / ISA(x, Category) --> \
          F(x) AND MEMBER(x, {'Comedy', 'Adventure', 'Science Fiction', 'Western'}) / ;\n\
        // Figure 11\n\
        EqTrans : x = y AND y = z / --> x = y AND y = z AND x = z / ;\n\
        IncTrans : INCLUDE(x, y) AND INCLUDE(y, z) / ISA(x, Set) AND ISA(y, Set) AND ISA(z, Set) \
          --> INCLUDE(x, y) AND INCLUDE(y, z) AND INCLUDE(x, z) / ;\n\
        // Figure 12\n\
        GtLe : x > y AND x <= y / --> TRUE / ;\n\
        AndFalse : f AND FALSE / --> FALSE / ;\n\
        DiffZero : x - y = 0 / ISA(x, constant), ISA(y, constant) --> x = y / ;\n\
        Fold : F(x, y) / ISA(x, constant), ISA(y, constant) --> a / EVALUATE(F(x, y), a) ;\n\
        // Section 4.2 meta-rules\n\
        block(rules1, {SearchMerging, UnionMerging}, 100) ;\n\
        block(rules2, {GtLe, AndFalse}, INF) ;\n\
        seq((rules1, rules2), 2) ;";
    let items = parse_source(corpus).unwrap();
    let rules = items
        .iter()
        .filter(|i| matches!(i, SourceItem::Rule(_)))
        .count();
    let blocks = items
        .iter()
        .filter(|i| matches!(i, SourceItem::Block(_)))
        .count();
    assert_eq!(rules, 13);
    assert_eq!(blocks, 2);
    assert!(items.iter().any(|i| matches!(i, SourceItem::Seq(_))));
}

#[test]
fn figure10_constraints_load_and_fire() {
    let mut dbms = film_dbms();
    assert_eq!(
        dbms.add_constraint_source(figure10_constraints()).unwrap(),
        3
    );
    assert_eq!(dbms.constraints.len(), 3);
    // Section 6.1: MEMBER('Cartoon', <Category domain>) is inconsistent.
    let sql = "SELECT Title FROM FILM \
               WHERE MEMBER('Cartoon', MAKESET('Comedy', 'Adventure', 'Science Fiction', 'Western')) ;";
    let rewritten = dbms.rewrite(&dbms.prepare(sql).unwrap()).unwrap();
    let Expr::Search { pred, .. } = &*rewritten.expr else {
        panic!()
    };
    assert!(pred.is_false());
}

#[test]
fn figure6_rules_roundtrip_through_display() {
    // The knowledge base renders back into parseable rule language.
    let dbms = Dbms::new().unwrap();
    for rule in dbms.rewriter.rules().iter() {
        let rendered = format!("{rule} ;");
        let reparsed = parse_source(&rendered)
            .unwrap_or_else(|e| panic!("rule {} does not re-parse: {e}\n{rendered}", rule.name));
        let SourceItem::Rule(back) = &reparsed[0] else {
            panic!("expected rule")
        };
        assert_eq!(&back.lhs, &rule.lhs, "lhs of {}", rule.name);
        assert_eq!(&back.rhs, &rule.rhs, "rhs of {}", rule.name);
    }
}

#[test]
fn builtin_knowledge_base_inventory() {
    // The default optimizer: 6 rule files, 6 blocks, 1 sequence.
    let dbms = Dbms::new().unwrap();
    assert!(
        dbms.rewriter.rules().len() >= 30,
        "rules: {}",
        dbms.rewriter.rules().len()
    );
    let blocks: Vec<&str> = dbms
        .rewriter
        .strategy()
        .blocks()
        .map(|b| b.name.as_str())
        .collect();
    for expected in [
        "normalize",
        "merging",
        "fixpoint",
        "permutation",
        "semantic",
        "simplify",
    ] {
        assert!(blocks.contains(&expected), "missing block {expected}");
    }
    let seq = dbms.rewriter.strategy().sequence.as_ref().unwrap();
    assert!(
        seq.blocks
            .iter()
            .filter(|b| b.as_str() == "merging")
            .count()
            >= 2,
        "merging must appear more than once in the default sequence"
    );
}
