//! Bottom-up schema derivation: for a corpus of translation shapes, the
//! schema the translator derives level by level has the field types that
//! `infer_schema` re-derives from the finished expression, the expression
//! itself is pinned, and a stack of views translates to a plan that grows
//! by the same amount per level.

use eds_adt::Type;
use eds_esql::{install_source, parse_query, Catalog};
use eds_lera::{infer_schema, translate_query, Expr, Schema, SchemaCtx};

const MAX_DEPTH: usize = 32;

fn catalog() -> Catalog {
    let mut ddl = String::from(
        "TYPE Person OBJECT TUPLE ( Name : CHAR ) ;
         TYPE Actor SUBTYPE OF Person OBJECT TUPLE ( Salary : NUMERIC ) ;
         TABLE APPEARS_IN ( Numf : INT, Refactor : Actor ) ;
         TABLE EDGE ( Src : INT, Dst : INT ) ;
         TABLE BASE ( K : INT, A : INT, B : INT ) ;
         CREATE VIEW TC (Src, Dst) AS
           ( SELECT Src, Dst FROM EDGE
             UNION SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src ) ;\n",
    );
    let mut prev = "BASE".to_owned();
    for d in 1..=MAX_DEPTH {
        ddl.push_str(&format!(
            "CREATE VIEW V{d} (K, A, B) AS SELECT K, A, B FROM {prev} WHERE A >= {d} ;\n"
        ));
        prev = format!("V{d}");
    }
    let mut parts = Vec::new();
    for b in 0..8 {
        ddl.push_str(&format!("TABLE PART{b} ( K : INT, P : INT ) ;\n"));
        parts.push(format!("SELECT K, P FROM PART{b}"));
    }
    ddl.push_str(&format!(
        "CREATE VIEW ALLPARTS (K, P) AS ( {} ) ;",
        parts.join(" UNION ")
    ));
    let mut c = Catalog::new();
    install_source(&mut c, &ddl).unwrap();
    c
}

fn types(s: &Schema) -> Vec<&Type> {
    s.fields.iter().map(|f| &f.ty).collect()
}

/// Translate `sql`, check the derived schema's types against a fresh
/// inference over the whole expression, and return the expression.
fn derive(c: &Catalog, sql: &str) -> (Expr, Schema) {
    let ctx = SchemaCtx::new(c);
    let (expr, schema) = translate_query(&parse_query(sql).unwrap(), &ctx).unwrap();
    let inferred = infer_schema(&expr, &ctx).unwrap();
    assert_eq!(types(&schema), types(&inferred), "types for {sql}");
    (expr, schema)
}

/// The canonical form of `V{depth}`: one `search` per view level around
/// the base table.
fn stack_plan(depth: usize) -> String {
    let mut plan = "BASE".to_owned();
    for d in 1..=depth {
        plan = format!("search(({plan}), [1.2 >= {d}], (1.1, 1.2, 1.3))");
    }
    plan
}

#[test]
fn derived_types_match_inference_and_plans_are_pinned() {
    let c = catalog();
    let v1 = stack_plan(1);
    let v8 = stack_plan(8);
    let tc = "fix(TC, union({search((EDGE), [TRUE], (1.1, 1.2)), \
              search((TC, TC), [1.2 = 2.1], (1.1, 2.2))}))";
    let cases = [
        (
            "SELECT K, P FROM ALLPARTS WHERE P < 5 ;",
            "search((union({search((PART0), [TRUE], (1.1, 1.2)), \
             search((PART1), [TRUE], (1.1, 1.2)), search((PART2), [TRUE], (1.1, 1.2)), \
             search((PART3), [TRUE], (1.1, 1.2)), search((PART4), [TRUE], (1.1, 1.2)), \
             search((PART5), [TRUE], (1.1, 1.2)), search((PART6), [TRUE], (1.1, 1.2)), \
             search((PART7), [TRUE], (1.1, 1.2))})), [1.2 < 5], (1.1, 1.2))"
                .to_owned(),
            vec!["K", "P"],
        ),
        (
            "SELECT Dst FROM TC WHERE Src = 0 ;",
            format!("search(({tc}), [1.1 = 0], (1.2))"),
            vec!["Dst"],
        ),
        (
            "SELECT B, MakeSet(K), COUNT(MakeSet(K)) AS N FROM BASE GROUP BY B ;",
            "project(nest(search((BASE), [TRUE], (1.3, 1.1)), (2), (1), SET), \
             (1.1, 1.2, COUNT(1.2)))"
                .to_owned(),
            vec!["B", "K", "N"],
        ),
        (
            "SELECT B, COUNT(MakeBag(A)) AS N FROM V8 GROUP BY B HAVING N > 2 ;",
            format!(
                "filter(project(nest(search(({v8}), [TRUE], (1.3, 1.2)), (2), (1), BAG), \
                 (1.1, COUNT(1.2))), [1.2 > 2])"
            ),
            vec!["B", "N"],
        ),
        (
            "SELECT DISTINCT A FROM V1 WHERE K IN (SELECT Src FROM TC) ;",
            format!(
                "dedup(search(({v1}, dedup(search(({tc}), [TRUE], (1.1)))), \
                 [1.1 = 2.1], (1.2)))"
            ),
            vec!["A"],
        ),
        (
            "SELECT Numf, Salary(Refactor) FROM APPEARS_IN WHERE Name(Refactor) = 'Quinn' ;",
            "search((APPEARS_IN), [PROJECT(VALUE(1.2), Name) = 'Quinn'], \
             (1.1, PROJECT(VALUE(1.2), Salary)))"
                .to_owned(),
            vec!["Numf", "Salary"],
        ),
        (
            "SELECT K FROM V8 WHERE B = ? AND K > ? ;",
            format!("search(({v8}), [1.3 = ?0 ∧ 1.1 > ?1], (1.1))"),
            vec!["K"],
        ),
    ];
    for (sql, pinned, names) in cases {
        let (expr, schema) = derive(&c, sql);
        assert_eq!(expr.to_string(), pinned, "plan for {sql}");
        assert_eq!(schema.names(), names, "names for {sql}");
    }
    for depth in [1, 8, 32] {
        let sql = format!("SELECT K FROM V{depth} WHERE B = 3 ;");
        let (expr, schema) = derive(&c, &sql);
        let pinned = format!("search(({}), [1.3 = 3], (1.1))", stack_plan(depth));
        assert_eq!(expr.to_string(), pinned, "plan for {sql}");
        assert_eq!(schema.names(), ["K"]);
    }
}

#[test]
fn a_view_stack_grows_by_one_level_per_view() {
    let c = catalog();
    let sizes: Vec<(usize, usize)> = (1..=MAX_DEPTH)
        .map(|d| {
            let (expr, _) = derive(&c, &format!("SELECT K FROM V{d} WHERE B = 3 ;"));
            (expr.node_count(), expr.to_string().len())
        })
        .collect();
    // One `search(…, [1.2 >= level], (1.1, 1.2, 1.3))` wrapper a level: a
    // fixed text plus the digits of the level.
    let fixed = sizes[1].1 - sizes[0].1 - 1;
    for level in 2..=MAX_DEPTH {
        let ((n0, len0), (n1, len1)) = (sizes[level - 2], sizes[level - 1]);
        assert_eq!(n1 - n0, 1, "nodes added by V{level}");
        let digits = level.to_string().len();
        assert_eq!(len1 - len0, fixed + digits, "text added by V{level}");
    }
}
