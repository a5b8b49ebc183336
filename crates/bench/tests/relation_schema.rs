//! `CoreEnv::rel_schema` reads a relation name's column types straight
//! from the catalog; every other term is converted to a plan whose schema
//! is inferred. For every table and view of the bench fixtures, in the
//! catalog's spelling and in lower case, the direct answer is what
//! inference gives for a scan of the name — and an unknown name is
//! `None` both ways.

use eds_bench::{
    exec_workloads, film_dbms, filter_pushdown_dbms, graph_dbms, join3_dbms, opt_level_workloads,
    product_dbms, scan_dbms, simple_table,
};
use eds_core::rewrite::{Term, TermEnv};
use eds_core::{CoreEnv, Dbms};
use eds_lera::{infer_schema, Expr, SchemaCtx};

#[test]
fn a_relation_name_reads_the_inferred_column_types() {
    let mut fixtures: Vec<(String, Dbms)> = vec![
        ("film".into(), film_dbms(20, 10, 7)),
        ("graph".into(), graph_dbms(10, 5, 7)),
        ("product".into(), product_dbms(10)),
        ("scan".into(), scan_dbms(100, 7)),
        ("join3".into(), join3_dbms(20, 5, 5)),
        ("pushdown".into(), filter_pushdown_dbms(10, 100)),
        ("simple".into(), simple_table(10)),
    ];
    let workloads = exec_workloads().into_iter().chain(opt_level_workloads());
    fixtures.extend(workloads.map(|(id, dbms, _)| (id.to_owned(), dbms)));
    let mut names_checked = 0;
    for (id, dbms) in &fixtures {
        let catalog = &dbms.db.catalog;
        let env = CoreEnv {
            db: &dbms.db,
            constraints: &dbms.constraints,
        };
        let inferred = |name: &str| {
            let schema = infer_schema(&Expr::base(name), &SchemaCtx::new(catalog)).ok()?;
            Some(schema.fields.into_iter().map(|f| f.ty).collect::<Vec<_>>())
        };
        let names = catalog
            .table_names()
            .into_iter()
            .chain(catalog.view_names());
        for name in names {
            for spelling in [name.to_owned(), name.to_lowercase()] {
                let want = inferred(&spelling);
                assert!(want.is_some(), "{id}: {spelling} has no schema");
                assert_eq!(
                    env.rel_schema(&Term::atom(spelling.as_str())),
                    want,
                    "{id}: {spelling}"
                );
                names_checked += 1;
            }
        }
        let unknown = Term::atom("NO_SUCH_RELATION");
        assert_eq!(env.rel_schema(&unknown), None, "{id}");
    }
    assert!(names_checked > 20, "{names_checked} names");
}
