//! Schema, data and statement-text generators. The benchmark owns
//! these (they resemble `crates/bench`'s but share no code with it), so
//! an edit to another crate's generators cannot move its numbers. Sizes
//! are constants; only values, literals and orders depend on the seed.

use eds_adt::Value;
use eds_engine::Row;

use crate::rng::Rng;

/// Literals at or above this value are larger than every stored
/// integer, so `col < NONCE_BASE + n` is true on every row: a conjunct
/// that makes a statement's text unique without changing its result.
pub const NONCE_BASE: u64 = 1_000_000;

fn int(i: i64) -> Value {
    Value::Int(i)
}

// ---- view stack: BASE(K, A, B) under selective views V1..Vdepth ------

pub fn stack_ddl(table: &str, view: &str, depth: usize) -> String {
    let mut ddl = format!("TABLE {table} (K : INT, A : INT, B : INT);\n");
    let mut prev = table.to_owned();
    for d in 1..=depth {
        ddl.push_str(&format!(
            "CREATE VIEW {view}{d} (K, A, B) AS SELECT K, A, B FROM {prev} WHERE A >= {d} ;\n"
        ));
        prev = format!("{view}{d}");
    }
    ddl
}

/// `K` is the row number (a key), `A` in `0..97`, `B` in `0..13`.
pub fn stack_rows(rng: &mut Rng, rows: i64) -> Vec<Row> {
    (0..rows)
        .map(|k| vec![int(k), int(rng.range(0, 97)), int(rng.range(0, 13))])
        .collect()
}

// ---- union view: PART0..PARTn(K, P) under ALLPARTS -------------------

pub fn union_ddl(branches: usize) -> String {
    let mut ddl = String::new();
    let mut selects = Vec::new();
    for b in 0..branches {
        ddl.push_str(&format!("TABLE PART{b} (K : INT, P : INT);\n"));
        selects.push(format!("SELECT K, P FROM PART{b}"));
    }
    ddl.push_str(&format!(
        "CREATE VIEW ALLPARTS (K, P) AS ( {} ) ;\n",
        selects.join(" UNION ")
    ));
    ddl
}

pub fn part_rows(branch: usize, rows: i64) -> Vec<Row> {
    (0..rows)
        .map(|k| vec![int(k), int(branch as i64)])
        .collect()
}

// ---- wide predicate: T(X, Y) ------------------------------------------

pub const WIDE_DDL: &str = "TABLE T (X : INT, Y : INT);\n";

pub fn wide_rows(rng: &mut Rng, rows: i64) -> Vec<Row> {
    (0..rows)
        .map(|x| vec![int(x), int(rng.range(0, 101))])
        .collect()
}

/// A 22-conjunct qualification: two leading conjuncts (given) plus ten
/// foldable `X < i + (i+5)` and ten kept `Y <> i`.
pub fn wide_sql(lead_x: &str, lead_y: &str) -> String {
    let mut parts = vec![format!("X < {lead_x}"), format!("Y <> {lead_y}")];
    for i in 0..10 {
        parts.push(format!("X < {} + {}", i, i + 5));
        parts.push(format!("Y <> {i}"));
    }
    format!("SELECT X FROM T WHERE {} ;", parts.join(" AND "))
}

// ---- graph: EDGE(Src, Dst) under the recursive TC view ---------------

pub const GRAPH_DDL: &str = "TABLE EDGE (Src : INT, Dst : INT);
CREATE VIEW TC (Src, Dst) AS
( SELECT Src, Dst FROM EDGE
  UNION
  SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src ) ;\n";

/// A chain `0 → 1 → … → nodes-1` plus `extra` short forward edges.
pub fn edge_rows(rng: &mut Rng, nodes: i64, extra: i64) -> Vec<Row> {
    let mut rows: Vec<Row> = (0..nodes - 1).map(|i| vec![int(i), int(i + 1)]).collect();
    for _ in 0..extra {
        let a = rng.range(0, nodes - 1);
        let b = (a + rng.range(1, 5)).min(nodes - 1);
        rows.push(vec![int(a), int(b)]);
    }
    rows
}

// ---- product: an enumeration domain with a declared constraint -------

pub const PRODUCT_DDL: &str = "TYPE Grade ENUMERATION OF ('A', 'B', 'C') ;
TABLE PRODUCT (Id : INT, Grade : Grade, Price : INT, Weight : INT);\n";

pub const PRODUCT_CONSTRAINT: &str =
    "GradeDomain : F(x) / ISA(x, Grade) --> F(x) AND MEMBER(x, {'A', 'B', 'C'}) / ;";

pub fn product_rows(rng: &mut Rng, rows: i64) -> Vec<Row> {
    (0..rows)
        .map(|i| {
            vec![
                int(i),
                Value::str(["A", "B", "C"][rng.below(3) as usize]),
                int(rng.range(0, 1000)),
                int(rng.range(0, 50)),
            ]
        })
        .collect()
}

// ---- film database (Figure 2): objects behind references -------------

pub const FILM_DDL: &str =
    "TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western') ;
TYPE Person OBJECT TUPLE ( Name : CHAR, Firstname : SET OF CHAR) ;
TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC) ;
TYPE SetCategory SET OF Category ;
TABLE FILM ( Numf : NUMERIC, Title : CHAR, Categories : SetCategory) ;
TABLE APPEARS_IN ( Numf : NUMERIC, Refactor : Actor) ;\n";

/// The tuple value of actor `i`; salaries span 5 000..45 000.
pub fn actor_value(rng: &mut Rng, i: i64) -> Value {
    Value::Tuple(vec![
        Value::str(format!("Actor{i}")),
        Value::set(vec![]),
        int(5_000 + rng.range(0, 40) * 1_000),
    ])
}

pub fn film_rows(rng: &mut Rng, films: i64) -> Vec<Row> {
    let categories = ["Comedy", "Adventure", "Science Fiction", "Western"];
    (0..films)
        .map(|f| {
            let mut cats: Vec<Value> = categories
                .iter()
                .filter(|_| rng.unit() < 0.4)
                .map(|c| Value::str(*c))
                .collect();
            if cats.is_empty() {
                cats.push(Value::str("Comedy"));
            }
            vec![int(f), Value::str(format!("Film{f}")), Value::set(cats)]
        })
        .collect()
}

/// Three appearances per film, actors drawn from `actor_refs`.
pub fn appears_rows(rng: &mut Rng, films: i64, actor_refs: &[Value]) -> Vec<Row> {
    let mut rows = Vec::new();
    for f in 0..films {
        for _ in 0..3 {
            let a = &actor_refs[rng.below(actor_refs.len() as u64) as usize];
            rows.push(vec![int(f), a.clone()]);
        }
    }
    rows
}

// ---- flat typed scan table and its small dimension --------------------

pub const SCAN_DDL: &str = "TABLE SCAN (K : INT, A : INT, B : INT, Tag : CHAR, G : INT);\n";
pub const DIM_DDL: &str = "TABLE DIM (G : INT, Label : CHAR);\n";

pub const TAGS: [&str; 8] = [
    "hot", "cold", "warm", "cool", "tepid", "mild", "arid", "damp",
];

/// `A` in `0..1000` with every 13th NULL, `B` in `0..1000`, a tag from
/// an 8-word vocabulary, `G` in `0..16`.
pub fn scan_rows(rng: &mut Rng, rows: i64) -> Vec<Row> {
    (0..rows)
        .map(|k| {
            let a = if k % 13 == 5 {
                Value::Null
            } else {
                int(rng.range(0, 1000))
            };
            vec![
                int(k),
                a,
                int(rng.range(0, 1000)),
                Value::str(TAGS[rng.below(8) as usize]),
                int(rng.range(0, 16)),
            ]
        })
        .collect()
}

pub fn dim_rows() -> Vec<Row> {
    (0..16)
        .map(|g| vec![int(g), Value::str(format!("group{g}"))])
        .collect()
}

// ---- the two plan-choice schemas (`ol_join3`, `ol_pushdown`) ---------

pub const JOIN3_DDL: &str = "TABLE R (K : INT, A : INT);
TABLE S (K : INT, J : INT);
TABLE TJ (J : INT, B : INT);
CREATE VIEW RS (K, J) AS SELECT R.K, S.J FROM R, S WHERE R.K = S.K ;\n";

/// `(R, S, TJ)` rows: `rows` in R and S over `keys` join keys, `small`
/// rows in TJ.
pub fn join3_rows(rng: &mut Rng, rows: i64, keys: i64, small: i64) -> [Vec<Row>; 3] {
    let r = (0..rows).map(|i| vec![int(i % keys), int(i)]).collect();
    let s = (0..rows)
        .map(|i| vec![int(i % keys), int(rng.range(0, small))])
        .collect();
    let t = (0..small).map(|j| vec![int(j), int(j * 3)]).collect();
    [r, s, t]
}

pub const PUSHDOWN_DDL: &str = "TABLE U0 (K : INT);
TABLE U1 (K : INT);
TABLE BIGF (K : INT, V : INT);
CREATE VIEW ALLU (K) AS ( SELECT K FROM U0 UNION SELECT K FROM U1 ) ;\n";

/// `(U0, U1, BIGF)` rows; `V` is uniform in `0..500`.
pub fn pushdown_rows(rng: &mut Rng, union_rows: i64, big_rows: i64) -> [Vec<Row>; 3] {
    let u0 = (0..union_rows).map(|i| vec![int(i)]).collect();
    let u1 = (0..union_rows).map(|i| vec![int(i + union_rows)]).collect();
    let big = (0..big_rows)
        .map(|i| vec![int(i % (4 * union_rows)), int(rng.range(0, 500))])
        .collect();
    [u0, u1, big]
}

// ---- literal spelling ---------------------------------------------------

/// ESQL spelling of a bind value.
pub fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_owned(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => panic!("no literal spelling for {other:?}"),
    }
}

/// `sql` with each `?` replaced, left to right, by the spelling of the
/// matching bind: the statement the reference executor is given for a
/// prepared execution.
pub fn literal_sql(sql: &str, binds: &[Value]) -> String {
    let mut next = binds.iter();
    let mut out = String::with_capacity(sql.len() + 8 * binds.len());
    for c in sql.chars() {
        if c == '?' {
            out.push_str(&literal(next.next().expect("more ? than binds")));
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_sql_substitutes_in_order() {
        assert_eq!(
            literal_sql(
                "SELECT K FROM T WHERE A = ? AND B = ? ;",
                &[Value::Int(3), Value::str("o'k")]
            ),
            "SELECT K FROM T WHERE A = 3 AND B = 'o''k' ;"
        );
    }

    #[test]
    fn wide_sql_has_22_conjuncts() {
        assert_eq!(wide_sql("1", "2").matches(" AND ").count(), 21);
    }
}
