//! Abstract syntax of ESQL statements.

use eds_adt::CollKind;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A `TYPE` declaration.
    TypeDecl(TypeDecl),
    /// A `TABLE` declaration.
    TableDecl(TableDecl),
    /// A `CREATE VIEW` (possibly recursive — the ESQL deductive
    /// capability).
    ViewDecl(ViewDecl),
    /// An `INSERT INTO ... VALUES ...` statement.
    Insert(InsertStmt),
    /// A query.
    Query(Query),
}

/// `INSERT INTO table VALUES (e, ...), (e, ...)`. Value expressions must
/// be constant (literals and constant constructor calls like
/// `MakeSet('a', 'b')`).
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    /// Target table.
    pub table: String,
    /// Rows of value expressions.
    pub rows: Vec<Vec<Expr>>,
}

/// Reference to a type in declarations.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeRef {
    /// `BOOL`
    Bool,
    /// `INT`
    Int,
    /// `REAL`
    Real,
    /// `NUMERIC`
    Numeric,
    /// `CHAR`
    Char,
    /// A user-declared named type.
    Named(String),
    /// `TUPLE (a : T, ...)`
    Tuple(Vec<(String, TypeRef)>),
    /// `SET OF T`, `LIST OF T`, ...
    Coll(CollKind, Box<TypeRef>),
}

/// Body of a `TYPE` declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeDeclBody {
    /// `ENUMERATION OF ('a', 'b')`
    Enumeration(Vec<String>),
    /// Any structural body (`TUPLE(...)`, `LIST OF CHAR`, alias).
    Structure(TypeRef),
}

/// A `FUNCTION` clause on a type declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    /// Method name.
    pub name: String,
    /// `(param Type, ...)`.
    pub params: Vec<(String, TypeRef)>,
    /// Optional result type.
    pub result: Option<TypeRef>,
}

/// `TYPE name [SUBTYPE OF s] [OBJECT] body [FUNCTION ...]*`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDecl {
    /// Type name.
    pub name: String,
    /// Declared supertype.
    pub supertype: Option<String>,
    /// Object identity flag.
    pub is_object: bool,
    /// Body.
    pub body: TypeDeclBody,
    /// Declared methods.
    pub functions: Vec<FunctionDecl>,
}

/// `TABLE name (col : Type, ...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDecl {
    /// Table name.
    pub name: String,
    /// Column declarations.
    pub columns: Vec<(String, TypeRef)>,
}

/// `CREATE VIEW name (cols) AS query`.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDecl {
    /// View name.
    pub name: String,
    /// Result column names.
    pub columns: Vec<String>,
    /// Defining query (a `UNION` of blocks for recursive views).
    pub query: Query,
}

impl ViewDecl {
    /// True when the defining query references the view itself — the
    /// ESQL encoding of DATALOG recursion (Figure 5).
    pub fn is_recursive(&self) -> bool {
        fn query_refs(q: &Query, name: &str) -> bool {
            match q {
                Query::Select(core) => core.from.iter().any(|t| t.name.eq_ignore_ascii_case(name)),
                Query::Union(a, b) => query_refs(a, name) || query_refs(b, name),
            }
        }
        query_refs(&self.query, &self.name)
    }
}

/// A query: a select block or a union of queries.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `SELECT ...`
    Select(SelectCore),
    /// `q1 UNION q2`
    Union(Box<Query>, Box<Query>),
}

/// One `SELECT` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectCore {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projected expressions with optional aliases; `None` items denote
    /// `SELECT *`.
    pub projections: Vec<SelectItem>,
    /// `FROM` relations.
    pub from: Vec<TableRef>,
    /// `WHERE` qualification.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` qualification.
    pub having: Option<Expr>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `SELECT *`.
    Wildcard,
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A `FROM` item: relation name with optional alias (`BETTER_THAN B1`).
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table or view name.
    pub name: String,
    /// Optional correlation name.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this relation is referenced by in the query scope.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// The functor name used in LERA terms.
    pub fn functor(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// An ESQL scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference `[qualifier.]name`.
    Column {
        /// Optional table/alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// String literal.
    Str(String),
    /// `TRUE`/`FALSE`.
    Bool(bool),
    /// `NULL`.
    Null,
    /// `?` — a positional statement parameter, numbered left to right
    /// from 0 in source order, bound to a value at execute time.
    Param(u16),
    /// Function or attribute application `Name(args)` — attributes applied
    /// as functions perform projection (Section 2.1).
    Call {
        /// Function/attribute name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT e`.
    Not(Box<Expr>),
    /// `ALL (e)` set quantifier.
    All(Box<Expr>),
    /// `EXIST (e)` set quantifier.
    Exist(Box<Expr>),
    /// `e IN (a, b, c)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
    },
    /// `e IN (SELECT ...)` — an (uncorrelated) subquery membership test.
    InQuery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery (must produce a single column).
        query: Box<Query>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select_from(names: &[&str]) -> Query {
        Query::Select(SelectCore {
            distinct: false,
            projections: vec![SelectItem::Wildcard],
            from: names
                .iter()
                .map(|n| TableRef {
                    name: (*n).to_owned(),
                    alias: None,
                })
                .collect(),
            where_clause: None,
            group_by: vec![],
            having: None,
        })
    }

    #[test]
    fn recursion_detected_through_union() {
        let view = ViewDecl {
            name: "BETTER_THAN".into(),
            columns: vec!["a".into(), "b".into()],
            query: Query::Union(
                Box::new(select_from(&["DOMINATE"])),
                Box::new(select_from(&["BETTER_THAN", "BETTER_THAN"])),
            ),
        };
        assert!(view.is_recursive());
        let plain = ViewDecl {
            name: "V".into(),
            columns: vec![],
            query: select_from(&["FILM"]),
        };
        assert!(!plain.is_recursive());
    }

    #[test]
    fn table_ref_binding_name() {
        let t = TableRef {
            name: "BETTER_THAN".into(),
            alias: Some("B1".into()),
        };
        assert_eq!(t.binding_name(), "B1");
    }
}
