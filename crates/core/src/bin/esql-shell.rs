//! An interactive ESQL shell over the rule-based rewriter.
//!
//! ```sh
//! cargo run --bin esql-shell
//! ```
//!
//! Statements end with `;`. Meta-commands start with `.`:
//!
//! ```text
//! .help                 this message
//! .explain <query ;>    show canonical plan, rewritten plan and trace
//! .rules                list the knowledge base (rules per block)
//! .rule <rule ;>        add a rule in the Figure-6 rule language
//! .constraint <rule ;>  declare an integrity constraint
//! .limit <block> <n|INF>   change a block's application limit
//! .lint                 statically analyze the knowledge base
//! .verify [seed]        semantically verify it (prover + differential fuzzer)
//! .level [none|simple|full]  show or set the optimization level
//! .stats                session options; cache, exploration and executor counters
//! .prepare <name> <query ;>   prepare a `?`-parameterized statement
//! .exec <name> [value ...]    execute it with bind values
//! .tables               list tables and views
//! .quit                 exit
//! ```

use std::collections::HashMap;
use std::io::{BufRead, Write};

use eds_adt::Value;
use eds_core::{Dbms, Executed, PreparedStmt};
use eds_rewrite::Limit;

fn main() {
    let mut dbms = match Dbms::new() {
        Ok(dbms) => dbms,
        Err(e) => {
            eprintln!("esql-shell: {e}");
            std::process::exit(2);
        }
    };
    let mut stmts: HashMap<String, PreparedStmt> = HashMap::new();
    println!("EDS rule-based query rewriter — ESQL shell (.help for help)");

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("esql> ");
        } else {
            print!("  ... ");
        }
        std::io::stdout().flush().ok();

        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();

        if buffer.is_empty() && trimmed.starts_with('.') {
            if !meta_command(&mut dbms, &mut stmts, trimmed) {
                break;
            }
            continue;
        }

        buffer.push_str(&line);
        if !trimmed.ends_with(';') {
            continue;
        }
        let stmt = std::mem::take(&mut buffer);
        run_statement(&mut dbms, &stmt);
    }
}

fn run_statement(dbms: &mut Dbms, src: &str) {
    match dbms.execute(src) {
        Ok(results) => {
            for r in results {
                match r {
                    Executed::Ddl => println!("ok."),
                    Executed::Inserted(n) => println!("{n} row(s) inserted."),
                    Executed::Rows(rel) => print_relation(&rel),
                }
            }
        }
        Err(e) => eprintln!("error: {e}"),
    }
}

fn print_relation(rel: &eds_engine::Relation) {
    let names = rel.schema.names();
    println!("{}", names.join(" | "));
    println!(
        "{}",
        names
            .iter()
            .map(|n| "-".repeat(n.len()))
            .collect::<Vec<_>>()
            .join("-+-")
    );
    for row in &rel.rows {
        let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
        println!("{}", cells.join(" | "));
    }
    println!("({} row(s))", rel.len());
}

/// Parse the bind values of `.exec`: integers, reals, NULL, TRUE/FALSE,
/// and `'single quoted'` strings (quotes optional for bare words).
fn parse_binds(src: &str) -> Result<Vec<Value>, String> {
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        if c == '\'' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('\'') if chars.peek() == Some(&'\'') => {
                        chars.next();
                        s.push('\'');
                    }
                    Some('\'') => break,
                    Some(ch) => s.push(ch),
                    None => return Err("unterminated string".into()),
                }
            }
            out.push(Value::str(s));
            continue;
        }
        let mut tok = String::new();
        while let Some(&ch) = chars.peek() {
            if ch.is_whitespace() {
                break;
            }
            tok.push(ch);
            chars.next();
        }
        let v = if tok.eq_ignore_ascii_case("NULL") {
            Value::Null
        } else if tok.eq_ignore_ascii_case("TRUE") {
            Value::Bool(true)
        } else if tok.eq_ignore_ascii_case("FALSE") {
            Value::Bool(false)
        } else if let Ok(i) = tok.parse::<i64>() {
            Value::Int(i)
        } else if let Ok(r) = tok.parse::<f64>() {
            Value::real(r)
        } else {
            Value::str(tok)
        };
        out.push(v);
    }
    Ok(out)
}

/// Returns false to quit.
fn meta_command(dbms: &mut Dbms, stmts: &mut HashMap<String, PreparedStmt>, cmd: &str) -> bool {
    let (head, rest) = match cmd.split_once(char::is_whitespace) {
        Some((h, r)) => (h, r.trim()),
        None => (cmd, ""),
    };
    match head {
        ".quit" | ".exit" => return false,
        ".help" => println!(
            ".help / .quit / .tables / .rules\n\
             .explain <query ;>      canonical + rewritten plan + trace\n\
             .rule <rule ;>          add an optimization rule\n\
             .constraint <rule ;>    declare an integrity constraint\n\
             .limit <block> <n|INF>  change a block's limit\n\
             .lint                   statically analyze the knowledge base\n\
             .verify [seed]          semantically verify it (prover + fuzzer)\n\
             .discover [seed]        search for new prover-certified rules\n\
             .level [none|simple|full]  show or set the optimization level\n\
             .stats                  session options; cache, exploration and executor counters\n\
             .prepare <name> <query ;>   prepare a ?-parameterized statement\n\
             .exec <name> [value ...]    execute it with bind values"
        ),
        ".tables" => {
            println!("tables: {}", dbms.db.catalog.table_names().join(", "));
            println!("views:  {}", dbms.db.catalog.view_names().join(", "));
        }
        ".rules" => {
            for block in dbms.rewriter.strategy().blocks() {
                println!(
                    "block {} (limit {:?}): {}",
                    block.name,
                    block.limit,
                    block.rules.join(", ")
                );
            }
            if let Some(seq) = &dbms.rewriter.strategy().sequence {
                println!("seq(({}), {})", seq.blocks.join(", "), seq.passes);
            }
        }
        ".explain" => match dbms.explain(rest) {
            Ok(text) => println!("{text}"),
            Err(e) => eprintln!("error: {e}"),
        },
        ".rule" => match dbms.add_rule_source(rest) {
            Ok(n) => println!("{n} item(s) added."),
            Err(e) => eprintln!("error: {e}"),
        },
        ".constraint" => match dbms.add_constraint_source(rest) {
            Ok(n) => println!("{n} constraint(s) declared."),
            Err(e) => eprintln!("error: {e}"),
        },
        ".stats" => {
            let o = dbms.eval_options;
            println!(
                "options:    parallelism {}, columnar {}, opt level {}, lint {}",
                o.parallelism,
                if o.columnar { "on" } else { "off" },
                o.opt_level,
                format!("{:?}", dbms.rewriter.lint_policy).to_lowercase()
            );
            let pc = dbms.rewriter.plan_cache_stats();
            println!(
                "plan cache: {} plan(s), {} hit(s), {} miss(es), {} eviction(s), {} invalidation(s)",
                dbms.rewriter.plan_cache_len(),
                pc.hits,
                pc.misses,
                pc.evictions,
                pc.invalidations
            );
            println!(
                "prepared:   {} hit(s), {} miss(es)",
                pc.shape_hits, pc.shape_misses
            );
            let ex = dbms.rewriter.explore_stats();
            println!(
                "explore:    {} candidate(s) scored, {} check(s) spent, \
                 {} budget stop(s), {} win(s)",
                ex.candidates, ex.checks, ex.budget_stops, ex.wins
            );
            let ps = eds_core::parallel_stats();
            println!(
                "executor:   {} parallel run(s), {} morsel(s) dispatched (process-wide)",
                ps.parallel_runs, ps.morsels_dispatched
            );
        }
        ".prepare" => match rest.split_once(char::is_whitespace) {
            Some((name, sql)) if !sql.trim().is_empty() => match dbms.prepare_stmt(sql.trim()) {
                Ok(stmt) => {
                    println!("prepared '{name}' ({} parameter(s)).", stmt.param_count());
                    stmts.insert(name.to_string(), stmt);
                }
                Err(e) => eprintln!("error: {e}"),
            },
            _ => eprintln!("usage: .prepare <name> <query ;>"),
        },
        ".exec" => {
            let (name, vals) = match rest.split_once(char::is_whitespace) {
                Some((n, v)) => (n, v),
                None => (rest, ""),
            };
            match stmts.get(name) {
                None if name.is_empty() => eprintln!("usage: .exec <name> [value ...]"),
                None => eprintln!("error: no prepared statement '{name}' (.prepare first)"),
                Some(stmt) => match parse_binds(vals) {
                    Err(e) => eprintln!("error: {e}"),
                    Ok(binds) => match stmt.execute(dbms, &binds) {
                        Ok(rel) => print_relation(&rel),
                        Err(e) => eprintln!("error: {e}"),
                    },
                },
            }
        }
        ".lint" => {
            let diagnostics = dbms.lint();
            for d in &diagnostics {
                println!("{d}");
                for f in &d.suggestions {
                    println!("  fix: {}", f.description);
                }
            }
            let errors = diagnostics.iter().filter(|d| d.is_error()).count();
            println!(
                "{} error(s), {} warning(s)",
                errors,
                diagnostics.len() - errors
            );
        }
        ".verify" => {
            let opts = if rest.is_empty() {
                eds_core::VerifyOptions::default()
            } else {
                match rest.parse::<u64>() {
                    Ok(seed) => eds_core::VerifyOptions {
                        seed,
                        ..eds_core::VerifyOptions::default()
                    },
                    Err(_) => {
                        eprintln!("usage: .verify [seed]");
                        return true;
                    }
                }
            };
            let report = dbms.verify_with(&opts);
            for d in &report.diagnostics {
                println!("{d}");
            }
            println!("{}", report.summary());
        }
        ".discover" => {
            let opts = if rest.is_empty() {
                eds_core::DiscoverOptions::default()
            } else {
                match rest.parse::<u64>() {
                    Ok(seed) => eds_core::DiscoverOptions {
                        seed,
                        ..eds_core::DiscoverOptions::default()
                    },
                    Err(_) => {
                        eprintln!("usage: .discover [seed]");
                        return true;
                    }
                }
            };
            let discovery = dbms.discover(&opts);
            println!("funnel: {}", discovery.funnel);
            for d in &discovery.rules {
                println!(
                    "{} ;   // cost {:.1} -> {:.1}",
                    d.rule, d.lhs_cost, d.rhs_cost
                );
            }
            println!(
                "{} rule(s) discovered (add with .rule, or run eds-discover for a file).",
                discovery.rules.len()
            );
        }
        ".level" => {
            if rest.is_empty() {
                println!("opt level: {}", dbms.opt_level());
            } else {
                match eds_core::OptLevel::parse(rest) {
                    Some(level) => {
                        dbms.set_opt_level(level);
                        println!("opt level: {level}");
                    }
                    None => eprintln!("usage: .level [none|simple|full]"),
                }
            }
        }
        ".limit" => {
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(block), Some(value)) => {
                    let limit = if value.eq_ignore_ascii_case("INF") {
                        Limit::Infinite
                    } else {
                        match value.parse::<u64>() {
                            Ok(n) => Limit::Finite(n),
                            Err(_) => {
                                eprintln!("error: limit must be a number or INF");
                                return true;
                            }
                        }
                    };
                    match dbms.rewriter.strategy_mut().set_limit(block, limit) {
                        Ok(()) => println!("ok."),
                        Err(e) => eprintln!("error: {e}"),
                    }
                }
                _ => eprintln!("usage: .limit <block> <n|INF>"),
            }
        }
        other => eprintln!("unknown command {other} (.help for help)"),
    }
    true
}
