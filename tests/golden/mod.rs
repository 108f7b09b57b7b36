//! The frozen SELECT oracle shared by the planner and prepared
//! differential suites.
//!
//! `interpreter_oracle.txt` holds, for every statement those suites
//! execute, the exact outcome sqlkit's original AST interpreter produced
//! at the commit its header names: the result columns and rows, or the
//! exact error text. The interpreter has since been deleted; this file is
//! what remains of it. The statements come from three sections:
//!
//! - `gold`: every gold SQL of the tiny profile (train, then dev), run on
//!   its own database;
//! - `sampled`: query specs sampled across themes and difficulty tiers,
//!   run on the database they were sampled from;
//! - `shapes`: hand-written statements over the [`FIXTURE`] database
//!   covering the shapes the physical planner once left to the
//!   interpreter (compound selects, FROM subqueries, FROM-less selects,
//!   non-equi joins, unresolved columns and aggregates in WHERE,
//!   subqueries).
//!
//! The file is an oracle, not an expectation to keep in step with the
//! code: never regenerate it to make a test pass. The `gold` and
//! `sampled` sections are re-derived from `datagen` on every run and
//! must match the file statement for statement; a datagen change that
//! alters them changes the oracle and needs its own issue.
//!
//! Format: `#` header lines, then one record per statement, records
//! separated by a blank line. A record is `stmt <section> <db>`,
//! `sql <sql>`, then either `error <text>` or `cols <labels>` followed by
//! one `row <values>` line per row. Labels and values are tab-separated;
//! a value is `n` (NULL), `i<int>`, `r<float, shortest round trip>` or
//! `t<text>`, and text escapes `\`, tab, CR and LF.

use datagen::{build::build_db, domain::themes, generator::sample_spec, Difficulty, RowScale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlkit::{print_select, Database, ResultSet, SqlResult, Value};
use std::collections::HashMap;
use std::path::PathBuf;

/// Statements the planner and prepared differential suites each executed
/// against the interpreter before the oracle was frozen (56 gold + 89
/// sampled). The oracle may grow; it must never cover fewer.
pub const PARENT_STATEMENTS: usize = 145;

/// The themes and seeds the `sampled` section draws from.
pub const SAMPLED_DBS: [(usize, u64); 5] = [(0, 11), (3, 22), (7, 33), (12, 44), (19, 55)];

/// The database the `shapes` section runs on. Default indexes are
/// declared on top, so index-driven plans are exercised too.
pub const FIXTURE: &str = "\
CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, age INTEGER);
CREATE TABLE orders (id INTEGER PRIMARY KEY, user_id INTEGER, amount REAL,
    FOREIGN KEY (user_id) REFERENCES users(id));
CREATE TABLE empty (id INTEGER, note TEXT);
INSERT INTO users VALUES (1, 'ann', 31), (2, 'bob', 25), (3, 'cal', 47), (4, 'dee', NULL),
    (5, 'eve', 25);
INSERT INTO orders VALUES (10, 1, 12.5), (11, 1, 30.0), (12, 2, 7.25), (13, 3, 99.0),
    (14, 3, NULL), (15, 9, 5.0), (16, NULL, 18.0);";

/// One frozen statement and its oracle outcome, in file form.
#[derive(Debug)]
pub struct Case {
    pub section: String,
    pub db: String,
    pub sql: String,
    pub outcome: String,
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\t', "\\t").replace('\r', "\\r").replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next() {
            Some('t') => '\t',
            Some('r') => '\r',
            Some('n') => '\n',
            Some(other) => other,
            None => panic!("dangling escape in oracle field {s:?}"),
        });
    }
    out
}

fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "n".to_owned(),
        Value::Int(i) => format!("i{i}"),
        Value::Real(r) => format!("r{r:?}"),
        Value::Text(t) => format!("t{}", escape(t)),
    }
}

/// An execution outcome in the file's record form (without the `stmt`
/// and `sql` lines). Floats compare by their exact bits this way, NaN
/// included.
fn outcome_of(outcome: &SqlResult<ResultSet>) -> String {
    match outcome {
        Err(e) => format!("error {}", escape(&e.to_string())),
        Ok(rs) => {
            let cols: Vec<String> = rs.columns.iter().map(|c| escape(c)).collect();
            let mut out = format!("cols {}", cols.join("\t"));
            for row in &rs.rows {
                let vals: Vec<String> = row.iter().map(encode_value).collect();
                out.push_str("\nrow ");
                out.push_str(&vals.join("\t"));
            }
            out
        }
    }
}

/// Load every frozen case. Panics — failing the calling test — when the
/// file is missing, empty, malformed, or its header count disagrees with
/// its records.
fn load() -> Vec<Case> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/interpreter_oracle.txt");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("oracle file {} is missing: {e}", path.display()));
    let mut declared = None;
    let mut cases = Vec::new();
    for record in text.split("\n\n").filter(|r| !r.trim().is_empty()) {
        if record.starts_with('#') {
            declared = record.lines().find_map(|l| l.strip_prefix("# statements: "));
            continue;
        }
        let mut lines = record.lines();
        let head: Vec<&str> = lines.next().unwrap_or_default().splitn(3, ' ').collect();
        let sql = lines.next().and_then(|l| l.strip_prefix("sql "));
        let (["stmt", section, db], Some(sql)) = (head.as_slice(), sql) else {
            panic!("malformed oracle record: {record:?}");
        };
        let outcome = lines.collect::<Vec<_>>().join("\n");
        assert!(
            outcome.starts_with("cols ") || outcome.starts_with("error "),
            "oracle record without an outcome: {record:?}"
        );
        cases.push(Case {
            section: section.to_string(),
            db: db.to_string(),
            sql: unescape(sql),
            outcome,
        });
    }
    assert!(!cases.is_empty(), "oracle file {} holds no statements", path.display());
    // a case in any other section would be run by no suite
    assert!(
        cases.iter().all(|c| ["gold", "sampled", "shapes"].contains(&c.section.as_str())),
        "oracle record in an unknown section"
    );
    assert_eq!(
        declared.and_then(|n| n.parse().ok()),
        Some(cases.len()),
        "oracle header count disagrees with its records"
    );
    cases
}

/// The databases every oracle statement runs on, keyed by the id the
/// file records, and the `gold` + `sampled` statements exactly as
/// datagen derives them today: `(section, db, sql)`.
pub struct Dbs {
    by_id: HashMap<String, Database>,
    derived: Vec<(String, String, String)>,
}

impl Dbs {
    pub fn build() -> Dbs {
        let (mut by_id, mut derived) = (HashMap::new(), Vec::new());
        let bench = datagen::generate(&datagen::Profile::tiny());
        for ex in bench.train.iter().chain(bench.dev.iter()) {
            derived.push(("gold".to_owned(), ex.db_id.clone(), ex.gold_sql.clone()));
        }
        for db in bench.dbs {
            by_id.insert(format!("gold:{}", db.id), db.database);
        }
        let lib = themes();
        for (theme_idx, seed) in SAMPLED_DBS {
            let db = build_db(&lib[theme_idx % lib.len()], "diff", "diff", RowScale::tiny(), 0.5, seed);
            let id = format!("theme{theme_idx}-seed{seed}");
            let mut rng = StdRng::seed_from_u64(seed);
            for difficulty in Difficulty::all() {
                for _ in 0..6 {
                    if let Some(spec) = sample_spec(&db, difficulty, &mut rng) {
                        let sql = print_select(&spec.to_sql(&db.database.schema));
                        derived.push(("sampled".to_owned(), id.clone(), sql));
                    }
                }
            }
            by_id.insert(id, db.database);
        }
        let mut fixture = Database::new("fixture");
        fixture.execute_script(FIXTURE).expect("fixture script runs");
        fixture.ensure_default_indexes();
        by_id.insert("fixture".to_owned(), fixture);
        Dbs { by_id, derived }
    }

    pub fn get(&self, case: &Case) -> &Database {
        let key = match case.section.as_str() {
            "gold" => format!("gold:{}", case.db),
            _ => case.db.clone(),
        };
        self.by_id
            .get(&key)
            .unwrap_or_else(|| panic!("oracle references unknown database {key}"))
    }
}

/// Load the oracle and verify it is whole: at least as many statements
/// as the suites ran before it was frozen, and `gold` + `sampled`
/// exactly what datagen derives today.
pub fn load_checked(dbs: &Dbs) -> Vec<Case> {
    let cases = load();
    assert!(
        cases.len() >= PARENT_STATEMENTS,
        "oracle covers {} statements, fewer than the {PARENT_STATEMENTS} it was frozen with",
        cases.len()
    );
    let frozen: Vec<(String, String, String)> = cases
        .iter()
        .filter(|c| c.section != "shapes")
        .map(|c| (c.section.clone(), c.db.clone(), c.sql.clone()))
        .collect();
    assert!(
        frozen == dbs.derived,
        "datagen now derives a different corpus than the frozen oracle"
    );
    cases
}

/// Run `exec` on every case of the given sections and assert each matches
/// the oracle. Fails when any case is skipped or none ran.
pub fn run_sections(
    cases: &[Case],
    dbs: &Dbs,
    sections: &[&str],
    mut exec: impl FnMut(&Database, &str) -> SqlResult<ResultSet>,
) -> usize {
    let wanted: Vec<&Case> =
        cases.iter().filter(|c| sections.contains(&c.section.as_str())).collect();
    let mut failures = Vec::new();
    for case in &wanted {
        let got = outcome_of(&exec(dbs.get(case), &case.sql));
        if got != case.outcome {
            failures.push(format!(
                "[{} {}] {}\n  oracle: {}\n  got:    {got}",
                case.section, case.db, case.sql, case.outcome
            ));
        }
    }
    assert!(!wanted.is_empty(), "no oracle statements in sections {sections:?}");
    assert!(
        failures.is_empty(),
        "{} of {} statements diverge from the oracle:\n{}",
        failures.len(),
        wanted.len(),
        failures.join("\n")
    );
    wanted.len()
}
