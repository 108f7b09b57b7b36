//! Differential tests for the static-analysis gate.
//!
//! The gate treats exactly one error as certain: the parser's. Two
//! contracts are checked here:
//!
//! 1. **Soundness of certain rejects.** When SQL does not parse,
//!    `Analysis::certain_error` holds the parse error, and executing the
//!    same SQL must produce that exact error, byte for byte. The
//!    refinement gate substitutes it for the execution result, so any
//!    divergence would leak into correction prompts and vote outcomes.
//!
//! 2. **Execution judges everything that parses.** A statement the
//!    analyzer diagnoses with an error but that parses gets no certain
//!    error: it runs, and execution reports the failure.

use datagen::{generate, Profile};
use llmsim::{ModelProfile, Oracle, SimLlm};
use opensearch_sql::{PipelineConfig, Preprocessed};
use sqlkit::Severity;
use std::sync::Arc;

/// Unparseable SQL: the analyzer's certain error is the parser's, and
/// execution fails with exactly it.
fn assert_parse_error_matches_execution(db: &sqlkit::Database, sql: &str) {
    let parsed = sqlkit::parse_select(sql);
    assert!(parsed.is_err(), "mangled SQL must not parse: {sql:?}");
    let analysis = sqlkit::analyze_sql(&db.schema, sql);
    let codes: Vec<&str> = analysis.diagnostics.iter().map(|d| d.code.as_str()).collect();
    assert_eq!(codes, ["E0001"], "{sql:?}");
    let predicted = analysis.certain_error.expect("a parse failure is certain");
    assert_eq!(Some(&predicted), parsed.as_ref().err(), "{sql:?}");
    match db.query(sql) {
        Ok(_) => panic!("{sql:?} does not parse but executed"),
        Err(actual) => assert_eq!(
            predicted.to_string(),
            actual.to_string(),
            "predicted and actual errors differ for {sql:?}"
        ),
    }
}

/// SQL that parses but must fail: the analyzer flags it with `code` at
/// error severity, claims nothing certain, and execution fails.
fn assert_left_to_execution(db: &sqlkit::Database, sql: &str, code: &str) {
    let analysis = sqlkit::analyze_sql(&db.schema, sql);
    assert!(
        analysis.diagnostics.iter().any(|d| d.code == code && d.severity == Severity::Error),
        "{sql:?} must be flagged {code}: {:?}",
        analysis.diagnostics
    );
    assert!(analysis.certain_error.is_none(), "{sql:?} parses, so nothing is certain");
    assert!(db.query(sql).is_err(), "{sql:?} must fail in execution");
}

/// Certain rejects predict execution errors byte-identically, over gold
/// SQL mangled so that it no longer parses.
#[test]
fn certain_rejects_match_execution_errors() {
    let bench = generate(&Profile::tiny());
    let mut certains = 0usize;
    for ex in bench.train.iter().chain(bench.dev.iter()) {
        let db = &bench.db(&ex.db_id).expect("known db").database;
        let gold = &ex.gold_sql;
        let Some(pos) = gold.find("FROM ") else { continue };
        for mangled in [
            // a dangling comma opens the projection
            gold.replacen("SELECT ", "SELECT , ", 1),
            // FROM with no table
            gold[..pos + 5].to_owned(),
            // trailing garbage after a complete statement
            format!("{gold} )"),
            // an unterminated string literal
            format!("{gold} WHERE '"),
        ] {
            assert_parse_error_matches_execution(db, &mangled);
            certains += 1;
        }
    }
    assert!(certains >= 200, "certain rejects exercised: {certains}");
}

/// Failures that only show once a statement runs — unknown tables,
/// misplaced aggregates, set-operator arity, compound ORDER BY, LIMIT
/// coercion, bad FROM-less calls — are diagnosed but left to execution.
#[test]
fn parseable_failures_are_left_to_execution() {
    let bench = generate(&Profile::tiny());
    let mut checked = 0usize;

    for built in bench.dbs.iter() {
        let db = &built.database;
        for table in db.schema.tables.iter().map(|t| t.name.clone()) {
            for (sql, code) in [
                (format!("SELECT * FROM {table}zz"), "E0101"),
                (format!("SELECT COUNT(*) FROM {table} WHERE COUNT(*) > 1"), "E0201"),
                (format!("SELECT COUNT(*) FROM {table} UNION SELECT 1, 2"), "E0206"),
                (format!("SELECT COUNT(*) FROM {table} UNION SELECT 1 ORDER BY 5"), "E0205"),
                (format!("SELECT COUNT(*) FROM {table} LIMIT 'many'"), "E0210"),
            ] {
                assert_left_to_execution(db, &sql, code);
                checked += 1;
            }
        }
        for (sql, code) in
            [("SELECT lenght('abc')", "E0207"), ("SELECT substr('abc')", "E0207"), ("SELECT *", "E0209")]
        {
            assert_left_to_execution(db, sql, code);
            checked += 1;
        }
    }

    // Gold SQL with the first scanned table mangled.
    for ex in bench.train.iter().chain(bench.dev.iter()) {
        let db = bench.db(&ex.db_id).expect("known db");
        let Some(pos) = ex.gold_sql.find("FROM ") else { continue };
        let rest = &ex.gold_sql[pos + 5..];
        let table: String =
            rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if table.is_empty() {
            continue;
        }
        let mangled = format!(
            "{}FROM {}zz{}",
            &ex.gold_sql[..pos],
            table,
            &rest[table.len()..]
        );
        assert_left_to_execution(&db.database, &mangled, "E0101");
        checked += 1;
    }

    assert!(checked >= 60, "statements checked: {checked}");
}

struct Fixture {
    benchmark: Arc<datagen::Benchmark>,
    pre: Arc<Preprocessed>,
    llm: Arc<SimLlm>,
}

fn fixture(seed: u64) -> Fixture {
    let mut profile = Profile::tiny();
    profile.train = 60;
    profile.dev = 30;
    profile.n_databases = 3;
    profile.n_domains = 3;
    let benchmark = Arc::new(generate(&profile));
    let oracle = Arc::new(Oracle::new(benchmark.clone()));
    let llm = Arc::new(SimLlm::new(oracle, ModelProfile::gpt_4o(), seed));
    let pre = Arc::new(Preprocessed::run(benchmark.clone(), llm.as_ref()));
    Fixture { benchmark, pre, llm }
}

/// Gating an unparseable candidate skips its execution, and the result
/// refinement records is exactly what executing it returns. The skipped
/// candidate's error still enters correction.
#[test]
fn gate_skips_execution_without_changing_outcome() {
    let f = fixture(31);
    let ex = &f.benchmark.dev[0];
    let broken = "SELECT name FROM patients WHERE (";

    let refine = |config: &PipelineConfig| {
        let mut ledger = opensearch_sql::CostLedger::new();
        opensearch_sql::refinement::refine_candidate(
            &f.pre,
            f.llm.as_ref() as &dyn llmsim::LanguageModel,
            config,
            &ex.db_id,
            &ex.question,
            &ex.evidence,
            &opensearch_sql::ExtractionOutput::default(),
            broken,
            None,
            0,
            &mut ledger,
        )
    };
    let mut config = PipelineConfig::fast();
    config.alignments = false; // keep the broken SQL reaching the gate as written
    config.correction = false;
    let gated = refine(&config);
    let db = &f.pre.db(&ex.db_id).expect("known db").database;
    let (executed, cost, _) = opensearch_sql::refinement::execute(db, broken);

    assert_eq!(gated.analyze_skips, 1, "an unparseable candidate must be gated");
    assert_eq!(gated.sql, broken);
    assert_eq!(gated.exec_cost, cost);
    assert_eq!(gated.correction_rounds, 0);
    match (&gated.result, &executed) {
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        other => panic!("both sides must fail to parse: {other:?}"),
    }

    config.correction = true;
    let corrected = refine(&config);
    assert!(corrected.analyze_skips >= 1);
    assert!(corrected.correction_rounds >= 1, "a gated error still enters correction");
}
