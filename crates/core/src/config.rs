//! Pipeline configuration.
//!
//! Every module the paper ablates in Table 4/5/7 is a switch here, so the
//! experiment harness can run `w/o X` configurations by flipping exactly
//! one field.

use serde::{Deserialize, Serialize};

/// Few-shot flavour for a stage (paper §3.2, Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FewshotMode {
    /// Self-taught Query-CoT-SQL pairs (Listing 2).
    QueryCotSql,
    /// Plain Query-SQL pairs (Listing 1).
    QuerySql,
    /// No few-shot.
    None,
}

/// Chain-of-thought flavour for generation (paper §4.7, Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CotMode {
    /// The structured CoT of Listing 5 (reason → columns → values →
    /// SELECT → SQL-like → SQL).
    Structured,
    /// Free-form "let's think step by step".
    Unstructured,
    /// No CoT: answer with bare SQL.
    None,
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Run the Extraction stage at all (off = full schema, no values).
    pub extraction: bool,
    /// Retrieve similar stored values for the prompt.
    pub values_retrieval: bool,
    /// Filter the schema to relevant columns.
    pub column_filtering: bool,
    /// Table-level schema linking: keep every column of any linked table
    /// (how DIN-SQL / MAC-SQL style selectors prune, vs OpenSearch-SQL's
    /// column-level filtering).
    pub table_level_linking: bool,
    /// Info Alignment: schema expansion + SELECT-style alignment.
    pub info_alignment: bool,
    /// Few-shot flavour for Generation.
    pub gen_fewshot: FewshotMode,
    /// Number of few-shot examples (paper sweeps {0,3,5,7,9}).
    pub fewshot_k: usize,
    /// CoT flavour for Generation.
    pub cot: CotMode,
    /// Post-generation alignments (Agent / Function / Style).
    pub alignments: bool,
    /// Run the Refinement stage at all.
    pub refinement: bool,
    /// Execution-guided correction inside Refinement.
    pub correction: bool,
    /// Error-type few-shots inside correction prompts.
    pub refine_fewshot: bool,
    /// Number of generation candidates (paper sweeps {1,3,7,15,21}).
    pub n_candidates: usize,
    /// Self-consistency & vote over candidates (off = take candidate 0).
    pub self_consistency: bool,
    /// Sampling temperature for Generation/Refinement (paper: 0.7).
    pub temperature: f64,
    /// Similarity threshold for value retrieval (paper: 0.65).
    pub retrieval_threshold: f32,
    /// Top-K values retrieved per entity.
    pub retrieval_top_k: usize,
    /// Maximum correction rounds per candidate.
    pub max_correction_rounds: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            extraction: true,
            values_retrieval: true,
            column_filtering: true,
            table_level_linking: false,
            info_alignment: true,
            gen_fewshot: FewshotMode::QueryCotSql,
            fewshot_k: 5,
            cot: CotMode::Structured,
            alignments: true,
            refinement: true,
            correction: true,
            refine_fewshot: true,
            n_candidates: 21,
            self_consistency: true,
            temperature: 0.7,
            retrieval_threshold: 0.65,
            retrieval_top_k: 5,
            max_correction_rounds: 2,
        }
    }
}

impl PipelineConfig {
    /// The paper's full configuration.
    pub fn full() -> Self {
        Self::default()
    }

    /// A light configuration for unit tests (few candidates).
    pub fn fast() -> Self {
        PipelineConfig { n_candidates: 3, ..Self::default() }
    }

    /// Drop the whole Extraction stage (Table 4 row 2).
    pub fn without_extraction(mut self) -> Self {
        self.extraction = false;
        self.values_retrieval = false;
        self.column_filtering = false;
        self
    }

    /// Drop values retrieval only.
    pub fn without_values_retrieval(mut self) -> Self {
        self.values_retrieval = false;
        self
    }

    /// Drop column filtering only.
    pub fn without_column_filtering(mut self) -> Self {
        self.column_filtering = false;
        self
    }

    /// Drop Info Alignment.
    pub fn without_info_alignment(mut self) -> Self {
        self.info_alignment = false;
        self
    }

    /// Drop generation few-shot.
    pub fn without_gen_fewshot(mut self) -> Self {
        self.gen_fewshot = FewshotMode::None;
        self
    }

    /// Drop CoT.
    pub fn without_cot(mut self) -> Self {
        self.cot = CotMode::None;
        self
    }

    /// Drop post-generation alignments.
    pub fn without_alignments(mut self) -> Self {
        self.alignments = false;
        self
    }

    /// Drop the whole Refinement stage (correction *and* vote; the final
    /// SQL is the first aligned candidate, so EX equals EX_R).
    pub fn without_refinement(mut self) -> Self {
        self.refinement = false;
        self.correction = false;
        self.self_consistency = false;
        self.n_candidates = 1;
        self
    }

    /// Drop correction only.
    pub fn without_correction(mut self) -> Self {
        self.correction = false;
        self
    }

    /// Drop the refinement few-shot only.
    pub fn without_refine_fewshot(mut self) -> Self {
        self.refine_fewshot = false;
        self
    }

    /// Drop self-consistency & vote (single candidate).
    pub fn without_self_consistency(mut self) -> Self {
        self.self_consistency = false;
        self.n_candidates = 1;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_pipeline() {
        let c = PipelineConfig::default();
        assert!(c.extraction && c.alignments && c.refinement && c.self_consistency);
        assert_eq!(c.n_candidates, 21);
        assert_eq!(c.gen_fewshot, FewshotMode::QueryCotSql);
        assert_eq!(c.cot, CotMode::Structured);
        assert!((c.temperature - 0.7).abs() < f64::EPSILON);
        assert!((c.retrieval_threshold - 0.65).abs() < f32::EPSILON);
    }

    #[test]
    fn ablation_builders_flip_one_axis() {
        let c = PipelineConfig::full().without_extraction();
        assert!(!c.extraction && !c.values_retrieval && !c.column_filtering);
        assert!(c.alignments, "other modules untouched");

        let c = PipelineConfig::full().without_self_consistency();
        assert_eq!(c.n_candidates, 1);
        assert!(!c.self_consistency);

        let c = PipelineConfig::full().without_cot();
        assert_eq!(c.cot, CotMode::None);
        assert_eq!(c.gen_fewshot, FewshotMode::QueryCotSql);
    }
}
