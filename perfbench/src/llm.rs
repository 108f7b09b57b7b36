//! The `llmsim` layer, timed from outside: a `LanguageModel` wrapper that
//! counts calls, the CPU time the simulator spends on them, and the
//! tokens and *modelled* latency it reports.
//!
//! Measured CPU time and modelled latency are kept in separate counters
//! and never added together: the simulator does not sleep, so modelled
//! milliseconds are an estimate of what a hosted model would cost, while
//! CPU milliseconds are what this machine actually spent.

use llmsim::{ChatRequest, ChatResponse, LanguageModel};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A `LanguageModel` that forwards to another and accounts for every call.
pub struct TimedLlm {
    inner: Arc<dyn LanguageModel>,
    enabled: AtomicBool,
    calls: AtomicU64,
    cpu_ns: AtomicU64,
    tokens: AtomicU64,
    modelled_us: AtomicU64,
}

/// Cumulative totals of a [`TimedLlm`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LlmTotals {
    /// `complete` calls.
    pub calls: u64,
    /// Measured wall time inside `complete`, in milliseconds.
    pub cpu_ms: f64,
    /// Prompt plus completion tokens.
    pub tokens: u64,
    /// The simulator's modelled latency, in milliseconds.
    pub modelled_ms: f64,
}

impl LlmTotals {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &LlmTotals) -> LlmTotals {
        LlmTotals {
            calls: self.calls - earlier.calls,
            cpu_ms: self.cpu_ms - earlier.cpu_ms,
            tokens: self.tokens - earlier.tokens,
            modelled_ms: self.modelled_ms - earlier.modelled_ms,
        }
    }
}

impl TimedLlm {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn LanguageModel>) -> Self {
        TimedLlm {
            inner,
            enabled: AtomicBool::new(true),
            calls: AtomicU64::new(0),
            cpu_ns: AtomicU64::new(0),
            tokens: AtomicU64::new(0),
            modelled_us: AtomicU64::new(0),
        }
    }

    /// Turn accounting on or off; while off, calls are forwarded untimed.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Current totals (statistics only: relaxed loads).
    pub fn totals(&self) -> LlmTotals {
        LlmTotals {
            calls: self.calls.load(Ordering::Relaxed),
            cpu_ms: self.cpu_ns.load(Ordering::Relaxed) as f64 / 1e6,
            tokens: self.tokens.load(Ordering::Relaxed),
            modelled_ms: self.modelled_us.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }
}

impl LanguageModel for TimedLlm {
    fn complete(&self, req: &ChatRequest) -> ChatResponse {
        if !self.enabled.load(Ordering::Relaxed) {
            return self.inner.complete(req);
        }
        let t0 = Instant::now();
        let resp = self.inner.complete(req);
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.cpu_ns.fetch_add(ns, Ordering::Relaxed);
        self.tokens.fetch_add(
            (resp.prompt_tokens + resp.completion_tokens) as u64,
            Ordering::Relaxed,
        );
        self.modelled_us
            .fetch_add((resp.latency_ms * 1e3).round() as u64, Ordering::Relaxed);
        resp
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
