//! Request options → analysis options: the one conversion both front
//! ends use.
//!
//! A [`Request`] is the option vocabulary of every analysis command.
//! The daemon receives it as a wire frame; the one-shot CLI builds the
//! same value from its flags. Both turn it into [`Params`],
//! [`LintOptions`], pipeline options and trace ids through the methods
//! below, so a served query and its one-shot twin agree on defaults,
//! value parsing and diagnoses by construction.

use crate::protocol::Request;
use crate::render;
use difftrace::{
    AnyChecker, FilterConfig, FleetOptions, LintDomain, LintOptions, Params, PipelineOptions,
};
use dt_cache::Cache;
use dt_trace::TraceId;
use std::sync::Arc;

impl Request {
    /// `filter`, `attrs` and `linkage` over [`Params::default`]. The
    /// filter code is parsed strictly.
    pub fn params(&self) -> Result<Params, String> {
        let mut params = Params::default();
        if let Some(f) = &self.filter {
            params.filter = f.parse()?;
        }
        if let Some(a) = &self.attrs {
            params.attrs = a.parse()?;
        }
        if let Some(name) = &self.linkage {
            params.linkage = name.parse()?;
        }
        Ok(params)
    }

    /// The report format: `text` (default) or `json`.
    pub fn report_format(&self) -> Result<&str, String> {
        self.format
            .as_deref()
            .map_or(Ok("text"), render::parse_format)
    }

    /// `trace` as a trace id.
    pub fn trace_id(&self) -> Result<Option<TraceId>, String> {
        self.trace
            .as_deref()
            .map(render::parse_trace_id)
            .transpose()
    }

    /// `diffnlr` as a trace id.
    pub fn diffnlr_id(&self) -> Result<Option<TraceId>, String> {
        self.diffnlr
            .as_deref()
            .map(render::parse_trace_id)
            .transpose()
    }

    /// `single`'s flat-cluster count (`0` = automatic).
    pub fn flat_clusters(&self) -> usize {
        self.k.unwrap_or(0)
    }

    /// Checker `c`'s options: `domain` and `threads`, plus `deep` and
    /// the leniently parsed `filter` for checkers that take them
    /// ([`AnyChecker::lint_options`]). A bad custom pattern in a
    /// lenient filter surfaces as a TL004 diagnostic, not here.
    pub fn lint_options(&self, c: &dyn AnyChecker) -> Result<LintOptions, String> {
        let mut opts = LintOptions::default();
        if let Some(d) = &self.domain {
            opts.domain = LintDomain::parse(d)?;
        }
        if let Some(t) = self.threads {
            opts.threads = t;
        }
        if c.lint_options() {
            opts.deep = self.deep;
            if let Some(f) = &self.filter {
                opts.filter = Some(FilterConfig::parse_lenient(f)?);
            }
        }
        Ok(opts)
    }

    /// Pipeline options for `single` and the pairwise commands:
    /// `threads` (default `1` for `single`, `0` = all cores otherwise)
    /// and the analysis cache. Every gate is off.
    pub fn pipeline_options(&self, cache: Option<Arc<Cache>>) -> PipelineOptions {
        let default = if self.cmd == "single" { 1 } else { 0 };
        PipelineOptions {
            cache,
            ..PipelineOptions::with_threads(self.threads.unwrap_or(default))
        }
    }

    /// `fleet`'s options: `threads` (default `0` = all cores) and the
    /// analysis cache.
    pub fn fleet_options(&self, cache: Option<Arc<Cache>>) -> FleetOptions {
        FleetOptions {
            threads: self.threads.unwrap_or(0),
            cache,
        }
    }
}
