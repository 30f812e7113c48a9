//! Reference answers from the library, and the checker every output of the
//! system under test goes through.
//!
//! The reference opens the same frozen artifact the program serves and
//! extracts every pooled document once per seed. A CLI jsonl row, a serve
//! or fleet extract response, a `top_k` response and a stream session's
//! emissions must all equal it, field by field, scores bit for bit.

use crate::inputs::{TAU, TOP_K};
use aeetes_core::{select_top_k, BatchOptions, ExtractBackend, Match};
use aeetes_pool::extract_batch_with;
use aeetes_shard::ShardedEngine;
use aeetes_text::{Document, Tokenizer};
use serde_json::Value;
use std::collections::HashMap;
use std::path::Path;

/// One expected match, in every field any surface renders.
#[derive(Debug, Clone, PartialEq)]
pub struct RefMatch {
    pub start: u64,
    pub len: u64,
    pub entity: u64,
    pub score: f64,
    pub entity_text: String,
    pub matched_text: String,
    pub byte_start: u64,
    pub byte_end: u64,
}

/// Expected answers per pooled document.
pub struct Reference {
    /// Full extraction, in `(span, entity)` order.
    pub full: Vec<Vec<RefMatch>>,
    /// Full extraction followed by `select_top_k(TOP_K)`, in score order.
    pub topk: Vec<Vec<RefMatch>>,
    /// Derived variants of the artifact's dictionary.
    pub variants: usize,
}

impl Reference {
    /// Extracts every document of `docs` with the library on `artifact`.
    pub fn compute(artifact: &Path, docs: &[String]) -> Result<Reference, String> {
        let parts = aeetes_core::open_frozen(artifact).map_err(|e| format!("{}: {e}", artifact.display()))?;
        let engine = ShardedEngine::from_frozen(parts, None)?;
        let generation = engine.snapshot();
        let tokenizer = Tokenizer::default();
        let mut interner = generation.interner().clone();
        let parsed: Vec<Document> = docs.iter().map(|d| Document::parse(d, &tokenizer, &mut interner)).collect();
        let opts = BatchOptions { threads: 2, ..BatchOptions::default() };
        let mut full = Vec::with_capacity(docs.len());
        let mut topk = Vec::with_capacity(docs.len());
        for (i, r) in extract_batch_with(&*generation, &parsed, TAU, &opts).into_iter().enumerate() {
            let outcome = r.map_err(|e| format!("reference extraction of document {i}: {e}"))?;
            if outcome.truncated {
                return Err(format!("reference extraction of document {i} was truncated"));
            }
            let render = |m: &Match| ref_match(m, &parsed[i], generation.dictionary().record(m.entity).raw);
            let mut best = outcome.matches.clone();
            select_top_k(&mut best, TOP_K);
            full.push(outcome.matches.iter().map(render).collect());
            topk.push(best.iter().map(render).collect());
        }
        Ok(Reference { full, topk, variants: generation.variants() })
    }
}

/// Renders a library match of `doc` as the fields the surfaces print.
pub fn ref_match(m: &Match, doc: &Document, entity_text: &str) -> RefMatch {
    let text = doc.text_of(m.span).unwrap_or_default();
    let byte_start = (text.as_ptr() as usize).saturating_sub(doc.raw.as_ptr() as usize) as u64;
    RefMatch {
        start: m.span.start as u64,
        len: m.span.len as u64,
        entity: u64::from(m.entity.0),
        score: m.score,
        entity_text: entity_text.to_string(),
        matched_text: text.to_string(),
        byte_start,
        byte_end: byte_start + text.len() as u64,
    }
}

/// Which rendering a match object comes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Serve/fleet extract responses and CLI jsonl rows: `matched_text`.
    Text,
    /// Stream emissions: byte offsets into the stream instead of text.
    Stream,
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn field_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(Value::as_str).ok_or_else(|| format!("missing or non-string `{key}`"))
}

/// Checks one rendered match against its reference.
pub fn check_match(v: &Value, want: &RefMatch, shape: Shape) -> Result<(), String> {
    let got_span = (field_u64(v, "start")?, field_u64(v, "len")?, field_u64(v, "entity")?);
    if got_span != (want.start, want.len, want.entity) {
        return Err(format!("match (start, len, entity) {got_span:?}, expected {:?}", (want.start, want.len, want.entity)));
    }
    let score = v.get("score").and_then(Value::as_f64).ok_or("missing or non-numeric `score`")?;
    if score != want.score {
        return Err(format!("score {score} at {got_span:?}, expected {}", want.score));
    }
    if field_str(v, "entity_text")? != want.entity_text {
        return Err(format!("entity_text differs at {got_span:?}"));
    }
    match shape {
        Shape::Text if field_str(v, "matched_text")? != want.matched_text => Err(format!("matched_text differs at {got_span:?}")),
        Shape::Stream if (field_u64(v, "byte_start")?, field_u64(v, "byte_end")?) != (want.byte_start, want.byte_end) => {
            Err(format!("byte range differs at {got_span:?}"))
        }
        _ => Ok(()),
    }
}

/// Checks a list of rendered matches against the reference, in order.
pub fn check_list(got: &[Value], want: &[RefMatch], shape: Shape) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} matches, expected {}", got.len(), want.len()));
    }
    got.iter().zip(want).try_for_each(|(g, w)| check_match(g, w, shape))
}

/// Checks a stream session's emissions: the same matches as whole-document
/// extraction, in any emission order.
pub fn check_stream(got: &[Value], want: &[RefMatch]) -> Result<(), String> {
    let key = |v: &Value| (field_u64(v, "start").unwrap_or(u64::MAX), field_u64(v, "len").unwrap_or(0), field_u64(v, "entity").unwrap_or(0));
    let mut got: Vec<&Value> = got.iter().collect();
    got.sort_by_key(|v| key(v));
    let mut want: Vec<&RefMatch> = want.iter().collect();
    want.sort_by_key(|m| (m.start, m.len, m.entity));
    if got.len() != want.len() {
        return Err(format!("stream emitted {} matches, expected {}", got.len(), want.len()));
    }
    got.iter().zip(want).try_for_each(|(g, w)| check_match(g, w, Shape::Stream))
}

/// Checks an extract response line: status ok, not truncated, and the
/// matches equal to `want`.
pub fn check_response(line: &str, want: &[RefMatch]) -> Result<(), String> {
    let v = serde_json::from_str(line).map_err(|e| format!("unparsable response: {e}"))?;
    if v.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("status not ok: {}", truncate(line)));
    }
    if v.get("truncated").and_then(Value::as_bool) != Some(false) {
        return Err("response truncated".into());
    }
    let got = v.get("matches").and_then(Value::as_array).ok_or("missing `matches`")?;
    check_list(got, want, Shape::Text)
}

pub fn truncate(s: &str) -> String {
    s.chars().take(160).collect()
}

/// Remembers response bodies that already passed a full check, keyed by
/// request kind and document, so a byte-identical repeat (with its own
/// `id` taken out) passes without parsing. Any other body gets the full
/// check; the cache can only skip work, never accept a new answer.
#[derive(Default)]
pub struct Verified {
    bodies: HashMap<(bool, usize), String>,
}

impl Verified {
    pub fn check(&mut self, topk: bool, doc: usize, id_field: &str, line: &str, want: &[RefMatch]) -> Result<(), String> {
        let body = line.replacen(id_field, "", 1);
        if self.bodies.get(&(topk, doc)) == Some(&body) {
            return Ok(());
        }
        check_response(line, want)?;
        self.bodies.insert((topk, doc), body);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Vec<RefMatch> {
        vec![
            RefMatch {
                start: 3,
                len: 2,
                entity: 7,
                score: 0.8333333333333334,
                entity_text: "new york".into(),
                matched_text: "new yrk".into(),
                byte_start: 10,
                byte_end: 17,
            },
            RefMatch {
                start: 9,
                len: 1,
                entity: 2,
                score: 1.0,
                entity_text: "paris".into(),
                matched_text: "paris".into(),
                byte_start: 40,
                byte_end: 45,
            },
        ]
    }

    fn response(matches: &[RefMatch]) -> String {
        let rendered: Vec<Value> = matches
            .iter()
            .map(|m| {
                serde_json::json!({"start": m.start, "len": m.len, "score": m.score, "entity": m.entity,
                    "entity_text": m.entity_text, "matched_text": m.matched_text})
            })
            .collect();
        aeetes_cli::protocol::ok_line(&serde_json::json!(1), Value::Array(rendered), false)
    }

    #[test]
    fn checker_accepts_the_reference() {
        let want = reference();
        check_response(&response(&want), &want).unwrap();
    }

    #[test]
    fn checker_rejects_an_altered_score() {
        let want = reference();
        let mut got = want.clone();
        got[0].score = 0.8333333333333333;
        assert!(check_response(&response(&got), &want).unwrap_err().contains("score"));
    }

    #[test]
    fn checker_rejects_an_altered_span() {
        let want = reference();
        for alter in [|m: &mut RefMatch| m.start += 1, |m: &mut RefMatch| m.len += 1] {
            let mut got = want.clone();
            alter(&mut got[1]);
            assert!(check_response(&response(&got), &want).is_err());
        }
    }

    #[test]
    fn checker_rejects_missing_or_extra_matches() {
        let want = reference();
        assert!(check_response(&response(&want[..1]), &want).is_err());
        assert!(check_response(&response(&want), &want[..1]).is_err());
    }

    #[test]
    fn cache_skips_only_identical_bodies() {
        let want = reference();
        let mut verified = Verified::default();
        let ok = response(&want);
        verified.check(false, 0, "\"id\":1", &ok, &want).unwrap();
        verified.check(false, 0, "\"id\":1", &ok, &want).unwrap();
        let mut bad = want.clone();
        bad[0].score = 0.5;
        assert!(verified.check(false, 0, "\"id\":1", &response(&bad), &want).is_err());
    }
}
