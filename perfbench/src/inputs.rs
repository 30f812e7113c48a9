//! Workload definitions and their seeded inputs.
//!
//! Every input comes from `aeetes-datagen`: the dictionary and rules the
//! artifact is built from and a document corpus (fixed, see
//! [`CORPUS_SEED`]), then, under the run's `--seed`, the documents drawn
//! from the corpus and the per-connection operation sequence. The same
//! seed always writes byte-identical files and replays the same requests.

use crate::util::Rng;
use aeetes_datagen::{generate, write_files, DatasetProfile};
use std::collections::HashSet;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Similarity threshold of every workload.
pub const TAU: f64 = 0.8;
/// `top_k` of the top-k share of `serve_mixed`.
pub const TOP_K: usize = 5;
/// Byte size of one stream `feed` chunk.
pub const FEED_BYTES: usize = 512;
/// Documents in one `batch_pubmed` job.
pub const BATCH_DOCS: usize = 3000;
/// Token length of a `fleet_short` document slice.
pub const SLICE_TOKENS: usize = 30;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchPubmed,
    FleetShort,
    ServeMixed,
}

/// Static facts about a workload, recorded with every result.
pub struct Spec {
    pub loop_type: &'static str,
    pub connections: usize,
    /// Servers a run starts in turn, each measured for an equal share of
    /// the run. On a 2-vCPU VM one fleet's CPU per document differs from the
    /// next one's by up to ±10%, so `fleet_short` takes the median of five.
    pub servers: usize,
    /// Per-request latency limit of `slo_share`, when the workload has one.
    pub limit_ms: Option<f64>,
    pub why: &'static str,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::BatchPubmed, Workload::FleetShort, Workload::ServeMixed];

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchPubmed => "batch_pubmed",
            Workload::FleetShort => "fleet_short",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::BatchPubmed => Spec {
                loop_type: "closed (one `aeetes extract` job at a time)",
                connections: 0,
                servers: 0,
                limit_ms: None,
                why: "text, core and pool do almost all the work and no socket is involved",
            },
            Workload::FleetShort => Spec {
                loop_type: "closed (one extract in flight per connection)",
                connections: 2,
                servers: 5,
                limit_ms: Some(10.0),
                why: "engine work is tens of microseconds, so parse, render, socket writes and the coordinator hop dominate",
            },
            Workload::ServeMixed => Spec {
                loop_type: "closed (one operation in flight per connection)",
                connections: 2,
                servers: 1,
                limit_ms: Some(25.0),
                why: "engine-heavy reads (extract, top_k, stream) beside one reload per second",
            },
        }
    }

    /// Shard count the artifact is built with.
    pub fn shards(self) -> usize {
        match self {
            Workload::ServeMixed => 2,
            _ => 1,
        }
    }

    /// The dataset profile. Its corpus holds twice the documents one run
    /// uses for `batch_pubmed`; `serve_mixed` runs send every corpus
    /// document (each seed in its own order), which keeps per-request engine
    /// cost, and so latency, from moving with the seed.
    fn profile(self) -> DatasetProfile {
        match self {
            Workload::BatchPubmed => DatasetProfile::pubmed_like().with_docs(2 * BATCH_DOCS),
            Workload::FleetShort => DatasetProfile::pubmed_like().with_docs(600),
            Workload::ServeMixed => DatasetProfile::usjob_like().scaled(0.25).with_docs(200),
        }
    }

    /// Documents (or slices) one run draws from the corpus.
    fn pool_size(self) -> usize {
        match self {
            Workload::BatchPubmed => BATCH_DOCS,
            Workload::FleetShort => 2000,
            Workload::ServeMixed => 200,
        }
    }
}

/// Seed of the dictionary, rules and document corpus. The deployment is the
/// same in every run; `--seed` picks the run's documents from the corpus
/// and its request sequence. A dictionary drawn per seed would move engine
/// cost and artifact size by up to 15% between seeds, more than any bound
/// the benchmark could hold.
const CORPUS_SEED: u64 = 20_190_326;

/// One operation a client connection sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Plain extract of document `i`.
    Extract(usize),
    /// Extract of document `i` with `"top_k": TOP_K`.
    TopK(usize),
    /// Stream session over document `i`: open, `FEED_BYTES` feeds, close.
    Stream(usize),
}

impl Op {
    pub fn doc(self) -> usize {
        match self {
            Op::Extract(i) | Op::TopK(i) | Op::Stream(i) => i,
        }
    }
}

/// The seeded operation sequence of one connection.
///
/// Documents cycle through a seeded permutation of the pool, and
/// `serve_mixed` kinds come in shuffled blocks of ten (seven extracts, two
/// `top_k`, one stream session), so every run sends the same mix and the
/// same documents equally often; only the order depends on the seed.
/// Drawing each operation independently would let a run's share of slow
/// stream sessions, and so its throughput, wander by ±10% between seeds.
pub struct OpGen {
    rng: Rng,
    order: Vec<usize>,
    sent: usize,
    block: Vec<fn(usize) -> Op>,
    workload: Workload,
}

impl OpGen {
    pub fn new(workload: Workload, seed: u64, conn: usize, docs: usize) -> Self {
        let mut rng = Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(conn as u64 + 1));
        let mut order: Vec<usize> = (0..docs).collect();
        shuffle(&mut order, &mut rng);
        OpGen { rng, order, sent: 0, block: Vec::new(), workload }
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

impl Iterator for OpGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let doc = self.order[self.sent % self.order.len()];
        self.sent += 1;
        if self.workload != Workload::ServeMixed {
            return Some(Op::Extract(doc));
        }
        if self.block.is_empty() {
            self.block = vec![Op::Extract; 7];
            self.block.extend([Op::TopK, Op::TopK, Op::Stream]);
            shuffle(&mut self.block, &mut self.rng);
        }
        self.block.pop().map(|kind| kind(doc))
    }
}

/// Generated inputs of one run, as files on disk plus the document pool.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub dict: PathBuf,
    pub rules: PathBuf,
    /// One document per line: the batch corpus, or the request pool.
    pub docs_file: PathBuf,
    /// The first document alone (`batch_pubmed` set-up time).
    pub one_doc_file: PathBuf,
    pub artifact: PathBuf,
    pub docs: Vec<String>,
    pub entities: usize,
    pub rules_count: usize,
    /// Fresh words, absent from every document, for reload deltas.
    fresh_words: Vec<String>,
}

impl Inputs {
    /// The `n`-th reload delta as protocol fields: one entity and one rule
    /// made only of words no document contains, so no answer changes.
    pub fn reload_fields(&self, n: usize) -> serde_json::Value {
        let w = |k: usize| self.fresh_words[(3 * n + k) % self.fresh_words.len()].as_str();
        serde_json::json!({
            "add_entities": [format!("{} {}", w(0), w(1))],
            "add_rules": [{"lhs": w(0), "rhs": w(2), "weight": 1.0}],
        })
    }

    pub fn doc_bytes(&self) -> usize {
        self.docs.iter().map(|d| d.len() + 1).sum()
    }
}

/// Generates the inputs of `workload` under `seed` into `dir`.
pub fn generate_inputs(workload: Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let data = generate(&workload.profile(), CORPUS_SEED);
    write_files(&data, dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let render = |tokens: &[aeetes_text::TokenId]| data.interner.render(tokens);
    let mut docs: Vec<String> = Vec::new();
    match workload {
        Workload::FleetShort => {
            // 30-token slices holding at most one planted mention.
            for (d, doc) in data.documents.iter().enumerate() {
                let tokens = doc.tokens();
                for lo in (0..tokens.len()).step_by(SLICE_TOKENS) {
                    let hi = (lo + SLICE_TOKENS).min(tokens.len());
                    if hi - lo < SLICE_TOKENS / 2 {
                        continue;
                    }
                    let mentions = data.gold_for(d).filter(|g| (g.span.start as usize) < hi && g.span.end() > lo).count();
                    if mentions <= 1 {
                        docs.push(render(&tokens[lo..hi]));
                    }
                }
            }
        }
        _ => docs.extend(data.documents.iter().map(|d| render(d.tokens()))),
    }
    docs.retain(|d| !d.trim().is_empty());
    // The run's documents: a seeded sample of the corpus.
    shuffle(&mut docs, &mut Rng::new(seed));
    docs.truncate(workload.pool_size());
    if docs.is_empty() {
        return Err("generated no documents".into());
    }
    let docs_file = dir.join("docs.txt");
    let one_doc_file = dir.join("one.txt");
    write_lines(&docs_file, &docs)?;
    write_lines(&one_doc_file, &docs[..1])?;

    // Fresh words must also miss the dictionary: a rule on a dictionary
    // word would derive new variants of existing entities.
    let dict_words: Vec<&str> = data.dictionary.iter().flat_map(|(_, e)| e.raw.split_whitespace()).collect();
    let vocab: HashSet<&str> = docs.iter().flat_map(|d| d.split_whitespace()).chain(dict_words).collect();
    let mut rng = Rng::new(seed ^ 0xF4E5_D6C7);
    let mut fresh_words = Vec::new();
    while fresh_words.len() < 3 * 256 {
        let word: String = (0..12).map(|_| (b'a' + rng.below(26) as u8) as char).collect();
        if !vocab.contains(word.as_str()) {
            fresh_words.push(word);
        }
    }
    Ok(Inputs {
        workload,
        seed,
        dict: dir.join("dict.txt"),
        rules: dir.join("rules.tsv"),
        docs_file,
        one_doc_file,
        artifact: dir.join("engine.aeet"),
        docs,
        entities: data.dictionary.len(),
        rules_count: data.rules.len(),
        fresh_words,
    })
}

fn write_lines(path: &Path, lines: &[String]) -> Result<(), String> {
    let mut out = std::io::BufWriter::new(fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?);
    for l in lines {
        writeln!(out, "{l}").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-inputs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn same_seed_writes_byte_identical_inputs() {
        for workload in Workload::ALL {
            let (a, b, c) = (scratch_dir("a"), scratch_dir("b"), scratch_dir("c"));
            let first = generate_inputs(workload, 7, &a).unwrap();
            let again = generate_inputs(workload, 7, &b).unwrap();
            generate_inputs(workload, 8, &c).unwrap();
            for file in ["dict.txt", "rules.tsv", "docs.txt", "one.txt"] {
                let bytes = fs::read(a.join(file)).unwrap();
                assert_eq!(bytes, fs::read(b.join(file)).unwrap(), "{}: {file} differs under one seed", workload.name());
                if file == "docs.txt" {
                    assert_ne!(bytes, fs::read(c.join(file)).unwrap(), "{}: another seed gave the same documents", workload.name());
                }
            }
            assert_eq!(first.reload_fields(3), again.reload_fields(3));
            let ops = |seed| OpGen::new(workload, seed, 1, first.docs.len()).take(50).collect::<Vec<Op>>();
            assert_eq!(ops(7), ops(7));
            for dir in [a, b, c] {
                let _ = fs::remove_dir_all(dir);
            }
        }
    }

    #[test]
    fn reload_words_appear_in_no_document_or_entity() {
        let dir = scratch_dir("fresh");
        let inputs = generate_inputs(Workload::ServeMixed, 3, &dir).unwrap();
        let dict = fs::read_to_string(&inputs.dict).unwrap();
        let known: HashSet<&str> = inputs.docs.iter().flat_map(|d| d.split_whitespace()).chain(dict.split_whitespace()).collect();
        for n in 0..64 {
            let fields = inputs.reload_fields(n).to_string();
            for w in fields.split(|c: char| !c.is_ascii_lowercase()).filter(|w| w.len() == 12) {
                assert!(!known.contains(w), "reload word {w} occurs in the inputs");
            }
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn serve_mixed_keeps_its_mix() {
        let ops: Vec<Op> = OpGen::new(Workload::ServeMixed, 1, 0, 200).take(10_000).collect();
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count();
        assert_eq!(count(|o| matches!(o, Op::Extract(_))), 7_000);
        assert_eq!(count(|o| matches!(o, Op::TopK(_))), 2_000);
        assert_eq!(count(|o| matches!(o, Op::Stream(_))), 1_000);
        for doc in 0..200 {
            assert_eq!(ops.iter().filter(|o| o.doc() == doc).count(), 50, "document {doc} sent as often as the others");
        }
    }
}
