//! Integration tests for the CLI subcommands: build an engine from files,
//! run stats, and verify extraction output formats.

use aeetes_cli::commands;
use std::fs;
use std::path::PathBuf;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aeetes-cli-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

fn argv(parts: &[String]) -> Vec<String> {
    parts.to_vec()
}

fn s(x: &str) -> String {
    x.to_string()
}

#[test]
fn build_stats_extract_round_trip() {
    let dir = workdir("roundtrip");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let docs = dir.join("docs.txt");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "Purdue University USA\nUQ AU\nMIT\n").unwrap();
    fs::write(&rules, "UQ\tUniversity of Queensland\nAU\tAustralia\nMIT\tMassachusetts Institute of Technology\t0.95\n").unwrap();
    fs::write(&docs, "she visited purdue university usa then mit\nuniversity of queensland australia\n").unwrap();

    commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
    ]))
    .expect("build succeeds");
    assert!(engine.exists());
    assert!(fs::metadata(&engine).unwrap().len() > 32);

    commands::stats(&argv(&[s("--engine"), engine.display().to_string()])).expect("stats succeeds");

    for format in ["tsv", "jsonl"] {
        commands::extract(&argv(&[
            s("--engine"),
            engine.display().to_string(),
            s("--docs"),
            docs.display().to_string(),
            s("--tau"),
            s("0.8"),
            s("--best"),
            s("--format"),
            s(format),
        ]))
        .expect("extract succeeds");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn metric_flag_accepted_and_validated() {
    let dir = workdir("metric");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let docs = dir.join("docs.txt");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "alpha beta\n").unwrap();
    fs::write(&rules, "alpha\ta1\n").unwrap();
    fs::write(&docs, "alpha beta here\n").unwrap();
    commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
    ]))
    .unwrap();
    for metric in ["jaccard", "dice", "cosine", "overlap"] {
        commands::extract(&argv(&[
            s("--engine"),
            engine.display().to_string(),
            s("--docs"),
            docs.display().to_string(),
            s("--metric"),
            s(metric),
        ]))
        .unwrap_or_else(|e| panic!("metric {metric}: {e}"));
    }
    let err = commands::extract(&argv(&[
        s("--engine"),
        engine.display().to_string(),
        s("--docs"),
        docs.display().to_string(),
        s("--metric"),
        s("nope"),
    ]))
    .unwrap_err();
    assert!(err.contains("unknown metric"));
    let err = commands::extract(&argv(&[
        s("--engine"),
        engine.display().to_string(),
        s("--docs"),
        docs.display().to_string(),
        s("--tau"),
        s("1.5"),
    ]))
    .unwrap_err();
    assert!(err.contains("--tau"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn top_k_and_stream_flags_parse_and_validate() {
    let dir = workdir("topk");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let docs = dir.join("docs.txt");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "alpha beta gamma\nbeta gamma\n").unwrap();
    fs::write(&rules, "alpha\ta1\n").unwrap();
    fs::write(&docs, "alpha beta gamma and beta gamma again\n").unwrap();
    commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
    ]))
    .unwrap();
    let base = [s("--engine"), engine.display().to_string(), s("--docs"), docs.display().to_string()];

    // Both `--top-k K` and `--top-k=K` spellings work.
    for spelling in [vec![s("--top-k"), s("2")], vec![s("--top-k=2")]] {
        let mut args = base.to_vec();
        args.extend(spelling);
        commands::extract(&argv(&args)).expect("--top-k extract succeeds");
    }

    // Bad values and near-miss flags are rejected with pointed messages.
    let mut args = base.to_vec();
    args.extend([s("--top-k"), s("0")]);
    assert!(commands::extract(&argv(&args)).unwrap_err().contains("--top-k"));
    let mut args = base.to_vec();
    args.extend([s("--top-k"), s("abc")]);
    assert!(commands::extract(&argv(&args)).unwrap_err().contains("--top-k"));
    let mut args = base.to_vec();
    args.extend([s("--top-q"), s("2")]);
    let err = commands::extract(&argv(&args)).unwrap_err();
    assert!(err.contains("unknown flag") && err.contains("--top-k"), "near-miss must name the real flag: {err}");

    // Exactness guard: --top-k refuses --best and extraction budgets.
    let mut args = base.to_vec();
    args.extend([s("--top-k"), s("2"), s("--best")]);
    assert!(commands::extract(&argv(&args)).unwrap_err().contains("--best"));
    let mut args = base.to_vec();
    args.extend([s("--top-k"), s("2"), s("--max-matches"), s("5")]);
    assert!(commands::extract(&argv(&args)).unwrap_err().contains("--top-k"));

    // --stream reads one document from stdin: batch-shaped flags are
    // rejected up front (before any stdin read).
    for extra in [vec![s("--docs"), docs.display().to_string()], vec![s("--top-k"), s("2")], vec![s("--best")]] {
        let mut args = vec![s("--engine"), engine.display().to_string(), s("--stream")];
        args.extend(extra.clone());
        let err = commands::extract(&argv(&args)).unwrap_err();
        assert!(err.contains("--stream"), "{extra:?}: {err}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn helpful_errors_for_missing_files_and_flags() {
    assert!(commands::build(&argv(&[s("--dict"), s("/nonexistent/x")])).is_err());
    let err = commands::extract(&argv(&[])).unwrap_err();
    assert!(err.contains("--engine"), "{err}");
    let err = commands::stats(&argv(&[s("--engine"), s("/nonexistent/engine")])).unwrap_err();
    assert!(err.contains("/nonexistent/engine"));
}

#[test]
fn demo_runs() {
    assert_eq!(commands::demo().expect("demo runs"), commands::EXIT_OK);
}

#[test]
fn build_is_atomic_and_leaves_no_temp_files() {
    let dir = workdir("atomic");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "a b\n").unwrap();
    fs::write(&rules, "a\talpha\n").unwrap();
    commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
    ]))
    .expect("build succeeds");
    assert!(engine.exists());
    let leftovers: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn budget_flags_yield_partial_exit_code() {
    let dir = workdir("budget");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let docs = dir.join("docs.txt");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "purdue university usa\nuq au\n").unwrap();
    fs::write(&rules, "uq\tuniversity of queensland\n").unwrap();
    fs::write(&docs, "purdue university usa and uq au\nuniversity of queensland au\n").unwrap();
    commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
    ]))
    .unwrap();

    let base = [s("--engine"), engine.display().to_string(), s("--docs"), docs.display().to_string()];
    // Unconstrained run: complete results, exit 0.
    let code = commands::extract(&argv(&base)).expect("extract succeeds");
    assert_eq!(code, commands::EXIT_OK);
    // Generous budgets: still complete.
    let mut generous = base.to_vec();
    generous.extend([s("--timeout"), s("3600"), s("--max-candidates"), s("1000000")]);
    assert_eq!(commands::extract(&argv(&generous)).unwrap(), commands::EXIT_OK);
    // Zero candidate budget: every document truncates → exit 2.
    let mut strangled = base.to_vec();
    strangled.extend([s("--max-candidates"), s("0")]);
    assert_eq!(commands::extract(&argv(&strangled)).unwrap(), commands::EXIT_PARTIAL);
    // Same through the per-document metric-override path.
    let mut strangled_dice = base.to_vec();
    strangled_dice.extend([s("--max-candidates"), s("0"), s("--metric"), s("dice")]);
    assert_eq!(commands::extract(&argv(&strangled_dice)).unwrap(), commands::EXIT_PARTIAL);
    // Invalid budget values are failures, not silently ignored.
    let mut bad = base.to_vec();
    bad.extend([s("--timeout"), s("-1")]);
    assert!(commands::extract(&argv(&bad)).unwrap_err().contains("--timeout"));
    let mut bad = base.to_vec();
    bad.extend([s("--max-candidates"), s("many")]);
    assert!(commands::extract(&argv(&bad)).unwrap_err().contains("--max-candidates"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_rules_file_reports_line() {
    let dir = workdir("badrules");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    fs::write(&dict, "a b\n").unwrap();
    fs::write(&rules, "only-one-column\n").unwrap();
    let err = commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        dir.join("e.aeet").display().to_string(),
    ]))
    .unwrap_err();
    assert!(err.contains(":1:"), "line number in: {err}");
    let _ = fs::remove_dir_all(&dir);
}

/// Format version from an artifact's 8-byte header prefix.
fn artifact_version(path: &PathBuf) -> u32 {
    let bytes = fs::read(path).unwrap();
    assert_eq!(&bytes[..4], b"AEET");
    u32::from_le_bytes(bytes[4..8].try_into().unwrap())
}

#[test]
fn frozen_build_info_extract_and_compaction_round_trip() {
    let dir = workdir("frozen");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let docs = dir.join("docs.txt");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "Purdue University USA\nUQ AU\nMIT\n").unwrap();
    fs::write(&rules, "UQ\tUniversity of Queensland\nAU\tAustralia\nMIT\tMassachusetts Institute of Technology\t0.95\n").unwrap();
    fs::write(&docs, "she visited purdue university usa then mit\nuniversity of queensland australia\n").unwrap();

    // build --frozen writes a v5 artifact.
    commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
        s("--shards"),
        s("2"),
        s("--frozen"),
    ]))
    .expect("frozen build succeeds");
    assert_eq!(artifact_version(&engine), 5);

    // dict info reads it from the header (both renderings).
    commands::dict_cmd(&argv(&[s("info"), engine.display().to_string()])).expect("dict info succeeds");
    commands::dict_cmd(&argv(&[s("info"), engine.display().to_string(), s("--json")])).expect("dict info --json succeeds");

    // stats and extract open the same artifact.
    commands::stats(&argv(&[s("--engine"), engine.display().to_string()])).expect("stats over frozen succeeds");
    let code = commands::extract(&argv(&[
        s("--engine"),
        engine.display().to_string(),
        s("--docs"),
        docs.display().to_string(),
        s("--tau"),
        s("0.8"),
    ]))
    .expect("extract over frozen succeeds");
    assert_eq!(code, commands::EXIT_OK);

    // WAL compaction over a frozen source rewrites the artifact *frozen*
    // at the log's last generation, then resets the log.
    let wal = dir.join("deltas.wal");
    let mut log = aeetes_core::Wal::create(&wal, 1).expect("create wal");
    let delta = aeetes_cli::protocol::delta_value(&aeetes_shard::DictDelta {
        add_entities: vec!["University of Queensland Brisbane".into()],
        remove_entities: vec![],
        add_rules: vec![],
    });
    log.append(2, delta.to_string().as_bytes()).expect("append delta");
    log.sync().expect("sync wal");
    drop(log);

    commands::wal_cmd(&argv(&[s("compact"), s("--wal"), wal.display().to_string(), s("--engine"), engine.display().to_string()]))
        .expect("wal compact over frozen succeeds");
    assert_eq!(artifact_version(&engine), 5, "compaction must preserve the frozen format");
    let bytes = fs::read(&engine).unwrap();
    let generation = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    assert_eq!(generation, 2, "compacted artifact must carry the log's last generation");

    // The compacted frozen artifact still serves extraction.
    assert_eq!(
        commands::extract(&argv(&[s("--engine"), engine.display().to_string(), s("--docs"), docs.display().to_string(),]))
            .expect("extract over compacted frozen artifact"),
        commands::EXIT_OK
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn legacy_artifacts_are_rejected_naming_their_version() {
    let dir = workdir("legacy");
    let dict = dir.join("dict.txt");
    let rules = dir.join("rules.tsv");
    let docs = dir.join("docs.txt");
    let engine = dir.join("engine.aeet");
    fs::write(&dict, "a b\n").unwrap();
    fs::write(&rules, "a\talpha\n").unwrap();
    fs::write(&docs, "alpha b\n").unwrap();
    commands::build(&argv(&[
        s("--dict"),
        dict.display().to_string(),
        s("--rules"),
        rules.display().to_string(),
        s("--out"),
        engine.display().to_string(),
    ]))
    .unwrap();
    let current = fs::read(&engine).unwrap();
    let path = engine.display().to_string();
    for version in 1u32..=4 {
        // An older artifact keeps the `AEET` magic; only the version word
        // tells it apart, and every command must name it in its error.
        let mut bytes = current.clone();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        fs::write(&engine, &bytes).unwrap();
        let named = format!("version {version}");
        let errors = [
            commands::stats(&argv(&[s("--engine"), path.clone()])).expect_err("stats refuses"),
            commands::extract(&argv(&[s("--engine"), path.clone(), s("--docs"), docs.display().to_string()])).expect_err("extract refuses"),
            // `--frozen` is still accepted (and ignored): the error is the
            // version, not an unknown flag.
            commands::serve_cmd(&argv(&[s("--engine"), path.clone(), s("--frozen")])).expect_err("serve refuses"),
            commands::dict_cmd(&argv(&[s("info"), path.clone()])).expect_err("dict info refuses"),
        ];
        for err in errors {
            assert!(err.contains(&named), "v{version}: error must name the version: {err}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Runs the `aeetes` binary, returning its stdout; a non-zero exit fails.
fn run_aeetes(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_aeetes")).args(args).output().expect("spawn aeetes");
    assert!(out.status.success(), "aeetes {args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

const ORACLE_DICT: &str = "Purdue University USA\nUQ AU\nMIT\nUniversity of Wisconsin Madison\nRMIT AU\n";
const ORACLE_RULES: &str = "UQ\tUniversity of Queensland\nAU\tAustralia\nUSA\tUnited States\t0.9\nUW\tUniversity of Wisconsin\n";
const ORACLE_DOCS: &str = "\
she visited purdue university united states then mit
the university of queensland australia and rmit australia
uw madison hosted university of wisconsin madison alumni
nothing to see here
";

/// Builds the oracle corpus with `extra` flags into `dir/name`, returning
/// the artifact path.
fn build_oracle_artifact(dir: &std::path::Path, name: &str, extra: &[&str]) -> String {
    let (dict, rules, out) = (dir.join("dict.txt"), dir.join("rules.tsv"), dir.join(name));
    fs::write(&dict, ORACLE_DICT).unwrap();
    fs::write(&rules, ORACLE_RULES).unwrap();
    let (dict, rules, out) = (dict.display().to_string(), rules.display().to_string(), out.display().to_string());
    let mut args = vec!["build", "--dict", &dict, "--rules", &rules, "--out", &out];
    args.extend_from_slice(extra);
    run_aeetes(&args);
    out
}

/// The brute-force JaccAR oracle over the same files the CLI reads: every
/// substring in the window bounds scored against every entity. Rows are
/// `(doc, start, len, entity text, score to 4 places)`, sorted.
fn oracle_matches(tau: f64) -> Vec<(usize, u32, u32, String, String)> {
    use aeetes_rules::{DeriveConfig, DerivedDictionary, RuleSet};
    use aeetes_sim::{sorted_set, JaccArVerifier};
    use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
    let tok = Tokenizer::default();
    let mut int = Interner::new();
    let mut dict = Dictionary::new();
    for line in ORACLE_DICT.lines() {
        dict.push(line, &tok, &mut int);
    }
    let mut rules = RuleSet::new();
    for line in ORACLE_RULES.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let w = f.get(2).map_or(1.0, |w| w.parse().unwrap());
        rules.push_weighted_str(f[0], f[1], w, &tok, &mut int).unwrap();
    }
    let dd = DerivedDictionary::build(&dict, &rules, &DeriveConfig::default());
    let verifier = JaccArVerifier::new(&dd);
    let lens: Vec<usize> = dd.iter().map(|(_, d)| sorted_set(d.tokens).len()).filter(|&l| l > 0).collect();
    let w_lo = ((*lens.iter().min().unwrap() as f64 * tau + 1e-9).floor() as usize).max(1);
    let w_hi = (*lens.iter().max().unwrap() as f64 / tau - 1e-9).ceil() as usize;
    let mut out = Vec::new();
    for (doc_id, text) in ORACLE_DOCS.lines().enumerate() {
        let doc = Document::parse(text, &tok, &mut int);
        let n = doc.len();
        for p in 0..n {
            for l in w_lo..=w_hi.min(n - p) {
                let set = sorted_set(&doc.tokens()[p..p + l]);
                for (e, ent) in dict.iter() {
                    let score = verifier.verify(e, &set, 0.0).value;
                    if score >= tau {
                        out.push((doc_id, p as u32, l as u32, ent.raw.to_string(), format!("{score:.4}")));
                    }
                }
            }
        }
    }
    out.sort();
    out
}

/// Parses `extract --format tsv` rows into the oracle's row shape.
fn extract_rows(stdout: &str) -> Vec<(usize, u32, u32, String, String)> {
    let mut rows: Vec<_> = stdout
        .lines()
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            (f[0].parse().unwrap(), f[1].parse().unwrap(), f[2].parse().unwrap(), f[4].to_string(), f[3].to_string())
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn default_build_is_v5_and_serves_extract_and_stats_like_the_oracle() {
    let dir = workdir("oracle");
    let plain = build_oracle_artifact(&dir, "plain.aeet", &[]);
    let frozen = build_oracle_artifact(&dir, "frozen.aeet", &["--frozen"]);
    let plain_bytes = fs::read(&plain).unwrap();
    assert_eq!(u32::from_le_bytes(plain_bytes[4..8].try_into().unwrap()), 5, "build with no flags writes v5");
    assert_eq!(plain_bytes, fs::read(&frozen).unwrap(), "--frozen is accepted and changes nothing");

    let docs = dir.join("docs.txt");
    fs::write(&docs, ORACLE_DOCS).unwrap();
    let docs = docs.display().to_string();
    for tau in [0.7, 0.8, 1.0] {
        let expected = oracle_matches(tau);
        assert!(!expected.is_empty(), "tau={tau}: the corpus must produce matches");
        let got = extract_rows(&run_aeetes(&["extract", "--engine", &plain, "--docs", &docs, "--tau", &tau.to_string()]));
        assert_eq!(got, expected, "tau={tau}");
    }

    // stats reports the same engine a from-source build produces.
    let reference = {
        use aeetes_rules::RuleSet;
        use aeetes_text::{Dictionary, Interner, Tokenizer};
        let tok = Tokenizer::default();
        let mut int = Interner::new();
        let mut dict = Dictionary::new();
        for line in ORACLE_DICT.lines() {
            dict.push(line, &tok, &mut int);
        }
        let mut rules = RuleSet::new();
        for line in ORACLE_RULES.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            rules
                .push_weighted_str(f[0], f[1], f.get(2).map_or(1.0, |w| w.parse().unwrap()), &tok, &mut int)
                .unwrap();
        }
        aeetes_core::Aeetes::build(dict, &rules, &int, aeetes_core::AeetesConfig::default())
    };
    let stats = run_aeetes(&["stats", "--engine", &plain]);
    let field = |name: &str| -> String {
        let line = stats.lines().find(|l| l.starts_with(name)).unwrap_or_else(|| panic!("stats lacks {name}: {stats}"));
        line[name.len()..].trim().to_string()
    };
    assert_eq!(field("entities"), reference.dictionary().len().to_string());
    assert_eq!(field("derived variants"), reference.derived().len().to_string());
    assert_eq!(field("index entries"), reference.index().total_entries().to_string());
    assert_eq!(field("segments"), format!("1 [{}]", reference.derived().len()));
    assert_eq!(field("persisted rules"), "4");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn two_segment_artifact_extracts_like_one_segment() {
    let dir = workdir("segments");
    let one = build_oracle_artifact(&dir, "one.aeet", &[]);
    let two = build_oracle_artifact(&dir, "two.aeet", &["--shards", "2"]);
    assert!(run_aeetes(&["stats", "--engine", &two])
        .lines()
        .any(|l| l.starts_with("segments") && l.contains(" 2 [")));
    let docs = dir.join("docs.txt");
    fs::write(&docs, ORACLE_DOCS).unwrap();
    let docs = docs.display().to_string();
    for extra in [
        &["--tau", "0.7"][..],
        &["--tau", "0.8", "--format", "jsonl"],
        &["--tau", "0.7", "--top-k", "2"],
        &["--tau", "0.7", "--top-k", "2", "--threads", "2"],
        &["--tau", "0.7", "--best"],
    ] {
        let run = |engine: &str| {
            let mut args = vec!["extract", "--engine", engine, "--docs", &docs];
            args.extend_from_slice(extra);
            run_aeetes(&args)
        };
        let expected = run(&one);
        assert!(!expected.is_empty(), "{extra:?}: the corpus must produce matches");
        assert_eq!(run(&two), expected, "{extra:?}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Runs the `aeetes` binary with `stdin` piped in, returning its stdout; a
/// non-zero exit fails.
fn run_aeetes_stdin(args: &[&str], stdin: &str) -> String {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_aeetes"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn aeetes");
    child.stdin.take().unwrap().write_all(stdin.as_bytes()).unwrap();
    let out = child.wait_with_output().expect("wait for aeetes");
    assert!(out.status.success(), "aeetes {args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn extract_without_metric_flag_uses_the_artifacts_metric() {
    use aeetes_core::{save_engine, Aeetes, AeetesConfig, ExtractBackend, ExtractScratch, Query};
    use aeetes_rules::RuleSet;
    use aeetes_sim::Metric;
    use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
    let dir = workdir("saved-metric");
    let tok = Tokenizer::default();
    let mut int = Interner::new();
    let mut dict = Dictionary::new();
    for line in ORACLE_DICT.lines() {
        dict.push(line, &tok, &mut int);
    }
    let mut rules = RuleSet::new();
    for line in ORACLE_RULES.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        rules
            .push_weighted_str(f[0], f[1], f.get(2).map_or(1.0, |w| w.parse().unwrap()), &tok, &mut int)
            .unwrap();
    }
    let config = AeetesConfig { metric: Metric::Dice, ..AeetesConfig::default() };
    let engine = Aeetes::build(dict, &rules, &int, config);
    let artifact = dir.join("dice.aeet");
    fs::write(&artifact, save_engine(&engine, &int)).unwrap();
    let artifact = artifact.display().to_string();
    let docs = dir.join("docs.txt");
    fs::write(&docs, ORACLE_DOCS).unwrap();
    let docs = docs.display().to_string();

    // Batch: no flag extracts under the saved Dice, `--metric` overrides it.
    let run = |extra: &[&str]| {
        let mut args = vec!["extract", "--engine", &artifact, "--docs", &docs, "--tau", "0.7"];
        args.extend_from_slice(extra);
        run_aeetes(&args)
    };
    let saved = run(&[]);
    assert!(!saved.is_empty(), "the corpus must produce matches");
    assert_eq!(saved, run(&["--metric", "dice"]));
    assert_ne!(saved, run(&["--metric", "jaccard"]), "Dice and Jaccard must differ on this corpus for the check to bite");
    assert_eq!(run(&["--threads", "2"]), saved);

    // Stream: one document on stdin, rows `start len score entity bytes`,
    // equal to the saved engine's own extraction of the same text.
    let text = ORACLE_DOCS.replace('\n', " ");
    let doc = Document::parse(&text, &tok, &mut int);
    let row = |start: u32, len: u32, score: f64, entity: &str| format!("{start}\t{len}\t{score:.4}\t{entity}");
    let expected: Vec<String> = engine
        .extract(&doc, 0.7)
        .iter()
        .map(|m| row(m.span.start, m.span.len, m.score, engine.dictionary().record(m.entity).raw))
        .collect();
    let mut streamed: Vec<String> = run_aeetes_stdin(&["extract", "--engine", &artifact, "--stream", "--tau", "0.7"], &text)
        .lines()
        .map(|l| l.rsplit_once('\t').expect("byte range column").0.to_string())
        .collect();
    streamed.sort();
    let mut sorted = expected.clone();
    sorted.sort();
    assert_eq!(streamed, sorted);
    let jaccard = Query { metric: Metric::Jaccard, ..Query::new(engine.config(), 0.7) };
    let jaccard = engine.query(&doc, &jaccard, &mut ExtractScratch::new()).matches.to_vec();
    assert_ne!(jaccard, engine.extract(&doc, 0.7), "Dice and Jaccard must differ on the streamed text too");
    let _ = fs::remove_dir_all(&dir);
}
