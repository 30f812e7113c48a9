//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --aeetes PATH-TO-RELEASE-BINARY --out RESULTS-DIR --work WORK-DIR
//! ```
//!
//! Generates the workload's inputs from the seed, builds a frozen artifact
//! with `aeetes build --frozen`, computes reference answers with the
//! library, then measures: end to end from outside with `--trace 0`, per
//! layer with `--trace 1`. Prints a report, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when any output
//! differed from the reference (after printing), 2 on a set-up error
//! (without a result line).

mod client;
mod e2e;
mod inputs;
mod layers;
mod procs;
mod reference;
mod trace;
mod util;

use e2e::{Ctx, Outcome};
use inputs::{generate_inputs, Workload};
use reference::Reference;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    aeetes: PathBuf,
    out: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{name} needs a value"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        },
        aeetes: PathBuf::from(get("--aeetes")?),
        out: PathBuf::from(get("--out")?),
        work: PathBuf::from(get("--work")?),
    })
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn build_artifact(bin: &Path, inputs: &inputs::Inputs) -> Result<(), String> {
    let out = Command::new(bin)
        .args(["build", "--frozen", "--shards", &inputs.workload.shards().to_string(), "--dict"])
        .arg(&inputs.dict)
        .arg("--rules")
        .arg(&inputs.rules)
        .arg("--out")
        .arg(&inputs.artifact)
        .output()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!("aeetes build failed: {}", String::from_utf8_lossy(&out.stderr).trim()));
    }
    Ok(())
}

fn run(args: &Args) -> Result<i32, String> {
    let started = Instant::now();
    let name = args.workload.name();
    let tag = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let work = args.work.join(&tag);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;

    let inputs = generate_inputs(args.workload, args.seed, &work)?;
    build_artifact(&args.aeetes, &inputs)?;
    let reference = Reference::compute(&inputs.artifact, &inputs.docs)?;
    let ctx = Ctx {
        bin: &args.aeetes,
        inputs: &inputs,
        reference: &reference,
        work: &work,
        seconds: args.seconds,
        out: &args.out,
        tag: &tag,
    };
    let outcome = if args.trace { layers::run(&ctx)? } else { e2e::run(&ctx)? };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} was not measured (value {})", m.name, m.value));
    }

    let spec = args.workload.spec();
    let meta = json!({
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "why": spec.why,
        "loop": spec.loop_type,
        "connections": spec.connections,
        "servers": spec.servers,
        "latency_limit_ms": spec.limit_ms.map_or(Value::Null, |l| json!(l)),
        "inputs": {
            "docs": inputs.docs.len(),
            "doc_bytes": inputs.doc_bytes(),
            "entities": inputs.entities,
            "rules": inputs.rules_count,
            "derived_variants": reference.variants,
            "shards": args.workload.shards(),
            "artifact_bytes": std::fs::metadata(&inputs.artifact).map(|m| m.len()).unwrap_or(0),
        },
        "machine": util::machine(),
    });
    print_report(&meta, &outcome);
    let result = result_line(&outcome);
    let mut record = meta.clone();
    if let Value::Object(map) = &mut record {
        map.insert("result".into(), result.clone());
        map.insert(
            "report".into(),
            Value::Array(outcome.report.iter().map(|m| json!({"name": m.name, "value": m.value, "unit": m.unit})).collect()),
        );
        map.insert("notes".into(), json!(outcome.notes));
        map.insert("mismatches".into(), json!(outcome.mismatches));
        map.insert("wall_s".into(), json!(started.elapsed().as_secs_f64()));
        for (k, v) in &outcome.extra {
            map.insert((*k).into(), v.clone());
        }
    }
    let path = args.out.join(format!("{tag}.json"));
    std::fs::write(&path, format!("{record}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    let _ = std::fs::remove_dir_all(&work);
    println!("{result}");
    Ok(if outcome.wrong > 0 { 1 } else { 0 })
}

fn result_line(outcome: &Outcome) -> Value {
    let mut metrics = serde_json::Map::new();
    for m in &outcome.metrics {
        metrics.insert(m.name.to_string(), json!({"value": m.value, "unit": m.unit}));
    }
    json!({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    })
}

fn print_report(meta: &Value, outcome: &Outcome) {
    let s = |k: &str| meta.get(k).map(|v| v.to_string()).unwrap_or_default();
    println!("perfbench {} seed {} trace {}", s("workload"), s("seed"), s("trace"));
    println!("  machine   {}", s("machine"));
    println!("  inputs    {}", s("inputs"));
    println!(
        "  workload  loop {} | connections {} | servers {} | latency limit ms {} | why: {}",
        s("loop"),
        s("connections"),
        s("servers"),
        s("latency_limit_ms"),
        s("why")
    );
    for m in &outcome.metrics {
        println!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.report {
        println!("  {:<34} {:>14.6} {}   (report only)", m.name, m.value, m.unit);
    }
    for n in &outcome.notes {
        println!("  note: {n}");
    }
    println!("  attempted {} failed {} wrong {}", outcome.attempted, outcome.failed, outcome.wrong);
    for mm in &outcome.mismatches {
        println!("  MISMATCH: {mm}");
    }
}
