//! EXPERIMENTS.md, the `paper` registry and the committed
//! `BENCH_paper.json` name the same experiments.

// The bench target's own source, so the test reads the registry its `main`
// (dead here) runs.
#[allow(dead_code)]
#[path = "../benches/paper/main.rs"]
mod paper;

fn repo_file(name: &str) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_experiment_the_docs_name_is_registered() {
    let registered: Vec<&str> = paper::EXPERIMENTS.iter().map(|e| e.id).collect();
    let docs = repo_file("EXPERIMENTS.md");
    let id_after = |rest: &str| -> usize {
        let end = rest.find(|c: char| !c.is_ascii_alphanumeric());
        end.unwrap_or(rest.len())
    };
    let runs = docs.split("paper -- ").skip(1);
    let named: Vec<&str> = runs.map(|rest| &rest[..id_after(rest)]).collect();
    assert!(!named.is_empty(), "EXPERIMENTS.md names no `paper -- <id>`");
    for id in &named {
        assert!(
            registered.contains(id),
            "EXPERIMENTS.md runs `paper -- {id}`; registered: {registered:?}"
        );
    }
    // And the committed report is one full-length run of that registry.
    let report = repo_file("BENCH_paper.json");
    assert!(
        report.contains("\"length\": \"full\""),
        "BENCH_paper.json is a smoke run"
    );
    for id in &registered {
        assert!(
            named.contains(id),
            "{id} is registered but EXPERIMENTS.md never runs it"
        );
        assert!(
            report.contains(&format!("\n    \"{id}\": {{")),
            "BENCH_paper.json lacks {id}"
        );
    }
}
