//! The documentation link checker: every relative markdown link in
//! `README.md` and the `docs/` book must resolve to a file that
//! exists, and so must every markdown file a Rust source comment
//! cites. The docs index (`docs/README.md`) promises the book is
//! cross-linked and current; this test — also run as a dedicated CI
//! step — is what keeps that promise from rotting.

use std::path::{Path, PathBuf};

/// Extracts the targets of inline markdown links `[text](target)`.
/// Good enough for this repo's docs: no reference-style links, no
/// nested parentheses in targets.
fn link_targets(text: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("](") {
        rest = &rest[pos + 2..];
        if let Some(end) = rest.find(')') {
            targets.push(rest[..end].trim().to_string());
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    targets
}

fn markdown_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let entries =
        std::fs::read_dir(&docs).unwrap_or_else(|e| panic!("cannot read {}: {e}", docs.display()));
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "md") {
            files.push(path);
        }
    }
    files.sort();
    files
}

#[test]
fn relative_doc_links_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dangling = Vec::new();
    let mut checked = 0usize;
    for file in markdown_files(root) {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let dir = file.parent().expect("markdown files live in a directory");
        for target in link_targets(&text) {
            // External and in-page links are out of scope; only
            // relative file links can dangle against the repo.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            let path_part = target.split('#').next().expect("split yields at least one");
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            if !dir.join(path_part).exists() {
                dangling.push(format!("{} -> {target}", file.display()));
            }
        }
    }
    assert!(
        checked >= 10,
        "the book cross-links more than this; the extractor is broken ({checked} links found)"
    );
    assert!(
        dangling.is_empty(),
        "dangling relative links:\n  {}",
        dangling.join("\n  ")
    );
}

#[test]
fn the_docs_book_is_complete_and_indexed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let index = std::fs::read_to_string(root.join("docs/README.md")).expect("docs index exists");
    for entry in std::fs::read_dir(root.join("docs"))
        .expect("docs dir")
        .filter_map(Result::ok)
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".md") && name != "README.md" {
            assert!(
                index.contains(&format!("({name})")),
                "docs/{name} is not linked from the docs/README.md index"
            );
        }
    }
    // Every chapter carries its "Verified by" line, pointing the reader
    // at the suite that pins the chapter's claims.
    for chapter in [
        "architecture.md",
        "determinism.md",
        "scenario-format.md",
        "sharding.md",
        "dispatch.md",
    ] {
        let text = std::fs::read_to_string(root.join("docs").join(chapter))
            .unwrap_or_else(|e| panic!("docs/{chapter}: {e}"));
        assert!(
            text.contains("**Verified by:**"),
            "docs/{chapter} is missing its `Verified by` line"
        );
    }
}

/// The `*.md` file names cited in `text`: each `.md` that ends a word,
/// with the path characters in front of it.
fn md_citations(text: &str) -> Vec<&str> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut cited = Vec::new();
    for (pos, _) in text.match_indices(".md") {
        let end = pos + 3;
        if text[end..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let start = text[..pos]
            .rfind(|c: char| !is_path(c))
            .map_or(0, |i| i + 1);
        let name = &text[start..end];
        if name != ".md" && !name.ends_with("/.md") {
            cited.push(name);
        }
    }
    cited
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()));
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn markdown_files_cited_in_source_comments_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "src"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let homes = [
        root.to_path_buf(),
        root.join("docs"),
        root.join("perfbench"),
    ];
    let mut dangling = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        for (n, line) in text.lines().enumerate() {
            // Whole-line `//`, `///` and `//!` comments; trailing
            // comments after code are not scanned.
            let Some(comment) = line.trim_start().strip_prefix("//") else {
                continue;
            };
            for name in md_citations(comment) {
                checked += 1;
                if !homes.iter().any(|home| home.join(name).is_file()) {
                    dangling.push(format!("{}:{}: {name}", file.display(), n + 1));
                }
            }
        }
    }
    assert!(
        checked >= 10,
        "the sources cite more docs than this; the extractor is broken ({checked} found)"
    );
    assert!(
        dangling.is_empty(),
        "source comments cite markdown files that do not exist:\n  {}",
        dangling.join("\n  ")
    );
}
