//! The Makefile's `DETERMINISM` list and the CI `determinism` matrix
//! both name every `reproduce` selector, in registry order. A new
//! experiment that is missing from either list would ship without its
//! byte-identity check, so this test reads both files as text and
//! compares them with the registry.

use enzian::platform::experiments::registry;

fn read(path: &str) -> String {
    let full = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{}: {e}", full.display()))
}

fn registry_names() -> Vec<String> {
    registry().iter().map(|e| e.name().to_string()).collect()
}

/// The words of the `DETERMINISM = ...` assignment, following `\`
/// continuation lines.
fn makefile_list(text: &str) -> Vec<String> {
    let start = text
        .find("\nDETERMINISM =")
        .expect("Makefile assigns DETERMINISM");
    let mut words = Vec::new();
    for line in text[start + "\nDETERMINISM =".len()..].lines() {
        let (body, more) = match line.trim_end().strip_suffix('\\') {
            Some(body) => (body, true),
            None => (line, false),
        };
        words.extend(body.split_whitespace().map(str::to_string));
        if !more {
            break;
        }
    }
    words
}

/// The entries of the `selector: [...]` matrix, which may span lines.
fn ci_list(text: &str) -> Vec<String> {
    let start = text
        .find("selector: [")
        .expect("ci.yml has a selector matrix");
    let body = &text[start + "selector: [".len()..];
    let end = body.find(']').expect("selector matrix is closed");
    body[..end]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

#[test]
fn makefile_determinism_list_is_the_registry() {
    assert_eq!(makefile_list(&read("Makefile")), registry_names());
}

#[test]
fn ci_determinism_matrix_is_the_registry() {
    assert_eq!(ci_list(&read(".github/workflows/ci.yml")), registry_names());
}
