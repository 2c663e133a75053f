//! Deep-nesting robustness of `diversim serve`: a request line nested
//! past the parser's depth cap gets exactly one typed error line, the
//! server keeps answering, and the deepest *valid* request (a 256-node
//! `system` chain) still parses and is answered.

use std::io::Write;
use std::process::{Command, Stdio};

use diversim_bench::json::MAX_DEPTH;
use diversim_bench::serve::request::{EvaluationResponse, MAX_STRUCTURE_NODES};
use diversim_bench::serve::server::serve_lines;
use diversim_bench::serve::EvaluationService;

const VALID: &str = concat!(
    r#"{"api":"diversim/v1","id":"after","kind":"evaluate","seed":7,"stream":0,"#,
    r#""world":{"kind":"singleton","props":[0.1,0.3,0.5]},"#,
    r#""regime":"shared","suite_size":4,"replications":16,"study":"estimate"}"#
);

/// Deepest array/object nesting of a JSON line (brackets inside strings
/// do not occur in the lines built here).
fn nesting(line: &str) -> usize {
    let mut depth: usize = 0;
    let mut deepest = 0;
    for b in line.bytes() {
        match b {
            b'[' | b'{' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            b']' | b'}' => depth -= 1,
            _ => {}
        }
    }
    deepest
}

/// A `system` chain of exactly [`MAX_STRUCTURE_NODES`] nodes — single-
/// child `and` gates down to one component — the deepest structure the
/// wire accepts.
fn deepest_system() -> String {
    let mut system = r#"{"kind":"component","index":0}"#.to_string();
    for _ in 1..MAX_STRUCTURE_NODES {
        system = format!(r#"{{"kind":"and","children":[{system}]}}"#);
    }
    system
}

fn system_request(system: &str) -> String {
    format!(
        concat!(
            r#"{{"api":"diversim/v1","id":"deep-system","kind":"evaluate","seed":3,"stream":0,"#,
            r#""world":{{"kind":"singleton","props":[0.2,0.4,0.6]}},"#,
            r#""regime":"shared","suite_size":2,"replications":4,"study":"estimate","#,
            r#""system":{}}}"#
        ),
        system
    )
}

#[test]
fn deepest_valid_request_stays_under_the_cap() {
    let line = system_request(&deepest_system());
    assert_eq!(nesting(&line), 2 * MAX_STRUCTURE_NODES);
    assert!(nesting(&line) <= MAX_DEPTH);
    let response = EvaluationService::new(1, 2).handle_line(&line);
    let (id, ok) = EvaluationResponse::parse_status(&response).unwrap();
    assert_eq!(id, "deep-system");
    assert!(ok, "{response}");

    // One gate more breaks the node cap (a typed field error), not the
    // parser.
    let over = system_request(&format!(
        r#"{{"kind":"and","children":[{}]}}"#,
        deepest_system()
    ));
    let response = EvaluationService::new(1, 2).handle_line(&over);
    assert!(response.contains("sanity cap"), "{response}");
}

#[test]
fn nesting_past_the_cap_is_one_typed_error_line() {
    let service = EvaluationService::new(1, 2);
    let expected_valid = service.handle_line(VALID);
    for deep in [
        "[".repeat(MAX_DEPTH + 1),
        format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1)),
        "[".repeat(200_000),
    ] {
        let input = format!("{deep}\n{VALID}\n");
        let mut output = Vec::new();
        serve_lines(&service, input.as_bytes(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        let (id, ok) = EvaluationResponse::parse_status(lines[0]).unwrap();
        assert_eq!((id.as_str(), ok), ("", false));
        assert!(lines[0].contains("nesting deeper than"), "{}", lines[0]);
        assert_eq!(lines[1], expected_valid);
    }
}

#[test]
fn stdio_server_survives_a_flood_of_brackets() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_diversim"))
        .args(["serve", "--stdio", "--threads", "1", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    {
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all("[".repeat(200_000).as_bytes()).unwrap();
        stdin.write_all(b"\n").unwrap();
        stdin.write_all(VALID.as_bytes()).unwrap();
        stdin.write_all(b"\n").unwrap();
    }
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "server exited with {}", out.status);
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].contains("nesting deeper than"), "{}", lines[0]);
    assert_eq!(lines[1], EvaluationService::new(1, 2).handle_line(VALID));
}
