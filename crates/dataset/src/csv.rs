//! Minimal CSV I/O for datasets.
//!
//! Format: a header row with feature names followed by a `label` column;
//! each data row holds the feature values and the class *name*. This is the
//! interchange format the bench harness uses to dump generated datasets so
//! experiments can be re-run on identical data.
//!
//! Each feature's declared domain rides along in its header cell as a
//! `{c:lo:hi}` (continuous) or `{i:lo:hi}` (integer) suffix — e.g.
//! `pkt_size{c:0:1500}` — so a cached dataset reloads with exactly the
//! domains it was generated with. This matters for resume: ALE grids and
//! Uniform sampling draw from the declared domain `R(X_s)`, and a domain
//! re-inferred from data min/max would silently shift them. The label
//! column likewise declares the class order, `label{rest:scream}`, so
//! class *indices* survive the round trip (first-appearance order would
//! flip class 0/1 whenever the first row isn't class 0). Plain `name` /
//! `label` headers (older files, hand-written fixtures) still parse,
//! falling back to inference and first-appearance order.
//!
//! The parser is intentionally strict (no quoting, no embedded commas) —
//! every file it reads is produced by [`write_csv`]/[`to_csv_string`].

use crate::dataset::Dataset;
use crate::feature::{FeatureDomain, FeatureMeta};
use crate::{DataError, Result};
use std::io::Write;
use std::path::Path;

/// Render a header cell: feature name plus its domain suffix. `{}` on f64
/// is the shortest representation that round-trips exactly, so the suffix
/// never loses precision.
fn header_cell(meta: &FeatureMeta) -> String {
    match meta.domain {
        FeatureDomain::Continuous { lo, hi } => format!("{}{{c:{lo}:{hi}}}", meta.name),
        FeatureDomain::Integer { lo, hi } => format!("{}{{i:{lo}:{hi}}}", meta.name),
    }
}

/// Split a header cell into the feature name and, when a `{...}` suffix is
/// present, its declared domain. A cell with no suffix is just a name.
fn parse_header_cell(cell: &str) -> Result<(String, Option<FeatureDomain>)> {
    let Some(open) = cell.find('{') else {
        return Ok((cell.to_string(), None));
    };
    let bad = |why: &str| DataError::Csv {
        line: 1,
        message: format!("malformed domain suffix in header cell '{cell}': {why}"),
    };
    if !cell.ends_with('}') {
        return Err(bad("expected trailing '}'"));
    }
    let name = cell[..open].to_string();
    let body = &cell[open + 1..cell.len() - 1];
    let parts: Vec<&str> = body.split(':').collect();
    let [kind, lo, hi] = parts[..] else {
        return Err(bad("expected {c:lo:hi} or {i:lo:hi}"));
    };
    let domain = match kind {
        "c" => FeatureDomain::continuous(
            lo.parse::<f64>().map_err(|e| bad(&format!("lo: {e}")))?,
            hi.parse::<f64>().map_err(|e| bad(&format!("hi: {e}")))?,
        ),
        "i" => FeatureDomain::integer(
            lo.parse::<i64>().map_err(|e| bad(&format!("lo: {e}")))?,
            hi.parse::<i64>().map_err(|e| bad(&format!("hi: {e}")))?,
        ),
        other => return Err(bad(&format!("unknown domain kind '{other}'"))),
    };
    Ok((name, Some(domain)))
}

/// Parse the label header cell: `label` (first-appearance class order) or
/// `label{c0:c1:...}` (declared class order).
fn parse_label_cell(cell: &str) -> Result<Option<Vec<String>>> {
    if cell == "label" {
        return Ok(None);
    }
    let bad = |why: &str| DataError::Csv {
        line: 1,
        message: format!("malformed label header cell '{cell}': {why}"),
    };
    let body = cell
        .strip_prefix("label{")
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or_else(|| bad("expected `label` or `label{c0:c1:...}`"))?;
    let names: Vec<String> = body.split(':').map(String::from).collect();
    if names.iter().any(String::is_empty) {
        return Err(bad("empty class name"));
    }
    Ok(Some(names))
}

/// Serialize a dataset to CSV text.
pub fn to_csv_string(ds: &Dataset) -> String {
    let mut out = String::new();
    let cells: Vec<String> = ds.features().iter().map(header_cell).collect();
    out.push_str(&cells.join(","));
    if !cells.is_empty() {
        out.push(',');
    }
    out.push_str(&format!("label{{{}}}\n", ds.class_names().join(":")));
    for i in 0..ds.n_rows() {
        let row = ds.row(i);
        for v in row {
            // 17 significant digits round-trips f64 exactly.
            out.push_str(&format!("{v:.17e},"));
        }
        out.push_str(&ds.class_names()[ds.label(i)]);
        out.push('\n');
    }
    out
}

/// Write a dataset to a CSV file at `path`.
pub fn write_csv(ds: &Dataset, path: &Path) -> Result<()> {
    let mut f = std::fs::File::create(path).map_err(|e| DataError::Io(e.to_string()))?;
    f.write_all(to_csv_string(ds).as_bytes())
        .map_err(|e| DataError::Io(e.to_string()))
}

/// Parse a dataset from CSV text produced by [`to_csv_string`].
///
/// Feature names come from the header, and class names/indices from the
/// label column (first-appearance order). Domains come from `{c:lo:hi}` /
/// `{i:lo:hi}` header suffixes when present; a plain `name` header falls
/// back to inference from the data (as in [`Dataset::from_rows`]).
pub fn from_csv_string(text: &str) -> Result<Dataset> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(DataError::Parse("empty file".into()))?;
    let cols: Vec<&str> = header.split(',').collect();
    let label_cell = *cols.last().unwrap_or(&"");
    if label_cell != "label" && !label_cell.starts_with("label{") {
        return Err(DataError::Csv {
            line: 1,
            message: "last header column must be `label`".into(),
        });
    }
    let declared_classes = parse_label_cell(label_cell)?;
    let mut feat_names: Vec<String> = Vec::with_capacity(cols.len() - 1);
    let mut feat_domains: Vec<Option<FeatureDomain>> = Vec::with_capacity(cols.len() - 1);
    for cell in &cols[..cols.len() - 1] {
        let (name, domain) = parse_header_cell(cell)?;
        feat_names.push(name);
        feat_domains.push(domain);
    }
    let n_features = feat_names.len();

    let mut rows: Vec<Vec<f64>> = Vec::new();
    let declared = declared_classes.is_some();
    let mut label_names: Vec<String> = declared_classes.unwrap_or_default();
    let mut labels: Vec<usize> = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != n_features + 1 {
            return Err(DataError::Csv {
                line: lineno + 2,
                message: format!("expected {} columns, got {}", n_features + 1, parts.len()),
            });
        }
        let mut row = Vec::with_capacity(n_features);
        for (col, p) in parts[..n_features].iter().enumerate() {
            row.push(p.parse::<f64>().map_err(|e| DataError::Csv {
                line: lineno + 2,
                message: format!("column {} ('{p}'): {e}", col + 1),
            })?);
        }
        let label_name = parts[n_features].to_string();
        let label = match label_names.iter().position(|l| l == &label_name) {
            Some(i) => i,
            None if declared => {
                return Err(DataError::Csv {
                    line: lineno + 2,
                    message: format!(
                        "label '{label_name}' is not in the declared class list {label_names:?}"
                    ),
                });
            }
            None => {
                label_names.push(label_name);
                label_names.len() - 1
            }
        };
        rows.push(row);
        labels.push(label);
    }
    if rows.is_empty() {
        return Err(DataError::Empty);
    }
    let mut ds = Dataset::from_rows(&rows, &labels, label_names.len())?;
    // Restore the original feature names and any declared domains
    // (plain-name headers keep the inferred domain).
    let metas: Vec<FeatureMeta> = ds
        .features()
        .iter()
        .zip(feat_names.iter().zip(&feat_domains))
        .map(|(m, (name, declared))| FeatureMeta {
            name: name.clone(),
            domain: declared.unwrap_or(m.domain),
        })
        .collect();
    ds.set_features(metas)?;
    // Restore class names by rebuilding with explicit names.
    let mut out = Dataset::new(ds.features().to_vec(), label_names)?;
    for i in 0..ds.n_rows() {
        out.push_row(ds.row(i), ds.label(i))?;
    }
    Ok(out)
}

/// Read a dataset from a CSV file.
pub fn read_csv(path: &Path) -> Result<Dataset> {
    let text = std::fs::read_to_string(path).map_err(|e| DataError::Io(e.to_string()))?;
    from_csv_string(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn round_trip_preserves_everything_observable() {
        let ds = synth::gaussian_blobs(40, 3, 2, 1.0, 9).unwrap();
        let text = to_csv_string(&ds);
        let back = from_csv_string(&text).unwrap();
        assert_eq!(back.n_rows(), ds.n_rows());
        assert_eq!(back.n_features(), ds.n_features());
        assert_eq!(back.labels(), ds.labels());
        for i in 0..ds.n_rows() {
            for j in 0..ds.n_features() {
                assert!(
                    (back.row(i)[j] - ds.row(i)[j]).abs() < 1e-12,
                    "value mismatch at ({i},{j})"
                );
            }
        }
        let names: Vec<&str> = back.features().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["x0", "x1", "x2"]);
        // Declared domains survive the round trip exactly — the cache
        // loader must not fall back to narrower data-inferred bounds.
        assert_eq!(back.features(), ds.features());
    }

    #[test]
    fn declared_domains_round_trip_exactly() {
        let features = vec![
            FeatureMeta::continuous("pkt_size", -0.125, 1500.0),
            FeatureMeta::integer("ttl", 1, 255),
            FeatureMeta::continuous("jitter", 1.0e-9, 0.1 + 0.2),
        ];
        let mut ds = Dataset::new(features.clone(), vec!["a".into(), "b".into()]).unwrap();
        ds.push_row(&[700.0, 64.0, 0.05], 0).unwrap();
        ds.push_row(&[800.0, 63.0, 0.06], 1).unwrap();
        let back = from_csv_string(&to_csv_string(&ds)).unwrap();
        // The data spans a tiny fraction of each declared domain; the
        // declared bounds must win over inference regardless.
        assert_eq!(back.features(), &features[..]);
    }

    #[test]
    fn plain_name_header_still_infers_domains() {
        let ds = from_csv_string("a,label\n1.0,x\n3.0,y\n").unwrap();
        assert_eq!(ds.features()[0].name, "a");
        // Inferred (data min/max with margin), not declared.
        let d = ds.features()[0].domain;
        assert!(
            d.lo() < 1.0 && d.hi() > 3.0,
            "expected margined bounds, got {d:?}"
        );
    }

    #[test]
    fn declared_class_order_beats_first_appearance() {
        // class 0 ("rest") never appears first in the data — a
        // first-appearance loader would flip the label indices, which is
        // exactly the divergence that broke resume.
        let ds = from_csv_string("a,label{rest:scream}\n1.0,scream\n2.0,rest\n").unwrap();
        assert_eq!(
            ds.class_names(),
            &["rest".to_string(), "scream".to_string()]
        );
        assert_eq!(ds.labels(), &[1, 0]);
        let back = from_csv_string(&to_csv_string(&ds)).unwrap();
        assert_eq!(back.class_names(), ds.class_names());
        assert_eq!(back.labels(), ds.labels());
    }

    #[test]
    fn declared_classes_preserve_a_class_with_no_rows() {
        let ds = from_csv_string("a,label{x:y:z}\n1.0,x\n2.0,z\n").unwrap();
        assert_eq!(ds.class_names().len(), 3);
        assert_eq!(ds.labels(), &[0, 2]);
    }

    #[test]
    fn undeclared_label_in_a_row_is_a_typed_error() {
        let e = from_csv_string("a,label{x:y}\n1.0,x\n2.0,wolf\n").unwrap_err();
        match &e {
            DataError::Csv { line, message } => {
                assert_eq!(*line, 3);
                assert!(message.contains("'wolf'"), "{message}");
            }
            other => panic!("expected DataError::Csv, got {other:?}"),
        }
    }

    #[test]
    fn malformed_label_suffix_is_a_header_error() {
        for header in ["label{", "label{}", "label{a::b}", "labels"] {
            let text = format!("a,{header}\n1.0,x\n");
            let e = from_csv_string(&text).unwrap_err();
            assert!(
                matches!(e, DataError::Csv { line: 1, .. }),
                "label header '{header}' should fail at line 1, got {e:?}"
            );
        }
    }

    #[test]
    fn malformed_domain_suffix_is_a_header_error() {
        for header in [
            "a{c:0}",      // too few fields
            "a{c:0:1:2}",  // too many fields
            "a{q:0:1}",    // unknown kind
            "a{c:zero:1}", // unparseable bound
            "a{i:0.5:1}",  // non-integer bound for an integer domain
            "a{c:0:1",     // unterminated
        ] {
            let text = format!("{header},label\n1.0,x\n");
            let e = from_csv_string(&text).unwrap_err();
            assert!(
                matches!(e, DataError::Csv { line: 1, .. }),
                "header '{header}' should fail at line 1, got {e:?}"
            );
        }
    }

    #[test]
    fn file_round_trip() {
        let ds = synth::two_moons(20, 0.1, 4).unwrap();
        let dir = std::env::temp_dir().join("aml_dataset_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("moons.csv");
        write_csv(&ds, &path).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.n_rows(), 20);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_missing_label_header() {
        assert!(matches!(
            from_csv_string("a,b\n1,2\n"),
            Err(DataError::Csv { line: 1, .. })
        ));
    }

    #[test]
    fn ragged_row_reports_its_line_number() {
        // The ragged row is the 3rd line of the file (header + 2 rows).
        let e = from_csv_string("a,label\n1.0,x\n1.0,2.0,x\n").unwrap_err();
        match &e {
            DataError::Csv { line, message } => {
                assert_eq!(*line, 3);
                assert!(message.contains("expected 2 columns, got 3"), "{message}");
            }
            other => panic!("expected DataError::Csv, got {other:?}"),
        }
        assert_eq!(
            e.to_string(),
            "CSV parse error at line 3: expected 2 columns, got 3"
        );
    }

    #[test]
    fn unparseable_number_reports_line_and_column() {
        let e = from_csv_string("a,b,label\n1.0,2.0,x\n1.0,foo,x\n").unwrap_err();
        match &e {
            DataError::Csv { line, message } => {
                assert_eq!(*line, 3);
                assert!(message.contains("column 2"), "{message}");
                assert!(message.contains("'foo'"), "{message}");
            }
            other => panic!("expected DataError::Csv, got {other:?}"),
        }
    }

    #[test]
    fn blank_lines_do_not_shift_reported_line_numbers() {
        // Line 4 is the bad one; line 3 is blank and skipped.
        let e = from_csv_string("a,label\n1.0,x\n\nbad,x\n").unwrap_err();
        assert!(
            matches!(e, DataError::Csv { line: 4, .. }),
            "got {e:?} instead of a line-4 error"
        );
    }

    #[test]
    fn class_name_order_is_first_appearance() {
        let ds = from_csv_string("a,label\n1.0,zebra\n2.0,ant\n3.0,zebra\n").unwrap();
        assert_eq!(ds.class_names(), &["zebra".to_string(), "ant".to_string()]);
        assert_eq!(ds.labels(), &[0, 1, 0]);
    }

    #[test]
    fn empty_body_is_error() {
        assert!(from_csv_string("a,label\n").is_err());
    }
}
