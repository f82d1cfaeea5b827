//! `d2tree store`: inspect, verify or compact a store directory.

use d2tree_store::{compact, inspect, verify, StoreConfig};

use crate::CliError;

/// Dispatches `d2tree store <action> <dir>`: both operands positional.
pub(crate) fn cmd_store(rest: &[String]) -> Result<String, CliError> {
    let Some((action, rest)) = rest.split_first() else {
        return Err(CliError::Usage(
            "store needs an action: inspect | verify | compact".to_owned(),
        ));
    };
    let cmd: fn(&str) -> Result<String, CliError> = match action.as_str() {
        "inspect" => cmd_store_inspect,
        "verify" => cmd_store_verify,
        "compact" => cmd_store_compact,
        other => {
            return Err(CliError::Usage(format!(
                "unknown store action {other:?} (expected inspect, verify or compact)"
            )))
        }
    };
    match rest {
        [dir] => cmd(dir),
        [] => Err(CliError::Usage(format!("store {action} needs a <dir>"))),
        [_, extra, ..] => Err(CliError::Usage(format!(
            "store {action} takes one <dir>, got extra {extra:?}"
        ))),
    }
}

fn cmd_store_inspect(dir: &str) -> Result<String, CliError> {
    let report = inspect(dir)?;
    let mut out = format!(
        "store {dir}\n\
         snapshot lsn: {}\nnext lsn: {}\ntorn tail bytes: {}\n",
        report.snapshot_lsn, report.next_lsn, report.torn_bytes
    );
    out.push_str(&format!("segments: {}\n", report.segments.len()));
    for seg in &report.segments {
        out.push_str(&format!(
            "  wal-{:016x}.log  {} frames, {} valid bytes\n",
            seg.first_lsn, seg.frames, seg.valid_bytes
        ));
    }
    out.push_str("replayed records:");
    if report.record_counts.is_empty() {
        out.push_str(" none");
    }
    for (label, n) in &report.record_counts {
        out.push_str(&format!(" {label}={n}"));
    }
    out.push('\n');
    out.push_str(&format!(
        "state: gl_version {}, {} owned subtrees, {} attrs, {} popularity counters\n",
        report.gl_version, report.owned, report.attrs, report.popularity
    ));
    Ok(out)
}

fn cmd_store_verify(dir: &str) -> Result<String, CliError> {
    let report = verify(dir)?;
    Ok(format!(
        "OK: {dir}\n\
         {} records across {} segments verify (snapshot lsn {}, next lsn {})\n\
         torn tail bytes that recovery would truncate: {}\n",
        report.records, report.segments, report.snapshot_lsn, report.next_lsn, report.torn_bytes
    ))
}

fn cmd_store_compact(dir: &str) -> Result<String, CliError> {
    let (lsn, removed) = compact(dir, StoreConfig::default())?;
    Ok(format!(
        "compacted {dir}: snapshot at lsn {lsn}, {removed} covered segment(s) pruned\n"
    ))
}

#[cfg(test)]
mod tests {
    use d2tree_store::{MdsRecord, MdsStore, StoreConfig};

    use crate::test_support::{args, tmp_prefix};
    use crate::{run, CliError};

    #[test]
    fn store_inspect_verify_compact_roundtrip() {
        let dir = std::path::PathBuf::from(tmp_prefix("storecli"));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut store, _) = MdsStore::open(&dir, StoreConfig::manual()).unwrap();
            for i in 0..200u64 {
                let record = if i % 2 == 0 {
                    MdsRecord::Ownership {
                        root: i % 64,
                        acquired: i % 4 == 0,
                    }
                } else {
                    MdsRecord::Popularity {
                        root: i % 64,
                        bits: (i as f64).to_bits(),
                    }
                };
                store.append(record).unwrap();
            }
            store.sync().unwrap();
        }
        let dir_s = dir.to_string_lossy().into_owned();

        let verify_out = run(&args(&["store", "verify", &dir_s])).unwrap();
        assert!(verify_out.starts_with("OK"), "{verify_out}");
        assert!(verify_out.contains("200 records"), "{verify_out}");

        let inspect_out = run(&args(&["store", "inspect", &dir_s])).unwrap();
        assert!(inspect_out.contains("next lsn: 200"), "{inspect_out}");
        assert!(inspect_out.contains("replayed records:"), "{inspect_out}");

        let compact_out = run(&args(&["store", "compact", &dir_s])).unwrap();
        assert!(compact_out.contains("snapshot at lsn 200"), "{compact_out}");

        // After compaction, the snapshot covers everything and the WAL
        // replays nothing.
        let inspect2 = run(&args(&["store", "inspect", &dir_s])).unwrap();
        assert!(inspect2.contains("snapshot lsn: 200"), "{inspect2}");

        assert!(matches!(
            run(&args(&["store", "verify"])),
            Err(CliError::Usage(msg)) if msg.contains("<dir>")
        ));
        assert!(matches!(
            run(&args(&["store", "defrag", &dir_s])),
            Err(CliError::Usage(msg)) if msg.contains("unknown store action")
        ));
        assert!(matches!(
            run(&args(&["store", "verify", "/no/such/store"])),
            Err(CliError::Store(_))
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
