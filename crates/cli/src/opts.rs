//! `--flag value` parsing shared by every command, and the two
//! name → value lookups (`--profile`, `--scheme`) more than one uses.

use std::cell::Cell;

use d2tree_baselines::{AngleCut, DropScheme, DynamicSubtree, HashMapping, StaticSubtree};
use d2tree_core::{D2TreeConfig, D2TreeScheme, Partitioner};
use d2tree_workload::TraceProfile;

use crate::CliError;

/// `--flag value` argument map that remembers which flags the command
/// looked up, so one it never reads — a typo, a flag of another
/// command — is an error instead of a silent default.
#[derive(Debug, Default)]
pub(crate) struct Opts {
    /// `(flag, value, read)`.
    pairs: Vec<(String, String, Cell<bool>)>,
}

impl Opts {
    /// Parses `--flag value` pairs; a flag named in `switches` takes no
    /// value and reads back through [`Opts::switch`].
    pub(crate) fn parse(args: &[String], switches: &[&str]) -> Result<Opts, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| CliError::Usage(format!("expected --flag, got {flag:?}")))?;
            let value = if switches.contains(&key) {
                String::new()
            } else {
                // No value starts with `--`, so a flag there means this
                // one's value is missing; naming `key` (not the word
                // after next) is what makes a stray `--switch` legible.
                it.next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| CliError::Usage(format!("--{key} needs a value")))?
                    .clone()
            };
            pairs.push((key.to_owned(), value, Cell::new(false)));
        }
        Ok(Opts { pairs })
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        let mut found = None;
        for (k, v, read) in &self.pairs {
            if k == key {
                read.set(true);
                found = found.or(Some(v.as_str()));
            }
        }
        found
    }

    pub(crate) fn switch(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    pub(crate) fn required(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required --{key}")))
    }

    pub(crate) fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} expects a number, got {v:?}"))),
        }
    }

    /// Errors on the first flag no `get`/`num`/`switch` has asked for.
    /// [`run`] calls this once a command returns; a command that blocks
    /// or runs long (`serve`, `load`, `top`) calls it itself once it has
    /// read its flags, so a typo fails before the work, not after.
    pub(crate) fn reject_unread(&self) -> Result<(), CliError> {
        match self.pairs.iter().find(|(_, _, read)| !read.get()) {
            Some((key, ..)) => Err(CliError::Usage(format!(
                "unknown option --{key} for this command (see `d2tree help`)"
            ))),
            None => Ok(()),
        }
    }
}

pub(crate) fn profile_by_name(name: &str) -> Result<TraceProfile, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "dtr" => Ok(TraceProfile::dtr()),
        "lmbe" => Ok(TraceProfile::lmbe()),
        "ra" => Ok(TraceProfile::ra()),
        other => Err(CliError::Usage(format!(
            "unknown profile {other:?} (expected dtr, lmbe or ra)"
        ))),
    }
}

pub(crate) fn scheme_by_name(
    name: &str,
    gl: f64,
    seed: u64,
) -> Result<Box<dyn Partitioner>, CliError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "d2tree" => Box::new(D2TreeScheme::new(
            D2TreeConfig::by_proportion(gl).with_seed(seed),
        )),
        "static" => Box::new(StaticSubtree::new(seed)),
        "dynamic" => Box::new(DynamicSubtree::new(seed)),
        "hash" => Box::new(HashMapping::new(seed)),
        "drop" => Box::new(DropScheme::new(seed)),
        "anglecut" => Box::new(AngleCut::new(seed)),
        other => {
            return Err(CliError::Usage(format!(
            "unknown scheme {other:?} (expected d2tree, static, dynamic, hash, drop or anglecut)"
        )))
        }
    })
}
