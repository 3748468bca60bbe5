//! Experiment harness: dataset builders and reporting helpers behind the
//! per-table/figure reproduction binaries (see `src/bin/`).
//!
//! Each module mirrors one of the paper's measurement campaigns:
//!
//! * [`population`] — the user base of §6.1: 1265 users from 55 countries
//!   with Table 2's request mix, browsing personas, and donation opt-ins;
//! * [`adoption`] — the Fig. 5 press-spike adoption model;
//! * [`liveworld`] — the 12-month live deployment (Fig. 9/10, Tables 2–4);
//! * [`crawl`] — the systematic Spain crawl of §7.1/§7.2 (Fig. 11);
//! * [`casestudy`] — the four-country amazon/jcpenney/chegg studies
//!   (Fig. 12/13, Table 5);
//! * [`temporal`] — the 20-day clean-profile grid (§7.5, Fig. 14/15);
//! * [`pdipd`] — the PDI-PD positive control: inject a personal-data
//!   discriminator and prove the battery catches it (watchdog validation);
//! * [`report`] — ASCII tables, box-plot rendering, JSON output.
//!
//! Every builder takes a [`Scale`]: `Demo` sizes finish in seconds for CI;
//! `Paper` sizes match the publication (minutes).

#![forbid(unsafe_code)]

pub mod adoption;
pub mod casestudy;
pub mod crawl;
pub mod liveworld;
pub mod pdipd;
pub mod population;
pub mod report;
pub mod temporal;

/// Experiment sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes (seconds): same shapes, smaller counts.
    Demo,
    /// Publication sizes (§6.1/§7.1 counts).
    Paper,
}

impl Scale {
    /// Parses `--full` style CLI args: any of `full`, `paper` selects
    /// paper scale.
    pub fn from_args() -> Scale {
        let full = std::env::args().any(|a| a == "--full" || a == "--paper");
        if full {
            Scale::Paper
        } else {
            Scale::Demo
        }
    }
}

/// Parses `--seed N` from the CLI (default 1742 — every experiment binary
/// is bit-reproducible under a fixed seed). A `--seed` whose value is
/// missing or not a `u64` prints usage and exits 2: falling back to the
/// default would run — and compare — the wrong seed silently.
pub fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    parse_seed(&args).unwrap_or_else(|problem| {
        eprintln!("{problem}\nusage: --seed N (an unsigned 64-bit integer; default 1742)");
        std::process::exit(2);
    })
}

fn parse_seed(args: &[String]) -> Result<u64, String> {
    let Some(at) = args.iter().position(|a| a == "--seed") else {
        return Ok(1742);
    };
    let value = args.get(at + 1).ok_or("--seed needs a value")?;
    value
        .parse()
        .map_err(|_| format!("--seed {value}: not an unsigned 64-bit integer"))
}

#[cfg(test)]
mod tests {
    use super::parse_seed;

    fn args(rest: &[&str]) -> Vec<String> {
        std::iter::once("bin")
            .chain(rest.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn seed_defaults_parses_and_rejects_what_it_cannot_read() {
        assert_eq!(parse_seed(&args(&[])), Ok(1742));
        assert_eq!(parse_seed(&args(&["--full"])), Ok(1742));
        assert_eq!(parse_seed(&args(&["--full", "--seed", "7"])), Ok(7));
        // Falling back to 1742 on any of these would run, and compare,
        // the wrong seed without a word.
        assert!(parse_seed(&args(&["--seed"])).is_err());
        assert!(parse_seed(&args(&["--seed", "l742"])).is_err());
        assert!(parse_seed(&args(&["--seed", "-3"])).is_err());
        assert!(parse_seed(&args(&["--seed", "--full"])).is_err());
    }
}
