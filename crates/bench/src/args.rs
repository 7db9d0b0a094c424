//! Minimal dependency-free CLI parsing shared by all harness binaries.

/// Parsed harness arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Run at paper scale (`--full`); default is laptop scale.
    pub full: bool,
    /// Run the binary's acceptance smoke (`--check`): a small deterministic
    /// instance with assertions, ending in its `*_CHECK_OK` line. Binaries
    /// without one ignore it.
    pub check: bool,
    /// Optional JSON output path (`--json PATH`).
    pub json: Option<String>,
    /// Optional n-sweep override (`--sizes 1000,2000`).
    pub sizes: Option<Vec<usize>>,
    /// Optional accuracy override (`--tol 1e-6`).
    pub tol: Option<f64>,
    /// Dataset seed (`--seed S`, default 1).
    pub seed: u64,
    /// Thread counts for scaling studies (`--threads 1,2,4`).
    pub threads: Option<Vec<usize>>,
    /// Optional chrome://tracing output path (`--trace PATH`), used by the
    /// `profile` harness.
    pub trace: Option<String>,
    /// Construction pipeline (`--builder anchor|sketched`, default anchor),
    /// used by the `profile` harness.
    pub builder: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            full: false,
            check: false,
            json: None,
            sizes: None,
            tol: None,
            seed: 1,
            threads: None,
            trace: None,
            builder: "anchor".into(),
        }
    }
}

impl Args {
    /// Parses `std::env::args()`, exiting with a usage message on error.
    pub fn parse() -> Args {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit iterator, exiting with a usage message on error.
    pub fn parse_from(it: impl Iterator<Item = String>) -> Args {
        Self::try_parse_from(it).unwrap_or_else(|e| usage(&e))
    }

    /// [`Self::parse_from`] without the exit: `Err` holds the usage error.
    /// A size or thread count of 0 and a `--tol` that is not a positive
    /// number are usage errors, so no binary starts work it cannot finish.
    fn try_parse_from(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        while let Some(a) = it.next() {
            let mut val = |what: &str| it.next().ok_or_else(|| format!("{a} needs {what}"));
            match a.as_str() {
                "--full" => args.full = true,
                "--check" => args.check = true,
                "--json" => args.json = Some(val("a path")?),
                "--sizes" => args.sizes = Some(parse_list(&a, &val("a list")?)?),
                "--threads" => args.threads = Some(parse_list(&a, &val("a list")?)?),
                "--tol" => {
                    let tol: f64 = val("a value")?.parse().map_err(|_| "bad --tol")?;
                    if !(tol > 0.0 && tol.is_finite()) {
                        return Err("--tol must be a positive number".into());
                    }
                    args.tol = Some(tol);
                }
                "--seed" => args.seed = val("a value")?.parse().map_err(|_| "bad --seed")?,
                "--trace" => args.trace = Some(val("a path")?),
                "--builder" => args.builder = val("a name")?,
                "--help" | "-h" => usage(""),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }

    /// The sweep to run: override > full/paper > laptop default.
    pub fn sweep(&self, laptop: &[usize], paper: &[usize]) -> Vec<usize> {
        if let Some(s) = &self.sizes {
            s.clone()
        } else if self.full {
            paper.to_vec()
        } else {
            laptop.to_vec()
        }
    }

    /// The accuracy to target (default: the paper's ~1e-8).
    pub fn tol_or(&self, default: f64) -> f64 {
        self.tol.unwrap_or(default)
    }
}

/// The comma-separated entries of `flag`, each a positive integer.
fn parse_list(flag: &str, s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|t| match t.trim().parse() {
            Ok(0) => Err(format!("{flag} entries must be at least 1")),
            Ok(v) => Ok(v),
            Err(_) => Err(format!("bad list item {t}")),
        })
        .collect()
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <bin> [--full] [--check] [--json PATH] [--trace PATH] [--sizes a,b,c] [--threads a,b] \
         [--tol X] [--seed S] [--builder anchor|sketched]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        Args::parse_from(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert!(!a.full && !a.check);
        assert_eq!(a.seed, 1);
        assert!(a.sizes.is_none());
    }

    #[test]
    fn flags_parse() {
        let a = parse(&[
            "--full",
            "--check",
            "--json",
            "/tmp/x.json",
            "--sizes",
            "100,200",
            "--tol",
            "1e-6",
            "--seed",
            "9",
            "--threads",
            "1,2,4",
            "--builder",
            "sketched",
        ]);
        assert!(a.full && a.check);
        assert_eq!(a.builder, "sketched");
        assert_eq!(a.json.as_deref(), Some("/tmp/x.json"));
        assert_eq!(a.sizes, Some(vec![100, 200]));
        assert_eq!(a.tol, Some(1e-6));
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, Some(vec![1, 2, 4]));
    }

    #[test]
    fn zero_sizes_or_threads_and_bad_tol_are_usage_errors() {
        let try_parse = |v: &[&str]| Args::try_parse_from(v.iter().map(|s| s.to_string()));
        let cases = [
            (&["--sizes", "0"][..], "--sizes entries must be at least 1"),
            (&["--sizes", "1000,0"], "--sizes entries must be at least 1"),
            (&["--threads", "0"], "--threads entries must be at least 1"),
            (
                &["--threads", "1,0,2"],
                "--threads entries must be at least 1",
            ),
            (&["--tol", "0"], "--tol must be a positive number"),
            (&["--tol", "-1e-6"], "--tol must be a positive number"),
            (&["--tol", "nan"], "--tol must be a positive number"),
            (&["--tol", "inf"], "--tol must be a positive number"),
            (&["--tol", "x"], "bad --tol"),
            (&["--sizes", "1,x"], "bad list item x"),
            (&["--sizes"], "--sizes needs a list"),
            (&["--bogus"], "unknown flag --bogus"),
        ];
        for (argv, want) in cases {
            assert_eq!(try_parse(argv).unwrap_err(), want, "{argv:?}");
        }
        let ok = try_parse(&["--sizes", "1", "--threads", "1", "--tol", "1e-300"]).unwrap();
        assert_eq!(
            (ok.sizes, ok.threads, ok.tol),
            (Some(vec![1]), Some(vec![1]), Some(1e-300))
        );
    }

    #[test]
    fn sweep_selection() {
        let laptop = [10usize, 20];
        let paper = [100usize, 200];
        assert_eq!(parse(&[]).sweep(&laptop, &paper), vec![10, 20]);
        assert_eq!(parse(&["--full"]).sweep(&laptop, &paper), vec![100, 200]);
        assert_eq!(parse(&["--sizes", "5"]).sweep(&laptop, &paper), vec![5]);
    }
}
