//! Minimal dependency-free CLI parsing for the `paper` driver.

/// Parsed harness arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Run at paper scale (`--full`); default is laptop scale.
    pub full: bool,
    /// Run the experiment's acceptance smoke (`--check`): a small
    /// deterministic instance with assertions. `paper` refuses it for an
    /// experiment without one.
    pub check: bool,
    /// Optional JSON output path (`--json PATH`).
    pub json: Option<String>,
    /// Optional n-sweep override (`--sizes 1000,2000`).
    pub sizes: Option<Vec<usize>>,
    /// Optional accuracy override (`--tol 1e-6`).
    pub tol: Option<f64>,
    /// Dataset seed (`--seed S`, default 1).
    pub seed: u64,
    /// Thread counts of the Fig. 7 scaling study (`--threads 1,2,4`).
    pub threads: Option<Vec<usize>>,
    /// Optional chrome://tracing output path of `paper profile`
    /// (`--trace PATH`).
    pub trace: Option<String>,
    /// Construction pipeline of `paper profile` (`--builder
    /// anchor|sketched`, default anchor).
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
    /// The `--json` and `--trace` paths are opened for writing here, so an
    /// unwritable one is a usage error before any work rather than a panic
    /// after it. The probe neither truncates an existing file nor leaves a
    /// new one behind.
    pub fn parse_from(it: impl Iterator<Item = String>) -> Args {
        let args = Self::try_parse_from(it).unwrap_or_else(|e| usage(&e));
        for (flag, path) in [("--json", &args.json), ("--trace", &args.trace)] {
            let Some(p) = path else { continue };
            let existed = std::path::Path::new(p).exists();
            let open = std::fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(p);
            if let Err(e) = open {
                usage(&format!("cannot write {flag} {p}: {e}"));
            } else if !existed {
                std::fs::remove_file(p).ok();
            }
        }
        args
    }

    /// [`Self::parse_from`] without the exit: `Err` holds the usage error.
    /// A size or thread count of 0, a `--tol` that is not a positive number
    /// and an unknown `--builder` are usage errors, so no experiment starts
    /// work it cannot finish.
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
                "--builder" => match val("a name")? {
                    b if b == "anchor" || b == "sketched" => args.builder = b,
                    b => return Err(format!("unknown --builder {b} (anchor|sketched)")),
                },
                "--help" | "-h" => usage(""),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }

    /// The accuracy to target (default: the paper's ~1e-8).
    pub fn tol_or(&self, default: f64) -> f64 {
        self.tol.unwrap_or(default)
    }

    /// Which of an experiment's three scales is in force: 0 laptop, 1
    /// `--full`, 2 the `--check` miniature (which wins over `--full`).
    pub fn scale(&self) -> usize {
        if self.check {
            2
        } else {
            usize::from(self.full)
        }
    }

    /// The n sweep: `--sizes` if given, else the entry of `sizes` (laptop,
    /// `--full`, `--check`) for [`Self::scale`].
    pub fn sweep(&self, sizes: [&[usize]; 3]) -> Vec<usize> {
        let chosen = sizes[self.scale()];
        self.sizes.clone().unwrap_or_else(|| chosen.to_vec())
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

/// Prints `msg` and the usage line, then exits: 2 on an error, 0 for `--help`.
pub fn usage(msg: &str) -> ! {
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
        assert_eq!((a.seed, a.builder.as_str()), (1, "anchor"));
        assert!(a.sizes.is_none());
        let d = Args::default();
        assert_eq!((d.seed, d.builder.as_str()), (1, "anchor"));
    }

    #[test]
    fn sweep_selection() {
        let sizes: [&[usize]; 3] = [&[10, 20], &[100, 200], &[7]];
        assert_eq!(parse(&[]).sweep(sizes), vec![10, 20]);
        assert_eq!(parse(&["--full"]).sweep(sizes), vec![100, 200]);
        assert_eq!(parse(&["--check"]).sweep(sizes), vec![7]);
        assert_eq!(parse(&["--full", "--check"]).sweep(sizes), vec![7]);
        assert_eq!(parse(&["--sizes", "5"]).sweep(sizes), vec![5]);
        assert_eq!(parse(&["--check", "--sizes", "5"]).sweep(sizes), vec![5]);
    }

    #[test]
    fn flags_parse() {
        let json = std::env::temp_dir().join("h2bench_args.json");
        let json = json.to_string_lossy().into_owned();
        let a = parse(&[
            "--full",
            "--check",
            "--json",
            &json,
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
        assert_eq!(a.json.as_deref(), Some(json.as_str()));
        assert!(
            !std::path::Path::new(&json).exists(),
            "the probe leaves no file"
        );
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
            (&["--builder", "x"], "unknown --builder x (anchor|sketched)"),
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
}
