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

    /// Parses an explicit iterator (testable).
    pub fn parse_from(it: impl Iterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut it = it.peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => args.full = true,
                "--check" => args.check = true,
                "--json" => {
                    args.json = Some(it.next().unwrap_or_else(|| usage("--json needs a path")))
                }
                "--sizes" => {
                    let v = it.next().unwrap_or_else(|| usage("--sizes needs a list"));
                    args.sizes = Some(parse_list(&v));
                }
                "--threads" => {
                    let v = it.next().unwrap_or_else(|| usage("--threads needs a list"));
                    args.threads = Some(parse_list(&v));
                }
                "--tol" => {
                    let v = it.next().unwrap_or_else(|| usage("--tol needs a value"));
                    args.tol = Some(v.parse().unwrap_or_else(|_| usage("bad --tol")));
                }
                "--seed" => {
                    let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                    args.seed = v.parse().unwrap_or_else(|_| usage("bad --seed"));
                }
                "--trace" => {
                    args.trace = Some(it.next().unwrap_or_else(|| usage("--trace needs a path")))
                }
                "--builder" => {
                    args.builder = it.next().unwrap_or_else(|| usage("--builder needs a name"))
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
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

fn parse_list(s: &str) -> Vec<usize> {
    s.split(',')
        .map(|t| {
            t.trim()
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad list item {t}")))
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
    fn sweep_selection() {
        let laptop = [10usize, 20];
        let paper = [100usize, 200];
        assert_eq!(parse(&[]).sweep(&laptop, &paper), vec![10, 20]);
        assert_eq!(parse(&["--full"]).sweep(&laptop, &paper), vec![100, 200]);
        assert_eq!(parse(&["--sizes", "5"]).sweep(&laptop, &paper), vec![5]);
    }
}
