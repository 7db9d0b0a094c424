#!/usr/bin/env bash
# Runs every paper experiment at its default size into results/.
# Build first: `cargo build --release --offline --workspace`.
set -euxo pipefail
cd "$(dirname "$0")"
R=results
B=target/release
mkdir -p "$R"
$B/paper fig2         --json $R/fig2.json  > $R/fig2.txt  2>&1
$B/paper fig3         --json $R/fig3.json  > $R/fig3.txt  2>&1
$B/paper fig4         --json $R/fig4.json  > $R/fig4.txt  2>&1
$B/paper fig5         --json $R/fig5.json  > $R/fig5.txt  2>&1
$B/paper fig6         --json $R/fig6.json  > $R/fig6.txt  2>&1
$B/paper table1       --json $R/table1.json > $R/table1.txt 2>&1
$B/paper fig7         --json $R/fig7.json  > $R/fig7.txt  2>&1
$B/paper fig8         --json $R/fig8.json  > $R/fig8.txt  2>&1
$B/paper fig9         --json $R/fig9.json  > $R/fig9.txt  2>&1
$B/paper amortization --json $R/amortization.json > $R/amortization.txt 2>&1
$B/paper dist         --json $R/dist.json > $R/dist.txt 2>&1
$B/paper profile      --json $R/profile.json --trace $R/profile.trace.json > $R/profile.txt 2>&1
$B/paper build_ablation --json $R/build_ablation.json > $R/build_ablation.txt 2>&1
echo ALL_DONE
