#!/usr/bin/env bash
# Runs every bench binary at its default size into results/. Build first:
# `cargo build --release --offline --workspace`.
set -euxo pipefail
cd "$(dirname "$0")"
R=results
B=target/release
mkdir -p "$R"
$B/fig2_rank_map  --json $R/fig2.json  > $R/fig2.txt  2>&1
$B/fig3_sampling  --json $R/fig3.json  > $R/fig3.txt  2>&1
$B/fig4_distributions --json $R/fig4.json > $R/fig4.txt 2>&1
$B/fig5_dimensions    --json $R/fig5.json > $R/fig5.txt 2>&1
$B/fig6_cumulative    --json $R/fig6.json > $R/fig6.txt 2>&1
$B/table1             --json $R/table1.json > $R/table1.txt 2>&1
$B/fig7_threads       --json $R/fig7.json > $R/fig7.txt 2>&1
$B/fig8_accuracy      --json $R/fig8.json > $R/fig8.txt 2>&1
$B/fig9_kernels       --json $R/fig9.json > $R/fig9.txt 2>&1
$B/amortization       --json $R/amortization.json > $R/amortization.txt 2>&1
$B/dist_scaling       --json $R/dist.json > $R/dist.txt 2>&1
$B/net_scaling        --json $R/net.json > $R/net.txt 2>&1
$B/profile            --json $R/profile.json --trace $R/profile.trace.json > $R/profile.txt 2>&1
$B/build_ablation     --json $R/build_ablation.json > $R/build_ablation.txt 2>&1
echo ALL_DONE
