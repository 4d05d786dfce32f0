# What the perfbench scripts share; `source` it, do not run it.

# The benchmark's workloads, in the order the scripts run them.
WORKLOADS=(mixed-backlog chaos-deadline sparse-idle paper-repro)

# `perfbench_metrics`: the benchmark's JSON result line on stdin as
# `name value` lines: `correct` and `failed` first, then every metric
# in the order the benchmark prints it, at the full precision of the
# line.
perfbench_metrics() {
    local json
    json=$(cat)
    grep -oE '"(correct|failed)": [a-z0-9]+' <<<"$json" | tr -d '":'
    grep -oE '"[a-z0-9_.]+": \{"value": [^,]+' <<<"$json" |
        sed -E 's/^"([^"]+)": \{"value": (.*)$/\1 \2/'
}
