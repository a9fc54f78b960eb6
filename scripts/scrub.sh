# Sourced by check.sh and same.sh. `scrub <stdout file>` prints a `repro`
# stdout without what may legitimately differ between two runs of one
# command: trailing per-line wall-clocks, wall lines, the xl/xl2
# prepare/total summary lines, and the wrote-filename lines.
scrub() { sed -E 's/ +[0-9.]+s$//' "$1" | grep -v -e "wall" -e "^prepare:" -e "^total:" -e "^wrote "; }
