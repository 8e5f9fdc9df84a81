#!/usr/bin/env bash
# Every verb through the `quditgraphs` console script, with its exit code.
#
# Usage: bash .github/console-script-smoke.sh DIR
#
# Writes the input files into DIR, then runs each line of the list below
# (the expected exit code, then the arguments) through the console script
# and through `python -m quditgraphs`. Both must give the expected exit code
# and the same stdout. An exit 2 or 3 must print nothing on stdout and
# exactly one `error: ` line on stderr; any other exit must print something
# on stdout. Nothing here needs numpy.
set -euo pipefail
dir=$1

phases="$dir/phases.json"
echo '{"d": 3, "n": 2, "phases": [0, 1, 0, 1, 1, 0, 0, 1, 0]}' > "$phases"
graph="$dir/graph.json"
echo '{"d": 3, "n": 2, "edges": [{"vertices": [0, 1], "exponents": [2, 1], "weight": 1}]}' > "$graph"
unsorted="$dir/unsorted.json"  # an edge map whose edge lists its vertices out of order
echo '{"d": 3, "n": 2, "edges": [{"vertices": [1, 0], "exponents": [1, 1], "weight": 1}]}' > "$unsorted"
deep="$dir/deep.json"  # nested past the JSON decoder's recursion limit
python -c 'print("[" * 100000)' > "$deep"
extra="$dir/extra.json"  # a phase table with a key outside the schema
echo '{"d": 2, "n": 1, "phases": [0, 1], "extra": 1}' > "$extra"
allzero="$dir/allzero.json"  # the all-zero d=4 n=3 table: 2^88 solutions
python -c 'import json; print(json.dumps({"d": 4, "n": 3, "phases": [0] * 64}))' > "$allzero"
wide="$dir/wide.json"  # d=67: tables of two-byte lanes
echo '{"d": 67, "n": 2, "edges": [{"vertices": [0, 1], "exponents": [2, 1], "weight": 66}, {"vertices": [1], "exponents": [3], "weight": 5}]}' > "$wide"
wide_phases="$dir/wide-phases.json"  # its state's table: reachable
quditgraphs build-state --graph "$wide" > "$wide_phases"
wide_edge="$dir/wide-edge.json"  # d=67: one [1, 1]-exponent edge
echo '{"d": 67, "n": 2, "edges": [{"vertices": [0, 1], "exponents": [1, 1], "weight": 5}]}' > "$wide_edge"
edge_phases="$dir/edge-phases.json"  # its state's table: reachable in both modes
quditgraphs build-state --graph "$wide_edge" > "$edge_phases"

while read -r expected args; do
  code=0; quditgraphs $args > "$dir/script.out" 2> "$dir/script.err" || code=$?
  module_code=0; python -m quditgraphs $args > "$dir/module.out" || module_code=$?
  cmp "$dir/script.out" "$dir/module.out" \
    || { echo "quditgraphs $args: console script and python -m differ" >&2; exit 1; }
  [ "$code" = "$expected" ] && [ "$module_code" = "$expected" ] \
    || { echo "quditgraphs $args: exit $code and $module_code, expected $expected" >&2; exit 1; }
  if [ "$code" = 2 ] || [ "$code" = 3 ]; then
    [ ! -s "$dir/script.out" ] && [ "$(wc -l < "$dir/script.err")" = 1 ] \
      && grep -q '^error: ' "$dir/script.err"
  else
    [ -s "$dir/script.out" ]
  fi || { echo "quditgraphs $args: exit $code, but not the output that exit code requires" >&2; exit 1; }
done <<EOF
0 census --d 3 --n 1 --mode hypergraph
0 census --d 4 --n 1 --mode multihypergraph
0 census --d 2 --n 11 --mode hypergraph
3 census --d 2 --n 12 --mode hypergraph
3 census --d 10 --n 10 --mode hypergraph
2 census --d 1 --n 1 --mode hypergraph
2 census --d 3 --n 1
2 census --d 3 --n 1 --mode graph
0 census --d=3 --n=1 --mode=hypergraph
0 census --help
2
0 solve --phases $phases --mode multihypergraph
1 solve --phases $phases --mode hypergraph
2 solve --phases $deep --mode hypergraph
2 solve --phases $extra --mode hypergraph
3 solve --phases $allzero --mode multihypergraph --all-solutions --solution-cap 1000000000000000000000000000000
0 solve --phases $wide_phases --mode multihypergraph
1 solve --phases $wide_phases --mode hypergraph
0 solve --phases $edge_phases --mode hypergraph
0 build-state --graph $graph
0 build-state --dense --graph $graph
0 build-state --graph $wide
0 build-state --dense --graph $wide
2 build-state --graph $graph --stdin
2 build-state --graph $unsorted
0 verify-stabilizers --graph $graph
0 verify-stabilizers --graph $wide
1 identity-check --d 3 --n 1
1 identity-check --d 3 --n 2 --exhaustive
0 matrix --d 6 --block 1
0 matrix --d 200 --block 1
3 matrix --d 3 --block 100
2 matrix --d 1 --block 1
EOF
