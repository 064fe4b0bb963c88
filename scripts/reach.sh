#!/usr/bin/env bash
# reach.sh lists every non-test library function that no binary of this
# repository reaches, then fails if one of them is missing from
# scripts/reach.allow.
#
# It links every main package, and the perfbench module, with inlining
# off and collects the linker's dependency edges (-ldflags=-dumpdep). A
# library function whose symbol appears in none of those edges is
# unreached. Each is printed as "<lines> <file>:<line> <symbol>",
# followed by a total.
#
# The check runs one way only: a listed function that a newer linker
# does reach passes, an unreached function that is not listed fails.
#
# Usage, from the repository root (~10 s): bash scripts/reach.sh
set -euo pipefail

allow=scripts/reach.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

link() { # link <dir> <package>: append its dependency edges
  (cd "$1" && go build -gcflags=all=-l -ldflags=-dumpdep -o /dev/null "$2") 2> "$tmp/out" ||
    { cat "$tmp/out" >&2; exit 1; }
  cat "$tmp/out" >> "$tmp/edges.txt"
}
for p in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
  link . "$p"
done
link perfbench .

# One symbol per line, with type arguments dropped:
# pkg.(*T[int]).M -> pkg.(*T).M.
sed 's/ -> /\n/; s/<ABIInternal>//g' "$tmp/edges.txt" | awk '{
    out = ""; d = 0
    for (i = 1; i <= length($0); i++) { c = substr($0, i, 1)
      if (c == "[") d++; else if (c == "]") d--; else if (d == 0) out = out c }
    print out }' | sort -u > "$tmp/reached.txt"

# Every top-level function and method of a library file, as the linker
# names it, with its length and location.
for f in $(git ls-files '*.go' | grep -v -e '_test\.go$' -e '^perfbench/' -e '^cmd/' -e '^examples/' -e '^scripts/'); do
  d=$(dirname "$f"); pkg=rdasched; [ "$d" = . ] || pkg="rdasched/$d"
  gofmt -r 'a -> a' "$f" | awk -v pkg="$pkg" -v f="$f" '
    /^func / { start = NR; line = $0
      if (match(line, /^func \([a-zA-Z_0-9]* *\*[A-Za-z_0-9]+(\[[^]]*\])?\) [A-Za-z_0-9]+/)) {
        s = substr(line, 7, RLENGTH - 6); sub(/^[a-zA-Z_0-9]* *\*/, "", s); sub(/\[[^]]*\]/, "", s)
        split(s, a, /\) /); sym = pkg ".(*" a[1] ")." a[2]
      } else if (match(line, /^func \([a-zA-Z_0-9]* *[A-Za-z_0-9]+(\[[^]]*\])?\) [A-Za-z_0-9]+/)) {
        s = substr(line, 7, RLENGTH - 6); sub(/^[a-zA-Z_0-9]* +/, "", s); sub(/\[[^]]*\]/, "", s)
        split(s, a, /\) /); sym = pkg "." a[1] "." a[2]
      } else { match(line, /^func [A-Za-z_0-9]+/); sym = pkg "." substr(line, 6, RLENGTH - 5) }
      if (line ~ /}$/) { print sym, 1, f ":" NR; start = 0 } }
    /^}/ && start { print sym, NR - start + 1, f ":" start; start = 0 }'
done | while read -r sym n loc; do
  grep -qxF "$sym" "$tmp/reached.txt" || echo "$n $loc $sym"
done | sort -k2 > "$tmp/unreached.txt"

cat "$tmp/unreached.txt"
awk '{ s += $1 } END { print s " unreached lines in " NR " functions" }' "$tmp/unreached.txt"

awk '{ print $3 }' "$tmp/unreached.txt" | sort -u > "$tmp/unreached.syms"
sed 's/#.*//; s/[[:space:]]//g; /^$/d' "$allow" | sort -u > "$tmp/allowed.syms"
comm -23 "$tmp/unreached.syms" "$tmp/allowed.syms" > "$tmp/unlisted.syms"
if [ -s "$tmp/unlisted.syms" ]; then
  echo "unreached by any binary and missing from $allow:"
  sed 's/^/  /' "$tmp/unlisted.syms"
  exit 1
fi
