#!/bin/sh
# Unreachable-code report: lists every function and method defined in
# the module's non-test Go files (default build tags) that no binary
# links. Every cmd/* and examples/* program is built with inlining off
# (-gcflags=all=-l), so a function that is called anywhere keeps its own
# text symbol; the linker's dead-code pass drops the rest. The report is
# the defined set minus the union of `go tool nm` over those binaries.
#
# Usage:
#   scripts/unreachable.sh        # the list, then "unreachable: N"
#
# scripts/check.sh fails when N rises above scripts/unreachable_baseline.txt.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Link every program. Binary names encode the import path ("/" -> "+"),
# so main-package symbols can be attributed to the right command.
for dir in cmd/* examples/*; do
    [ -d "$dir" ] || continue
    pkg="logtmse/$dir"
    go build -gcflags=all=-l -o "$tmp/bin/$(echo "$pkg" | tr / +)" "./$dir"
done

# Reached: text symbols of every binary, with generic instantiation
# brackets removed and "main." rewritten to the command's import path.
for bin in "$tmp"/bin/*; do
    pkg=$(basename "$bin" | tr + /)
    go tool nm "$bin" | awk -v pkg="$pkg" '
        $2 == "T" || $2 == "t" {
            s = $0
            sub(/^ *[0-9a-f]+ [Tt] /, "", s)
            while (gsub(/\[[^][]*\]/, "", s)) {}
            if (substr(s, 1, 5) == "main.") s = pkg "." substr(s, 6)
            print s
        }'
done | sort -u >"$tmp/reached"

# Defined: top-level func declarations in the files the default build
# compiles, spelled the way the linker names them: pkg.F, pkg.T.M for a
# value receiver, pkg.(*T).M for a pointer receiver.
go list -f '{{$d := .Dir}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./... |
while read -r pkg file; do
    awk -v pkg="$pkg" '
        /^func / {
            s = substr($0, 6)
            recv = ""
            if (substr(s, 1, 1) == "(") {
                close_ = index(s, ")")
                n = split(substr(s, 2, close_ - 2), f, " ")
                t = f[n]
                sub(/\[.*/, "", t)
                recv = (substr(t, 1, 1) == "*") ? "(*" substr(t, 2) ")." : t "."
                s = substr(s, close_ + 1)
                sub(/^ +/, "", s)
            }
            match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
            name = substr(s, 1, RLENGTH)
            if (name == "_" || (recv == "" && name == "init")) next
            print pkg "." recv name
        }' "$file"
done | sort -u >"$tmp/defined"

comm -23 "$tmp/defined" "$tmp/reached"
echo "unreachable: $(comm -23 "$tmp/defined" "$tmp/reached" | wc -l | tr -d ' ')"
