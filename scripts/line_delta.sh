#!/usr/bin/env bash
# Net line delta of the workspace's Rust sources between a git revision
# and the working tree.
#
#   scripts/line_delta.sh [BASE]      (BASE defaults to HEAD)
#
# Every line is counted in one of three kinds:
#   program  src/ and crates/*/src/, up to each file's first #[cfg(test)]
#   test     the rest of those files, plus tests/ and crates/*/tests/
#   bench    crates/bench/benches/
# crates/shims/ (offline stand-ins for registry crates) is left out.
# The report lists each file, then each crate, then the workspace, with
# the count at BASE, in the working tree and the difference.
set -euo pipefail

base=${1:-HEAD}
cd "$(git rev-parse --show-toplevel)"
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
    echo "line_delta: unknown revision '$base'" >&2
    exit 2
fi

in_scope() {
    case "$1" in
        crates/shims/*) return 1 ;;
        src/*.rs | tests/*.rs | crates/*/src/*.rs | crates/*/tests/*.rs | crates/bench/benches/*.rs) return 0 ;;
    esac
    return 1
}

# "program test bench" line counts of the Rust source on stdin at `path`.
counts() {
    case "$1" in
        crates/bench/benches/*) awk 'END { print 0, 0, NR }' ;;
        tests/* | crates/*/tests/*) awk 'END { print 0, NR, 0 }' ;;
        *) awk '/#\[cfg\(test\)\]/ { t = 1 } { if (t) n++; else p++ } END { print p + 0, n + 0, 0 }' ;;
    esac
}

crate_of() {
    case "$1" in
        crates/*) local rest=${1#crates/}; echo "${rest%%/*}" ;;
        *) echo "eigenmaps" ;;
    esac
}

{
    git ls-tree -r --name-only "$base"
    git ls-files --cached --others --exclude-standard
} | sort -u | while read -r path; do
    in_scope "$path" || continue
    if git cat-file -e "$base:$path" 2>/dev/null; then
        read -r bp bt bb < <(git show "$base:$path" | counts "$path")
    else
        bp=0 bt=0 bb=0
    fi
    if [ -f "$path" ]; then
        read -r np nt nb < <(counts "$path" <"$path")
    else
        np=0 nt=0 nb=0
    fi
    echo "$(crate_of "$path") $path $bp $np $bt $nt $bb $nb"
done | awk -v base="$base" '
    function row(label, k, b, n) {
        if (b == 0 && n == 0) return
        printf "  %-7s %-52s %6d %6d %+6d\n", k, label, b, n, n - b
    }
    {
        if (!($1 in seen)) { seen[$1] = 1; names[++nc] = $1 }
        kinds[1] = "program"; kinds[2] = "test"; kinds[3] = "bench"
        for (i = 1; i <= 3; i++) {
            b = $(1 + 2 * i); n = $(2 + 2 * i)
            files[++nf] = sprintf("%s\t%s\t%d\t%d", kinds[i], $2, b, n)
            cb[$1, i] += b; cn[$1, i] += n
            tb[i] += b; tn[i] += n
        }
    }
    END {
        printf "Rust lines, %s -> working tree\n\n", base
        printf "  %-7s %-52s %6s %6s %6s\n", "kind", "file", "base", "now", "delta"
        for (f = 1; f <= nf; f++) {
            split(files[f], c, "\t")
            row(c[2], c[1], c[3], c[4])
        }
        printf "\n  %-7s %-52s\n", "kind", "crate"
        for (j = 1; j <= nc; j++)
            for (i = 1; i <= 3; i++)
                row(names[j], kinds[i], cb[names[j], i], cn[names[j], i])
        printf "\n  %-7s %-52s\n", "kind", "workspace"
        for (i = 1; i <= 3; i++)
            row("all crates", kinds[i], tb[i], tn[i])
    }'
