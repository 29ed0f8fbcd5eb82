#!/bin/sh
# Public surface audit: which public functions, constants and statics of the
# library crates does no non-test code reach?
#
# Usage: scripts/surface-audit.sh          (from anywhere inside the repo)
#
# The script copies the working tree (tracked and untracked, unignored files)
# into a temporary directory and marks every `pub fn`, `pub const` and
# `pub static` in `crates/*/src`, outside `#[cfg(test)]` modules, with
# `#[deprecated(note = "AUDIT<id>")]`. It then checks every non-test target in
# that copy: the workspace's libraries, binaries and examples, and hostbench
# with all of its targets (its tests count as callers). Every use of a marked
# item raises a deprecation warning that names the item; a marked item that no
# warning names is reached by nothing but tests.
#
# An item's id is its file and its name, qualified by the `impl`, `trait` or
# inline `mod` it sits in: `crates/obs/src/metrics.rs MetricsRegistry::counter_value`.
# Types are not audited (derives and `impl` headers count as uses); a type
# that only dead functions used shows up as a `dead_code` warning once they
# are deleted. Fields are not audited either.
#
# The script prints every unreached item's id, sorted, on stdout. It then
# compares them with scripts/surface-keep.txt, whose lines read
# `<file> <name> -- <reason>` (`#` starts a comment), and exits 1 if
#   - an unreached item is not in the keep list,
#   - a keep-list entry is reached again,
#   - a keep-list entry no longer exists, or has no reason.
# Deleting an item can leave the items only it called unreached; run the
# script again after each round of deletions until it reports nothing new.
# The repository itself is left untouched.
set -eu
export LC_ALL=C

root=$(git rev-parse --show-toplevel)
keep="$root/scripts/surface-keep.txt"
work=$(mktemp -d "${TMPDIR:-/tmp}/surface-audit.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

# The copy: every file git tracks or would track, as it is on disk.
(cd "$root" && git ls-files -z --cached --others --exclude-standard) |
    tr '\0' '\n' | while IFS= read -r f; do
        [ -f "$root/$f" ] || continue
        mkdir -p "$work/tree/$(dirname "$f")"
        cp "$root/$f" "$work/tree/$f"
    done

# Mark the items. A top-level `#[cfg(test)]` module is skipped up to its
# closing `}` in column 0; the enclosing `impl`/`trait`/`mod` name of an
# indented item is taken from the last top-level header before it.
: > "$work/marked"
cd "$work/tree"
find crates -path 'crates/*/src/*' -name '*.rs' | sort | while IFS= read -r f; do
    awk -v file="$f" -v list="$work/marked" '
        function container(line,   s, depth, i, c) {
            s = line
            sub(/^(pub(\([a-z]+\))? )?(unsafe )?/, "", s)
            if (s ~ /^mod /) { sub(/^mod /, "", s); sub(/[^A-Za-z0-9_].*/, "", s); return s }
            sub(/^(impl|trait)/, "", s)
            if (substr(s, 1, 1) == "<") {          # skip impl<...> generics
                depth = 0
                for (i = 1; i <= length(s); i++) {
                    c = substr(s, i, 1)
                    if (c == "<") depth++
                    else if (c == ">" && --depth == 0) break
                }
                s = substr(s, i + 1)
            }
            if (s ~ / for /) sub(/.* for /, "", s)
            sub(/^[ \t]+/, "", s)
            sub(/[^A-Za-z0-9_:].*/, "", s)
            sub(/.*::/, "", s)
            return s
        }
        skip && /^}/ { skip = 0; print; next }
        skip { print; next }
        /^#\[cfg\(test\)\]/ { pending = 1; print; next }
        pending && /^(pub )?mod / { pending = 0; skip = 1; print; next }
        { pending = 0 }
        /^((pub(\([a-z]+\))? )?(unsafe )?(impl|trait)[ <]|(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{)/ {
            scope = container($0)
        }
        /^}/ { scope = "" }
        /^[ \t]*pub (const |unsafe |async |extern "C" )*fn / ||
        /^[ \t]*pub (const|static) [A-Za-z0-9_]+ *:/ {
            name = $0
            sub(/^[ \t]*pub /, "", name)
            sub(/^((const|unsafe|async|extern "C") )*fn /, "", name)
            sub(/^(const|static) /, "", name)
            sub(/[^A-Za-z0-9_].*/, "", name)
            indent = $0
            sub(/[^ \t].*/, "", indent)
            id = file " " ((indent != "" && scope != "") ? scope "::" : "") name
            printf "%s#[deprecated(note = \"AUDIT<%s>\")]\n", indent, id
            print id >> list
        }
        { print }
    ' "$f" > "$f.audit" && mv "$f.audit" "$f"
done
sort -o "$work/marked" "$work/marked"

# Check every non-test target. The copy gets a target directory of its own:
# one shared with another copy of the tree can replay that copy's cached
# warnings. Lints stay warnings whatever the caller's RUSTFLAGS say.
unset RUSTFLAGS
export CARGO_TARGET_DIR="$work/target"
{
    cargo check --offline --workspace --lib --bins --examples 2>&1 ||
        echo "AUDIT-FAILED cargo check (workspace)"
    cargo check --offline --manifest-path hostbench/Cargo.toml --all-targets 2>&1 ||
        echo "AUDIT-FAILED cargo check (hostbench)"
} > "$work/check.log"
if grep -q '^AUDIT-FAILED' "$work/check.log"; then
    grep -E '^(error|AUDIT-FAILED)' "$work/check.log" >&2
    echo "surface-audit: the marked copy does not build" >&2
    exit 2
fi
grep -o 'AUDIT<[^>]*>' "$work/check.log" | sed 's/^AUDIT<//; s/>$//' |
    sort -u > "$work/reached"
comm -23 "$work/marked" "$work/reached" | tee "$work/unreached"

# Compare with the keep list.
sed -e '/^[[:space:]]*#/d' -e '/^[[:space:]]*$/d' "$keep" > "$work/keep.lines"
sed -e 's/ -- .*//' -e 's/[[:space:]]*$//' "$work/keep.lines" | sort > "$work/kept"
status=0
comm -23 "$work/unreached" "$work/kept" | sed 's/^/not in the keep list (delete it, or keep it with a reason): /' >&2
comm -13 "$work/marked" "$work/kept" | sed 's/^/keep-list entry no longer exists: /' >&2
comm -12 "$work/reached" "$work/kept" | sed 's/^/keep-list entry is reached again (drop it from the keep list): /' >&2
grep -v ' -- [^[:space:]]' "$work/keep.lines" | sed 's/^/keep-list entry without a reason: /' >&2 || true
if ! cmp -s "$work/unreached" "$work/kept" ||
    grep -qv ' -- [^[:space:]]' "$work/keep.lines"; then
    status=1
fi
n=$(wc -l < "$work/marked")
u=$(wc -l < "$work/unreached")
echo "surface-audit: $n items, $u reached only by tests or nothing" >&2
exit $status
