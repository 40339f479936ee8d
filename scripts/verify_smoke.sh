#!/bin/sh
# verify-smoke: the on-disk checks of `rvlint verify`.  The in-memory
# proof of every built-in mutatee rewrite and the seeded wrong-rewrite
# corpus run in `rvlint smoke` (`make lint-smoke`), not here.
#
#   1. file-based round trip: rewrite fib on disk with a manifest, then
#      `rvlint verify` must prove it (exit 0); the rewrite's --trace-out
#      must hold the six static-rewrite layer spans (elf.read ..
#      elf.write) and no colon-named library span, and its --stats must
#      print the patch.plan row
#   2. disproof exit code: with the manifest's `tramp` value bumped by
#      4, `rvlint verify` must exit 1 and report both a structural
#      (springboard-target) and a symbolic (symbolic-inequivalence)
#      error
#   3. exit-code convention: unreadable inputs exit 2 (the rvdump
#      --json convention), for missing files as well as malformed
#      manifests — regression for the Arg.file 124 leak; rvcheck's bad
#      arguments (a count below its floor, an unknown mutatee or case
#      id) exit 2 the same way, before any sweep runs
#
# Run via `make verify-smoke` (part of `make check`).
set -eu

dune build bin/rvlint.exe bin/rvrewrite.exe bin/mkmutatee.exe bin/rvcheck.exe
B=_build/default/bin
DIR=$(mktemp -d)
cleanup() { rm -rf "$DIR"; }
trap cleanup EXIT INT TERM

# file-based round trip: a healthy on-disk rewrite proves
"$B/mkmutatee.exe" --builtin fib -o "$DIR/fib.elf" >/dev/null
"$B/rvrewrite.exe" "$DIR/fib.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/m.json" --entry main \
    --stats --trace-out "$DIR/t.json" >"$DIR/rw.out"
"$B/rvlint.exe" verify "$DIR/fib.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/m.json" >/dev/null

# the rewrite's trace names every static-rewrite layer with rvbench's
# span names, no library span keeps an old colon name, and --stats
# prints the same spans
for span in elf.read symtab.build parse.cfg patch.plan patch.apply elf.write; do
    if ! grep -q "\"name\":\"$span\"" "$DIR/t.json"; then
        echo "verify-smoke: rvrewrite trace has no $span span" >&2
        exit 1
    fi
done
if grep -Eq '"name":"(parse|codegen|analyze|rewrite):' "$DIR/t.json"; then
    echo "verify-smoke: rvrewrite trace has an old colon-named span" >&2
    exit 1
fi
if ! grep -q '^  patch\.plan ' "$DIR/rw.out"; then
    echo "verify-smoke: rvrewrite --stats printed no patch.plan row" >&2
    exit 1
fi

expect_rc() {
    want=$1
    shift
    rc=0
    "$@" >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "verify-smoke: expected exit $want, got $rc: $*" >&2
        exit 1
    fi
}

# a tampered trampoline address: both tiers fire, exit 1
awk '{ if (match($0, /"tramp":[0-9]+/)) {
         v = substr($0, RSTART + 8, RLENGTH - 8) + 4
         $0 = substr($0, 1, RSTART - 1) "\"tramp\":" v substr($0, RSTART + RLENGTH)
       }
       print }' "$DIR/m.json" >"$DIR/m_tramp4.json"
rc=0
"$B/rvlint.exe" verify "$DIR/fib.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/m_tramp4.json" >"$DIR/tramp4.out" 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "verify-smoke: tampered manifest: expected exit 1, got $rc" >&2
    exit 1
fi
for rule in springboard-target symbolic-inequivalence; do
    if ! grep -q "error\[$rule\]" "$DIR/tramp4.out"; then
        echo "verify-smoke: tampered manifest raised no $rule error" >&2
        exit 1
    fi
done

# unreadable inputs exit 2, never cmdliner's 124
echo 'not json' >"$DIR/bad.json"
expect_rc 2 "$B/rvlint.exe" verify "$DIR/fib.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/bad.json"
expect_rc 2 "$B/rvlint.exe" verify "$DIR/fib.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/no_such.json"
expect_rc 2 "$B/rvlint.exe" verify "$DIR/no_such.elf" "$DIR/fib_rw.elf" \
    --manifest "$DIR/m.json"
expect_rc 2 "$B/rvlint.exe" lint "$DIR/no_such.elf"
expect_rc 2 "$B/rvcheck.exe" lockstep --count=0
expect_rc 2 "$B/rvcheck.exe" lockstep --count=-3
expect_rc 2 "$B/rvcheck.exe" engine --seeds=-1
expect_rc 2 "$B/rvcheck.exe" engine --len=-5
expect_rc 2 "$B/rvcheck.exe" parsediff --seeds=-1
expect_rc 2 "$B/rvcheck.exe" roundtrip --mutatee no_such
expect_rc 2 "$B/rvcheck.exe" replay no_such:1
expect_rc 2 "$B/rvcheck.exe" replay engine:no_such:plain

echo "verify-smoke: ok"
