#!/bin/sh
# Exit-code contract of the command-line tools (README "Tool exit
# codes"): every malformed invocation below must exit with exactly the
# listed code, before doing any work.
#
# Usage: cli_contract.sh <directory holding the tool binaries>
set -u
tools=$1
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
failures=0

# expect CODE TOOL ARGS...: run the tool, compare its exit code.
expect() {
    want=$1
    shift
    tool=$1
    shift
    "$tools/$tool" "$@" >/dev/null 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $tool $* exited $got, want $want"
        failures=$((failures + 1))
    fi
}

# Unknown flag.
expect 2 pmdb_run pmdebugger 10 b_tree --bogus
expect 2 pmdbd --socket "$scratch/d.sock" --bogus
expect 2 pmdb_stat --socket "$scratch/m.sock" --bogus
expect 2 pmdb_crossproc --bogus
expect 2 pmdb_advise case:hashmap_atomic_entry_not_flushed --bogus
expect 2 pmdb_modelcheck run b_tree --bogus
expect 2 pmdb_crashsim run b_tree --bogus
expect 2 pmdb_tracetool info "$scratch/none.trc" --bogus

# Malformed numbers: garbage, trailing text, negative, out of range.
expect 2 pmdb_modelcheck run b_tree --ops abc
expect 2 pmdb_run pmdebugger abc b_tree
expect 2 pmdb_crashsim run b_tree --ops 5x
expect 2 pmdb_run pmdebugger 10 b_tree --seed -1
expect 2 pmdb_run pmdebugger 10 b_tree --ring-slots 0
expect 2 pmdb_advise case:hashmap_atomic_entry_not_flushed --seeds 1,x

# Removed options and commands are usage errors, not silent no-ops.
expect 2 pmdb_run pmdebugger 10 b_tree --connect "$scratch/d.sock" \
    --policy drop
expect 2 pmdb_tracetool crashsim "$scratch/none.trc"

# Missing value, stray positional.
expect 2 pmdb_crashsim run b_tree --ops
expect 2 pmdb_run pmdebugger 10 b_tree extra

# `record <workload>` used to ignore every flag but --fault.
expect 2 pmdb_tracetool record b_tree 10 "$scratch/a.trc" --fautl x
expect 2 pmdb_tracetool record b_tree 10 "$scratch/b.trc" --fault

# Unknown workload, case or fault name.
expect 3 pmdb_crashsim run no_such_workload
expect 3 pmdb_modelcheck case no_such_case
expect 3 pmdb_crossproc --case no_such_case
expect 3 pmdb_tracetool record no_such_workload 10 "$scratch/c.trc"

# Malformed trace files: bad input, not a crash. Each is a PMDBTRS2
# trace with no names; an event record is the tag 'E' and 48 bytes
# (kind, flushKind, 2 pad, thread, strand, nameId, addr, size, 4 pad,
# seq, global), little-endian.
z4='\0\0\0\0'
event() { # kind byte, nameId bytes; addr 0x40, size 8, seq 1
    printf "E$1\\0\\0\\0$z4$z4$2\\100\\0\\0\\0$z4\\010\\0\\0\\0$z4"
    printf "\\001\\0\\0\\0$z4$z4$z4"
}
{ printf PMDBTRS2; event '\310' '\377\377\377\377'; } \
    > "$scratch/kind.trc"                  # kind byte 200
{ printf PMDBTRS2; event '\012' '\062\171\006\0'; } \
    > "$scratch/name.trc"                  # RegisterPmem, nameId 424242
{ printf PMDBTRS2; printf X; } > "$scratch/tag.trc" # unknown tag
{ printf PMDBTRS2; event '\0' '\377\377\377\377'; printf 'E\0\0\0'; } \
    > "$scratch/torn.trc"                  # one Store, then a cut record
expect 4 pmdb_tracetool info "$scratch/kind.trc"
expect 4 pmdb_tracetool replay "$scratch/name.trc" pmdebugger
expect 4 pmdb_tracetool info "$scratch/tag.trc"
expect 5 pmdb_tracetool info "$scratch/torn.trc"

# Discovery succeeds.
expect 0 pmdb_run --list

if [ "$failures" -ne 0 ]; then
    echo "$failures CLI contract violation(s)"
    exit 1
fi
echo "CLI contract holds"
