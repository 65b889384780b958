#!/bin/sh
# Invalid invocations of the CLI must fail at parse time, before any
# simulation starts: exit 124 with a message that names the flag.
#
#   sh bin/usage_errors.sh PATH/TO/geogauss_cli.exe    (dune runtest runs it)
set -u
cli=$1
status=0

# expect FLAG ARGS...: `geogauss ARGS` exits 124 and its stderr names FLAG.
expect() {
  flag=$1
  shift
  err=$("$cli" "$@" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 124 ] || ! printf '%s\n' "$err" | grep -qF -- "$flag"; then
    printf 'geogauss %s: exit %d, want 124 naming %s\n%s\n' "$*" "$code" \
      "$flag" "$err" >&2
    status=1
  fi
}

expect "'--epoch-ms'" run --epoch-ms 0
expect "'-n'" run -n 0
expect "'--records'" run --records 0
expect "'--theta'" run --theta 1.5
expect "--merge-level" run --engine geog-a --merge-level column
expect "--merge-level" check --engine geog-a --merge-level column
expect "--clock-skew" run --clock-skew 5
expect "--clock-skew" check --clock-skew 5
expect "'--corrupt'" check --corrupt 2
exit $status
