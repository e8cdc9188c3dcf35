#!/bin/sh
# check-lint-fixtures.sh: the analyzer suite's own quality gate. Runs
# the lint package and churnvet CLI tests — the fixture modules under
# internal/lint/testdata/src (firing + suppressed case per analyzer,
# malformed and stale waivers), TestRepoClean, and the CLI surface —
# and holds their coverage to floors deliberately above the repo-wide
# cover gate (internal >= 75%): an analyzer is itself a test oracle,
# so untested analyzer code is a silent hole in every other gate.
#
#   internal/lint  >= 90%   (baseline when this gate landed: 94.0%)
#   cmd/churnvet   >= 85%   (baseline: 89.0%; covered here despite the
#                            cmd/ exemption in the general gate)
set -eu

GO="${GO:-go}"

out="$("$GO" test -count 1 -cover ./internal/lint ./cmd/churnvet 2>&1)" || {
	printf '%s\n' "$out"
	exit 1
}
printf '%s\n' "$out"

printf '%s\n' "$out" | awk '
function floor(pkg) {
	if (pkg == "churntomo/internal/lint") return 90
	if (pkg == "churntomo/cmd/churnvet") return 85
	return -1
}
/coverage:/ {
	pkg = $2
	for (i = 1; i <= NF; i++)
		if ($i == "coverage:") { pct = $(i + 1); sub(/%$/, "", pct) }
	f = floor(pkg)
	if (f < 0) next
	seen[pkg] = 1
	if (pct + 0 < f) {
		printf "lint-fixtures: %s coverage %.1f%% is below its %d%% floor\n", pkg, pct, f
		bad = 1
	}
}
END {
	if (!seen["churntomo/internal/lint"] || !seen["churntomo/cmd/churnvet"]) {
		print "lint-fixtures: missing coverage line for internal/lint or cmd/churnvet"
		bad = 1
	}
	exit bad
}'
