#!/usr/bin/env bash
# Fails when a file in tests/ or examples/ is not a registered target.
#
#   scripts/check_targets.sh
#
# Cargo discovers tests and examples only inside a package's own
# directory, so each root-level file is listed by hand as a `[[test]]` or
# `[[example]]` target (`path = "../../tests/NAME.rs"`) in a crate
# manifest under crates/. A file missing from every list never builds or
# runs; this script names each such file and exits 1.
set -euo pipefail

cd "$(dirname "$0")/.."
missing=0
for file in tests/*.rs examples/*.rs; do
    if ! grep -qF "path = \"../../$file\"" crates/*/Cargo.toml; then
        echo "$file is not a [[test]] or [[example]] target of any crates/*/Cargo.toml" >&2
        missing=1
    fi
done
exit "$missing"
