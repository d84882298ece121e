# Sourced by the CI gates. `focused_pass PRESET SUITE... [-- CTEST_ARG...]`
# runs exactly the named ctest suites of PRESET, JOBS at a time, with any
# extra ctest arguments. It fails before running anything when PRESET
# lists fewer suites than the pass names, so a renamed or deleted suite
# cannot silently shrink a pass; --no-tests=error fails a pass that would
# run none.
focused_pass() {
  local preset="$1"
  shift
  local suites=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do
    suites+=("$1")
    shift
  done
  [[ $# -gt 0 ]] && shift
  local regex
  regex="^($(IFS='|'; echo "${suites[*]}"))\$"
  local listed
  listed="$(ctest --preset "${preset}" -N -R "${regex}" |
            sed -n 's/^Total Tests: //p')"
  if [[ "${listed}" != "${#suites[@]}" ]]; then
    echo "error: preset ${preset} lists ${listed:-0} of the" \
         "${#suites[@]} suites this pass names: ${suites[*]}" >&2
    return 1
  fi
  ctest --preset "${preset}" -j"${JOBS}" --no-tests=error -R "${regex}" "$@"
}
