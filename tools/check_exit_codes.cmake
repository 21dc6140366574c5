# Exit-code contract smoke: lvtool must return 0 on success and 2 on any
# input error, with a coded diagnostic on stderr. Exercises the `check`
# subcommand, checked CLI option parsing, and unreadable-file handling.
file(MAKE_DIRECTORY ${WORK})
set(NETLIST ${WORK}/check_adder.lvnet)

# Every run must finish within TIMEOUT seconds; a run cut off there
# fails with rc "Process terminated due to timeout".
function(expect_exit expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc TIMEOUT 30
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected})
    message(FATAL_ERROR "expected exit ${expected}, got ${rc}: ${ARGN}\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  set(LAST_OUT "${out}" PARENT_SCOPE)
  set(LAST_ERR "${err}" PARENT_SCOPE)
endfunction()

function(expect_match text pattern)
  if(NOT text MATCHES "${pattern}")
    message(FATAL_ERROR "output missing '${pattern}':\n${text}")
  endif()
endfunction()

# A valid netlist checks clean (exit 0).
expect_exit(0 ${LVTOOL} gen rca 4 -o ${NETLIST})
expect_exit(0 ${LVTOOL} check ${NETLIST})
expect_match("${LAST_OUT}" "0 error")

# Garbage numeric option: exit 2 with the cli.number code on stderr.
expect_exit(2 ${LVTOOL} power ${NETLIST} soi_low_vt --vdd oops)
expect_match("${LAST_ERR}" "cli.number")

# --threads above the 256 cap is refused before any parallel region can
# grow the pool (no thread is started for these runs).
expect_exit(2 ${LVTOOL} faults ${NETLIST} --threads 100000)
expect_match("${LAST_ERR}" "cli.option")
expect_exit(2 ${LVTOOL} faults ${NETLIST} --threads 257)
expect_match("${LAST_ERR}" "cli.option")

# Unreadable file: exit 2 with io.open.
expect_exit(2 ${LVTOOL} check ${WORK}/no_such_file.lvnet)
expect_match("${LAST_ERR}" "io.open")

# Corrupt techfile: every error reported, coded, exit 2, and the JSON
# report carries the lv-diag/1 schema.
file(WRITE ${WORK}/bad.lvtech "lvtech 1\n[nmos]\nvt0 = nan\nalpha = 9.9\n")
expect_exit(2 ${LVTOOL} check ${WORK}/bad.lvtech
            --diag-json ${WORK}/bad_diags.json)
expect_match("${LAST_OUT}" "tech.nonfinite")
expect_match("${LAST_OUT}" "tech.range")
file(READ ${WORK}/bad_diags.json _json)
expect_match("${_json}" "lv-diag/1")

# Warnings alone keep exit 0 — unless --strict promotes them.
file(WRITE ${WORK}/gap.lvnet
     "lvnet 1\ninput a0\ninput a1\ninput a3\nnet w\nnet v\n"
     "gate g1 NAND2 w a0 a1\ngate g2 INV v a3\noutput w\noutput v\n")
expect_exit(0 ${LVTOOL} check ${WORK}/gap.lvnet)
expect_match("${LAST_OUT}" "net.bus_gap")
expect_exit(2 ${LVTOOL} check ${WORK}/gap.lvnet --strict)

# Unknown subcommand is a usage (input) error, not an internal one.
expect_exit(2 ${LVTOOL} frobnicate)

# So is a known subcommand with the wrong number of arguments.
expect_exit(2 ${LVTOOL} gen)
expect_match("${LAST_ERR}" "cli.option")
expect_exit(2 ${LVTOOL} gen mul)
expect_match("${LAST_ERR}" "cli.option")
expect_exit(2 ${LVTOOL} power)
expect_match("${LAST_ERR}" "cli.option")

# Every design `gen` produces is processed: stuck-at campaigns on the 16-
# and 32-bit array multipliers (32 and 64 inputs) with the default
# kernel finish in well under a second. They grade settled values, so
# the multipliers' glitch storms cost nothing.
foreach(width 16 32)
  expect_exit(0 ${LVTOOL} gen mul ${width} -o ${WORK}/mul${width}.lvnet)
  expect_exit(0 ${LVTOOL} faults ${WORK}/mul${width}.lvnet)
  expect_match("${LAST_OUT}" "stuck-at faults: [0-9]+; detected")
endforeach()
