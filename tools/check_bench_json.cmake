# Validation for the ultra.bench_sim.v3 BENCH JSON contract (every record
# carries the transport `aggregation` object). Three modes, combinable in one
# invocation:
#
#   -DBENCH_BIN=<path-to-micro_core>
#       bench-smoke: run `micro_core --json` on a tiny workload and validate
#       the emitted record (presence of every required key plus basic sanity
#       of the numeric fields), then check that bad input (an unknown
#       protocol, audit or executor name, or a missing value) exits 2 without
#       a record.
#
#   -DBENCH_JSON=<path-to-BENCH_sim.json>
#       file audit: parse the committed record array, validate every record,
#       and reject duplicate {workload, protocol, execution, threads} tuples
#       — the failure mode of a regeneration script appending instead of
#       rewriting. ultra.bench_note.v1 records (e.g. the explicit
#       "SKIPPED (1 core)" parallel-sweep note) are schema-checked but exempt
#       from the duplicate-tuple rule.
#
#   -DBENCH_BASELINE=<previous-BENCH_sim.json>   (requires BENCH_JSON)
#       peak-RSS budget: for every tuple present in both arrays, warn if
#       peak_rss_bytes regressed more than 10% against the baseline record —
#       a tripwire for the memory-diet roadmap item, not a hard failure
#       (RSS is load-sensitive).
#
# Invoked by ctest (bench_smoke runs BIN + JSON modes) and by
# tools/run_bench.sh (file audit + RSS budget on the freshly written array,
# before it replaces the old one):
#   cmake -DBENCH_BIN=... -DBENCH_JSON=... [-DBENCH_BASELINE=...] \
#         -P tools/check_bench_json.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON ...), IN_LIST semantics

if(NOT DEFINED BENCH_BIN AND NOT DEFINED BENCH_JSON)
  message(FATAL_ERROR
    "check_bench_json: pass -DBENCH_BIN=<micro_core> and/or "
    "-DBENCH_JSON=<BENCH_sim.json>")
endif()

# CMake >= 3.19 ships a JSON parser; use it so malformed output (not just a
# missing key) fails the check too.
function(ultra_validate_record record context)
  string(JSON schema ERROR_VARIABLE jerr GET "${record}" schema)
  if(jerr)
    message(FATAL_ERROR "${context}: not valid JSON: ${jerr}")
  endif()

  # Note records carry prose, not measurements: one mandatory `note` string.
  if(schema STREQUAL "ultra.bench_note.v1")
    string(JSON note ERROR_VARIABLE jerr GET "${record}" note)
    if(jerr)
      message(FATAL_ERROR "${context}: note record missing 'note': ${jerr}")
    endif()
    return()
  endif()

  if(NOT schema STREQUAL "ultra.bench_sim.v3")
    message(FATAL_ERROR "${context}: unexpected schema '${schema}'")
  endif()

  foreach(key bench cpu_cores workload protocol audit execution threads
              message_cap repeats rounds messages total_words trace_digest
              wall_seconds rounds_per_second messages_per_second
              peak_rss_bytes run_status)
    string(JSON val ERROR_VARIABLE jerr GET "${record}" ${key})
    if(jerr)
      message(FATAL_ERROR "${context}: missing required key '${key}': ${jerr}")
    endif()
  endforeach()

  foreach(key n m seed)
    string(JSON val ERROR_VARIABLE jerr GET "${record}" workload ${key})
    if(jerr)
      message(FATAL_ERROR
        "${context}: missing required workload key '${key}': ${jerr}")
    endif()
  endforeach()

  # The transport aggregation geometry that produced the numbers.
  foreach(key mode dest_shard_bits shard_size)
    string(JSON val ERROR_VARIABLE jerr GET "${record}" aggregation ${key})
    if(jerr)
      message(FATAL_ERROR
        "${context}: missing required aggregation key '${key}': ${jerr}")
    endif()
  endforeach()
  string(JSON bits GET "${record}" aggregation dest_shard_bits)
  string(JSON shard_size GET "${record}" aggregation shard_size)
  math(EXPR expected_size "1 << ${bits}")
  if(NOT shard_size EQUAL expected_size)
    message(FATAL_ERROR
      "${context}: aggregation shard_size=${shard_size} does not match "
      "dest_shard_bits=${bits} (expected ${expected_size})")
  endif()

  string(JSON execution GET "${record}" execution)
  if(NOT execution STREQUAL "sequential" AND NOT execution STREQUAL "parallel")
    message(FATAL_ERROR "${context}: unexpected execution '${execution}'")
  endif()
  string(JSON threads GET "${record}" threads)
  if(threads LESS 1)
    message(FATAL_ERROR "${context}: nonpositive thread count '${threads}'")
  endif()
  string(JSON cpu_cores GET "${record}" cpu_cores)
  if(cpu_cores LESS 1)
    message(FATAL_ERROR "${context}: nonpositive cpu_cores '${cpu_cores}'")
  endif()

  string(JSON rounds GET "${record}" rounds)
  string(JSON messages GET "${record}" messages)
  if(rounds EQUAL 0 OR messages EQUAL 0)
    message(FATAL_ERROR
      "${context}: degenerate record (rounds=${rounds}, messages=${messages})")
  endif()
endfunction()

# The {workload, protocol, execution, threads} identity of a measurement
# record, used for duplicate rejection and baseline matching.
function(ultra_record_key record out_var)
  string(JSON wl_n GET "${record}" workload n)
  string(JSON wl_m GET "${record}" workload m)
  string(JSON wl_seed GET "${record}" workload seed)
  string(JSON threads GET "${record}" threads)
  string(JSON protocol GET "${record}" protocol)
  string(JSON execution GET "${record}" execution)
  set(${out_var}
      "n${wl_n}/m${wl_m}/s${wl_seed}/${protocol}/${execution}/t${threads}"
      PARENT_SCOPE)
endfunction()

if(DEFINED BENCH_BIN)
  execute_process(
    COMMAND ${BENCH_BIN} --json --n 200 --m 600 --repeats 1
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 120)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "bench-smoke: micro_core --json exited with ${rc}\nstderr: ${err}")
  endif()
  string(STRIP "${out}" record)
  message(STATUS "bench-smoke record: ${record}")
  ultra_validate_record("${record}" "bench-smoke")

  # The parallel executor must accept the same workload and stay on the
  # documented record shape (threads reports the resolved worker count).
  execute_process(
    COMMAND ${BENCH_BIN} --json --n 200 --m 600 --repeats 1
            --exec parallel --threads 2
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 120)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "bench-smoke: micro_core --json --exec parallel exited with ${rc}\n"
      "stderr: ${err}")
  endif()
  string(STRIP "${out}" record)
  ultra_validate_record("${record}" "bench-smoke (parallel)")
  string(JSON execution GET "${record}" execution)
  string(JSON threads GET "${record}" threads)
  if(NOT execution STREQUAL "parallel" OR NOT threads EQUAL 2)
    message(FATAL_ERROR
      "bench-smoke: parallel record reports execution=${execution} "
      "threads=${threads}, expected parallel/2")
  endif()

  # Bad input exits 2 without a record. Falling back to a default would
  # measure bfs_flood, the strict audit or the sequential executor under the
  # name that was typed, and reading a missing value as 0 would write a
  # zero-round record.
  foreach(bad_args "--protocol;pingall" "--exec;paralel;--audit;fsat"
                   "--repeats")
    execute_process(
      COMMAND ${BENCH_BIN} --json --n 200 --m 600 ${bad_args}
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      RESULT_VARIABLE rc
      TIMEOUT 120)
    if(NOT rc EQUAL 2 OR NOT out STREQUAL "")
      message(FATAL_ERROR
        "bench-smoke: micro_core --json ${bad_args} exited with ${rc}, "
        "expected 2 and no record\nstdout: ${out}")
    endif()
  endforeach()
  message(STATUS "bench-smoke: OK")
endif()

if(DEFINED BENCH_JSON)
  file(READ "${BENCH_JSON}" doc)
  string(JSON count ERROR_VARIABLE jerr LENGTH "${doc}")
  if(jerr)
    message(FATAL_ERROR "${BENCH_JSON}: not a valid JSON array: ${jerr}")
  endif()
  if(count EQUAL 0)
    message(FATAL_ERROR "${BENCH_JSON}: empty record array")
  endif()

  set(seen "")
  set(notes 0)
  math(EXPR last "${count} - 1")
  foreach(i RANGE 0 ${last})
    string(JSON record GET "${doc}" ${i})
    ultra_validate_record("${record}" "${BENCH_JSON} record ${i}")
    string(JSON schema GET "${record}" schema)
    if(schema STREQUAL "ultra.bench_note.v1")
      math(EXPR notes "${notes} + 1")
      continue()
    endif()
    ultra_record_key("${record}" key)
    if("${key}" IN_LIST seen)
      message(FATAL_ERROR
        "${BENCH_JSON} record ${i}: duplicate {workload, protocol, "
        "execution, threads} tuple ${key} — regeneration appended instead "
        "of rewriting")
    endif()
    list(APPEND seen "${key}")
  endforeach()
  message(STATUS
    "${BENCH_JSON}: OK (${count} records, ${notes} notes, no duplicates)")
endif()

if(DEFINED BENCH_BASELINE)
  if(NOT DEFINED BENCH_JSON)
    message(FATAL_ERROR "check_bench_json: BENCH_BASELINE requires BENCH_JSON")
  endif()
  file(READ "${BENCH_BASELINE}" basedoc)
  string(JSON bcount ERROR_VARIABLE jerr LENGTH "${basedoc}")
  if(jerr)
    # A corrupt baseline must not block regeneration — that is exactly the
    # situation regeneration fixes.
    message(WARNING
      "${BENCH_BASELINE}: unreadable baseline (${jerr}); "
      "skipping the peak-RSS budget check")
  else()
    set(base_keys "")
    set(base_rss "")
    if(bcount GREATER 0)
      math(EXPR blast "${bcount} - 1")
      foreach(i RANGE 0 ${blast})
        string(JSON record GET "${basedoc}" ${i})
        # Only transport records carry the key; older arrays may hold other
        # schemas.
        string(JSON schema ERROR_VARIABLE jerr GET "${record}" schema)
        if(jerr OR NOT schema STREQUAL "ultra.bench_sim.v3")
          continue()
        endif()
        string(JSON rss ERROR_VARIABLE jerr GET "${record}" peak_rss_bytes)
        if(jerr)
          continue()
        endif()
        ultra_record_key("${record}" key)
        list(APPEND base_keys "${key}")
        list(APPEND base_rss "${rss}")
      endforeach()
    endif()

    math(EXPR last "${count} - 1")
    foreach(i RANGE 0 ${last})
      string(JSON record GET "${doc}" ${i})
      string(JSON schema GET "${record}" schema)
      if(schema STREQUAL "ultra.bench_note.v1")
        continue()
      endif()
      ultra_record_key("${record}" key)
      list(FIND base_keys "${key}" idx)
      if(idx EQUAL -1)
        continue()
      endif()
      list(GET base_rss ${idx} old_rss)
      string(JSON new_rss GET "${record}" peak_rss_bytes)
      math(EXPR budget "(${old_rss} * 11) / 10")
      if(new_rss GREATER budget)
        message(WARNING
          "${BENCH_JSON} record ${i} (${key}): peak_rss_bytes ${new_rss} "
          "regressed >10% vs baseline ${old_rss} — memory-diet budget "
          "exceeded")
      endif()
    endforeach()
    message(STATUS "peak-RSS budget vs ${BENCH_BASELINE}: checked")
  endif()
endif()
