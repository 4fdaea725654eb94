# Exact symbol backstop for the determinism and check discipline of src/:
# fails if any library built from src/ holds an undefined reference to a
# clock, entropy or environment read, or to assert's failure handler. The
# token checks of tests/ultra_lint_test.cpp cannot see a call spelled
# through a macro, an alias or a function pointer; the symbol table can.
# Invoked by ctest (src_symbol_test):
#   cmake -DNM=<nm> -DLIBS=<lib>|<lib>|... -P tools/check_src_symbols.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT NM OR NOT LIBS)
  message(FATAL_ERROR
    "check_src_symbols: pass -DNM=<nm> and -DLIBS=<lib>|<lib>|...")
endif()
string(REPLACE "|" ";" libs "${LIBS}")

# Demangled names (nm -C): the C functions whole, the C++ members by their
# qualified prefix. high_resolution_clock is an alias, so it is caught as
# the clock it names.
set(banned
  rand srand rand_r random drand48 time clock clock_gettime gettimeofday
  getenv secure_getenv __assert_fail
  "std::chrono::[^\n]*_clock::now\\(\\)"
  "std::random_device::[^\n]*")

set(found "")
foreach(lib IN LISTS libs)
  execute_process(COMMAND "${NM}" -u -C "${lib}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_src_symbols: ${NM} -u -C ${lib} failed: ${err}")
  endif()
  # One undefined symbol per line, after its type letter. The output is
  # matched as one string: demangled names may hold brackets, which a CMake
  # list would not split on.
  set(out "\n${out}\n")
  foreach(symbol IN LISTS banned)
    if(out MATCHES "\n *[Uvw] (${symbol})\n")
      list(APPEND found "${lib}: ${CMAKE_MATCH_1}")
    endif()
  endforeach()
endforeach()

if(found)
  list(JOIN found "\n  " report)
  message(FATAL_ERROR "check_src_symbols: banned symbols referenced from "
                      "src/ (seed a util::Rng, use ULTRA_CHECK*):\n  ${report}")
endif()
list(LENGTH libs count)
message(STATUS "check_src_symbols: OK (${count} libraries)")
