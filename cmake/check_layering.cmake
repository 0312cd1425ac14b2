# Fails when a source file under src/<layer>/ includes a header of a higher
# layer. Layers, lowest first (includes within one rank are allowed):
#
#   bigint < paillier < {stats, tensor, nn} < core < {data, fl} < net < sim
#
# The only headers a lower layer may include from above are the runtime
# leaves core/parallel.hpp, core/cpu.hpp and core/telemetry.hpp.
#
#   cmake -DSRC_DIR=<repo>/src -P cmake/check_layering.cmake

cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED SRC_DIR)
  message(FATAL_ERROR "check_layering: pass -DSRC_DIR=<repo>/src")
endif()

set(rank_bigint 0)
set(rank_paillier 1)
set(rank_stats 2)
set(rank_tensor 2)
set(rank_nn 2)
set(rank_core 3)
set(rank_data 4)
set(rank_fl 4)
set(rank_net 5)
set(rank_sim 6)
set(allowed_upward core/parallel.hpp core/cpu.hpp core/telemetry.hpp)

file(GLOB_RECURSE sources "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp")
if(NOT sources)
  message(FATAL_ERROR "check_layering: no sources under ${SRC_DIR}")
endif()

set(violations "")
foreach(src IN LISTS sources)
  file(RELATIVE_PATH rel "${SRC_DIR}" "${src}")
  string(REGEX MATCH "^[a-z_]+" layer "${rel}")
  if(NOT DEFINED rank_${layer})
    string(APPEND violations "  ${rel}: directory ${layer}/ has no layer rank\n")
    continue()
  endif()
  file(STRINGS "${src}" includes REGEX "^[ \t]*#[ \t]*include[ \t]*\"[a-z_]+/")
  foreach(line IN LISTS includes)
    string(REGEX MATCH "\"(([a-z_]+)/[^\"]+)\"" _ "${line}")
    set(header "${CMAKE_MATCH_1}")
    set(target "${CMAKE_MATCH_2}")
    if(NOT DEFINED rank_${target})
      string(APPEND violations "  ${rel}: includes ${header} from an unranked directory\n")
    elseif(rank_${target} GREATER rank_${layer} AND NOT header IN_LIST allowed_upward)
      string(APPEND violations "  ${rel}: ${layer}/ includes ${header} from a higher layer\n")
    endif()
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR "layering violations:\n${violations}")
endif()
list(LENGTH sources count)
message(STATUS "layering: ${count} files, no upward includes")
