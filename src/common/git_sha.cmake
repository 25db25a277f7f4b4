# Writes OUTPUT, a one-line header naming the commit checked out at
# SOURCE_DIR, when the file is missing or names another commit. The
# fp_git_sha target runs this on every build, so a build names the
# commit it compiled, and a build with no change recompiles nothing.
execute_process(COMMAND git rev-parse --short=12 HEAD
                WORKING_DIRECTORY ${SOURCE_DIR}
                OUTPUT_VARIABLE sha
                OUTPUT_STRIP_TRAILING_WHITESPACE
                ERROR_QUIET)
if(NOT sha)
    set(sha "unknown")
endif()
set(line "#define FP_BUILD_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
    file(READ ${OUTPUT} old)
endif()
if(NOT old STREQUAL line)
    file(WRITE ${OUTPUT} "${line}")
endif()
