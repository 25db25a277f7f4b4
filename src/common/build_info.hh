/**
 * @file
 * Build provenance: which binary produced a given measurement.
 *
 * Host-side profiling numbers (docs/profiling.md) are only comparable
 * when the build is: wall time depends on commit, compiler, build
 * type, and whether sanitizers or FP_CHECK invariants are compiled in.
 * Every stats/profile JSON document and `fptrace --version` therefore
 * carry this record, so a slow hotspot report can be traced to "that
 * was an ASan Debug build" instead of a phantom regression.
 */

#ifndef FP_COMMON_BUILD_INFO_HH
#define FP_COMMON_BUILD_INFO_HH

#include <string>

namespace fp::common {

class JsonWriter;

/** Configure/compile-time facts about this binary. */
struct BuildInfo
{
    /** Short git SHA at build time ("unknown" outside a checkout). */
    const char *git_sha;
    /** Compiler id and version (e.g. "GNU 13.2.0"). */
    const char *compiler;
    /** CMake build type (e.g. "RelWithDebInfo"). */
    const char *build_type;
    /** FP_SANITIZE value, or "none". */
    const char *sanitizer;
    /** FP_INVARIANT runtime checks compiled in? */
    bool fp_check;
};

/** The facts baked into this binary. */
const BuildInfo &buildInfo();

/** One-line human-readable summary (for --version output). */
std::string buildInfoLine();

/** The `provenance` JSON object shared by stats and profile docs. */
void dumpBuildInfoJson(JsonWriter &json);

} // namespace fp::common

#endif // FP_COMMON_BUILD_INFO_HH
