#include "common/build_info.hh"

#include "common/build_info_gen.hh"
#include "common/build_sha.hh"
#include "common/json.hh"

namespace fp::common {

const BuildInfo &
buildInfo()
{
    static const BuildInfo info = {
        FP_BUILD_GIT_SHA,
        FP_BUILD_COMPILER,
        FP_BUILD_TYPE,
        FP_BUILD_SANITIZER[0] ? FP_BUILD_SANITIZER : "none",
#ifdef FP_CHECK_ENABLED
        true,
#else
        false,
#endif
    };
    return info;
}

std::string
buildInfoLine()
{
    const BuildInfo &info = buildInfo();
    std::string line = "commit ";
    line += info.git_sha;
    line += ", ";
    line += info.compiler;
    line += ", ";
    line += info.build_type;
    line += ", sanitizer=";
    line += info.sanitizer;
    line += ", fp_check=";
    line += info.fp_check ? "on" : "off";
    return line;
}

void
dumpBuildInfoJson(JsonWriter &json)
{
    const BuildInfo &info = buildInfo();
    json.beginObject();
    json.kv("git_sha", info.git_sha);
    json.kv("compiler", info.compiler);
    json.kv("build_type", info.build_type);
    json.kv("sanitizer", info.sanitizer);
    json.kv("fp_check", info.fp_check);
    json.endObject();
}

} // namespace fp::common
