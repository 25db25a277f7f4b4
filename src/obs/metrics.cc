#include "obs/metrics.hh"

#include <sstream>

#include "check/digest.hh"
#include "common/build_info.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "obs/flow.hh"
#include "obs/profiler.hh"

namespace fp::obs {

void
MetricsCapture::captureNow()
{
    std::ostringstream os;
    common::JsonWriter json(os);
    common::MetricsRegistry::instance().dumpJson(json);
    _groups_json = os.str();
}

const std::string &
MetricsCapture::groupsJson() const
{
    static const std::string empty = "[]";
    return _groups_json.empty() ? empty : _groups_json;
}

std::uint64_t
MetricsCapture::digest(const PeriodicSampler *sampler) const
{
    check::Digest digest;
    digest.update(groupsJson());
    if (sampler) {
        std::ostringstream os;
        common::JsonWriter json(os);
        sampler->dumpJson(json);
        digest.update(os.str());
    }
    return digest.value();
}

void
MetricsCapture::writeDocument(std::ostream &os,
                              const PeriodicSampler *sampler,
                              const Profiler *profiler,
                              const FlowCollector *flows,
                              bool partial) const
{
    // The groups snapshot is already-serialized JSON, so the document
    // frame is spliced by hand around it.
    os << "{\"schema_version\":1,";
    if (partial)
        os << "\"partial\":true,";
    os << "\"provenance\":";
    {
        common::JsonWriter json(os);
        common::dumpBuildInfoJson(json);
    }
    os << ",\"groups\":" << groupsJson() << ",\"timeseries\":";
    {
        common::JsonWriter json(os);
        if (sampler) {
            sampler->dumpJson(json);
        } else {
            json.beginObject();
            json.endObject();
        }
    }
    if (profiler) {
        os << ",\"host\":";
        common::JsonWriter json(os);
        profiler->dumpJson(json);
    }
    if (flows) {
        os << ",\"fabric\":";
        common::JsonWriter json(os);
        flows->dumpJson(json);
    }
    os << "}\n";
}

} // namespace fp::obs
