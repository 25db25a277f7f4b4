/**
 * Micro-benchmarks (google-benchmark) for the hot simulator structures:
 * remote write queue push/flush, packetization, warp coalescing, and
 * the event queue. These guard the simulation's own performance, not
 * the paper's results.
 *
 * `--json FILE` additionally emits a deterministic packing-metrics
 * document (counts, not wall-clock timings, so the baseline harness can
 * diff it across machines); `--no-timing` skips the google-benchmark
 * timing loops, leaving only that deterministic pass (used by CI).
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "bench_common.hh"
#include "common/event_queue.hh"
#include "common/random.hh"
#include "finepack/packetizer.hh"
#include "finepack/remote_write_queue.hh"
#include "gpu/warp_coalescer.hh"
#include "interconnect/protocol.hh"

using namespace fp;

namespace {

/** Deterministic pseudo-random store stream with tunable locality. */
icn::Store
nextStore(common::Rng &rng, Addr region)
{
    Addr addr = 0x40000000 + rng.below(region);
    std::uint32_t size = 4u << rng.below(3); // 4, 8, 16
    Addr line_end = (addr & ~Addr{127}) + 128;
    if (addr + size > line_end)
        size = static_cast<std::uint32_t>(line_end - addr);
    return icn::Store(addr, size, 0, 1);
}

void
BM_RwqPushDense(benchmark::State &state)
{
    finepack::RwqPartition partition(1, finepack::defaultConfig());
    common::Rng rng(7);
    std::vector<finepack::FlushedPartition> sink;
    for (auto _ : state) {
        sink.clear();
        partition.push(nextStore(rng, 64 * KiB), sink);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RwqPushDense);

void
BM_RwqPushScattered(benchmark::State &state)
{
    finepack::RwqPartition partition(1, finepack::defaultConfig());
    common::Rng rng(7);
    std::vector<finepack::FlushedPartition> sink;
    for (auto _ : state) {
        sink.clear();
        partition.push(nextStore(rng, 3 * GiB), sink);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RwqPushScattered);

void
BM_PacketizeFlush(benchmark::State &state)
{
    finepack::FinePackConfig config = finepack::defaultConfig();
    finepack::Packetizer packetizer(0, config);
    common::Rng rng(11);

    for (auto _ : state) {
        state.PauseTiming();
        finepack::RwqPartition partition(1, config);
        std::vector<finepack::FlushedPartition> sink;
        for (int i = 0; i < 48; ++i)
            partition.push(nextStore(rng, 64 * KiB), sink);
        finepack::FlushedPartition flushed =
            partition.flush(finepack::FlushReason::release);
        state.ResumeTiming();

        if (!flushed.empty()) {
            auto txn = packetizer.packetize(flushed);
            benchmark::DoNotOptimize(txn);
        }
    }
}
BENCHMARK(BM_PacketizeFlush);

void
BM_WarpCoalesceContiguous(benchmark::State &state)
{
    gpu::WarpCoalescer coalescer;
    std::vector<gpu::LaneAccess> lanes, out;
    for (std::uint32_t i = 0; i < 32; ++i)
        lanes.push_back(gpu::LaneAccess{0x1000 + i * 8, 8});
    for (auto _ : state) {
        out.clear();
        coalescer.coalesce(lanes, out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_WarpCoalesceContiguous);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        common::EventQueue queue;
        std::uint64_t count = 0;
        for (int i = 0; i < 1024; ++i)
            queue.schedule([&count]() { ++count; },
                           static_cast<Tick>(i * 10),
                           common::Event::prio_default, "test.event");
        queue.run();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

/**
 * Deterministic packing metrics for the regression baseline: stream
 * 4096 pseudo-random stores with @p region bytes of locality through a
 * partition + packetizer and report packing counts. Unlike the timing
 * loops above these are machine-independent, so fp_bench_compare.py can
 * diff them with zero tolerance.
 */
void
packingMetrics(bench::JsonReporter &reporter, const char *prefix,
               Addr region)
{
    finepack::FinePackConfig config = finepack::defaultConfig();
    finepack::RwqPartition partition(1, config);
    finepack::Packetizer packetizer(0, config);
    icn::PcieProtocol protocol(icn::PcieGen::gen4);
    common::Rng rng(7);

    std::uint64_t packets = 0, payload = 0, data = 0, wire = 0;
    auto emit = [&](const finepack::FlushedPartition &flushed) {
        if (flushed.empty())
            return;
        icn::WireMessagePtr msg = packetizer.toMessage(flushed, protocol);
        ++packets;
        payload += msg->payload_bytes;
        data += msg->data_bytes;
        wire += msg->wireBytes();
    };

    std::vector<finepack::FlushedPartition> sink;
    for (int i = 0; i < 4096; ++i) {
        sink.clear();
        partition.push(nextStore(rng, region), sink);
        for (const auto &flushed : sink)
            emit(flushed);
    }
    sink.clear();
    partition.flush(finepack::FlushReason::release, sink);
    for (const auto &flushed : sink)
        emit(flushed);

    std::string p = std::string(prefix) + ".";
    reporter.add(p + "packets", static_cast<double>(packets));
    reporter.add(p + "stores_per_packet", packetizer.avgStoresPerPacket());
    reporter.add(p + "payload_efficiency",
                 payload ? static_cast<double>(data) /
                               static_cast<double>(payload)
                         : 0.0);
    reporter.add(p + "wire_bytes", static_cast<double>(wire));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter reporter("micro_finepack", argc, argv, 1.0);
    if (reporter.enabled()) {
        packingMetrics(reporter, "dense", 64 * KiB);
        packingMetrics(reporter, "scattered", 3 * GiB);

        gpu::WarpCoalescer coalescer;
        std::vector<gpu::LaneAccess> lanes, out;
        for (std::uint32_t i = 0; i < 32; ++i)
            lanes.push_back(gpu::LaneAccess{0x1000 + i * 8, 8});
        coalescer.coalesce(lanes, out);
        reporter.add("coalesce.contiguous_runs",
                     static_cast<double>(out.size()));

        if (!reporter.write())
            return 1;
    }

    // Strip the reporter's flags before handing argv to google-benchmark.
    bool no_timing = false;
    std::vector<char *> filtered;
    filtered.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            ++i;
        else if (std::strcmp(argv[i], "--no-timing") == 0)
            no_timing = true;
        else
            filtered.push_back(argv[i]);
    }
    if (no_timing)
        return 0;

    int filtered_argc = static_cast<int>(filtered.size());
    benchmark::Initialize(&filtered_argc, filtered.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                               filtered.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
