// google-benchmark microbenchmarks of the OMPC event system: event
// round-trip cost (alloc/delete/submit/execute/put) — the per-task constant
// the Fig. 7(a) overhead analysis is made of.
//
// Each benchmark boots its cluster once and runs the timed loop on the head
// rank inside it, so boot and teardown stay outside the measurement. Rates
// come from wall-clock time (UseRealTime): the benchmark's calling thread
// only blocks on events, so its CPU time says nothing about the cost.
#include <benchmark/benchmark.h>

#include <atomic>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/event_system.hpp"
#include "core/runtime.hpp"

namespace {

using namespace ompc;
using namespace ompc::core;

const offload::KernelId kNop =
    offload::KernelRegistry::instance().register_kernel(
        "micro_nop", [](offload::KernelContext&) {});

/// Runs `body(events, workers)` on the head of a cluster of `num_workers`
/// over `net`; `workers[r]` is worker r's event system (index 0 unused).
void with_cluster(
    int num_workers, mpi::NetworkModel net,
    const std::function<void(EventSystem&, std::vector<EventSystem*>&)>&
        body) {
  ClusterOptions opts;
  opts.num_workers = num_workers;
  opts.network = net;
  mpi::UniverseOptions uopts;
  uopts.ranks = opts.ranks();
  uopts.comms = 1 + opts.vci;
  uopts.network = net;
  std::vector<std::atomic<EventSystem*>> live(
      static_cast<std::size_t>(opts.ranks()));
  mpi::Universe universe(uopts);
  universe.run([&](mpi::RankContext& ctx) {
    if (ctx.rank() == 0) {
      EventSystem events(ctx, opts, nullptr, nullptr);
      std::vector<EventSystem*> workers(live.size(), nullptr);
      for (std::size_t r = 1; r < live.size(); ++r) {
        while (live[r].load() == nullptr) std::this_thread::yield();
        workers[r] = live[r].load();
      }
      body(events, workers);
      events.shutdown_cluster();
    } else {
      WorkerMemory memory(&ctx.universe(), ctx.rank());
      omp::TaskRuntime pool(1);
      EventSystem events(ctx, opts, &memory, &pool);
      live[static_cast<std::size_t>(ctx.rank())].store(&events);
      events.wait_until_stopped();
    }
  });
}

offload::TargetPtr alloc_on(EventSystem& es, mpi::Rank w, std::size_t size) {
  const Bytes reply =
      es.run(w, EventKind::Alloc, encode_list<std::uint64_t>({size}));
  return decode_list<offload::TargetPtr>(reply).at(0);
}

/// The header of a one-item RmaPut of `n` bytes from `src` into `dst` on
/// `peer`.
Bytes put_header(offload::TargetPtr src, std::size_t n, mpi::Rank peer,
                 offload::TargetPtr dst) {
  RmaPutHeader h;
  h.peer = peer;
  h.items = {{src, n, dst, 0}};
  return h.serialize();
}

void delete_on(EventSystem& es, mpi::Rank w, offload::TargetPtr p) {
  ArchiveWriter h;
  h.put(DeleteHeader{p});
  es.run(w, EventKind::Delete, h.take());
}

void BM_EventAllocDeleteRoundTrip(benchmark::State& state) {
  with_cluster(1, {}, [&](EventSystem& es, std::vector<EventSystem*>&) {
    for (auto _ : state) delete_on(es, 1, alloc_on(es, 1, 64));
  });
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_EventAllocDeleteRoundTrip)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_EventSubmitRetrieve(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  with_cluster(1, {}, [&](EventSystem& es, std::vector<EventSystem*>&) {
    const auto ptr = alloc_on(es, 1, bytes);
    Bytes host(bytes);
    for (auto _ : state) {
      ArchiveWriter sw;
      sw.put(SubmitHeader{ptr, bytes});
      es.run(1, EventKind::Submit, sw.take(),
             mpi::Payload::borrow(host.data(), bytes));
      es.start_retrieve(1, ptr, host.data(), bytes)->wait();
    }
    delete_on(es, 1, ptr);
  });
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EventSubmitRetrieve)
    ->Arg(4096)
    ->Arg(1 << 20)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void execute_nop_round_trips(benchmark::State& state, mpi::NetworkModel net) {
  with_cluster(1, net, [&](EventSystem& es, std::vector<EventSystem*>&) {
    ExecuteHeader h;
    h.kernel = kNop;
    const Bytes header = h.serialize();
    for (auto _ : state)
      benchmark::DoNotOptimize(es.run(1, EventKind::Execute, header));
  });
  state.SetItemsProcessed(state.iterations());
}

void BM_ExecuteEventNopKernel(benchmark::State& state) {
  execute_nop_round_trips(state, {});
}
BENCHMARK(BM_ExecuteEventNopKernel)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ExecuteEventNopKernelFigureNet(benchmark::State& state) {
  // The same round trip over the figure benches' wire (bench_network(): 20 us,
  // 100 MB/s, 8 VCIs): two wire hops (announce, completion) are 40 us, and
  // the rest is the event layer on a paced network.
  execute_nop_round_trips(state, bench::bench_network());
}
BENCHMARK(BM_ExecuteEventNopKernelFigureNet)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_RmaPutRoundTripSlowLink(benchmark::State& state) {
  // The parked-and-resumed path: worker 1 puts into worker 2 and parks each
  // event until its put's ack lands. Over a 50 us link one round trip is
  // ~4 wire latencies (announce, put, ack, completion); whatever exceeds it
  // is the event layer's wake-up cost. With several puts in flight the two
  // handler threads are shared, so a handler held by a waiting event shows.
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const int in_flight = static_cast<int>(state.range(1));
  const mpi::NetworkModel net{50'000, 0.0, 8};
  std::int64_t parked = 0;
  with_cluster(2, net, [&](EventSystem& es, std::vector<EventSystem*>& w) {
    std::vector<Bytes> headers;
    std::vector<std::pair<offload::TargetPtr, offload::TargetPtr>> blocks;
    for (int i = 0; i < in_flight; ++i) {
      blocks.emplace_back(alloc_on(es, 1, bytes), alloc_on(es, 2, bytes));
      headers.push_back(
          put_header(blocks.back().first, bytes, 2, blocks.back().second));
    }
    std::vector<OriginEventPtr> puts(headers.size());
    const std::int64_t parked_before = w[1]->stats().parked.load();
    for (auto _ : state) {
      for (std::size_t i = 0; i < headers.size(); ++i)
        puts[i] = es.start(1, EventKind::RmaPut, headers[i], {}, 2);
      for (auto& p : puts) benchmark::DoNotOptimize(p->wait());
    }
    parked = w[1]->stats().parked.load() - parked_before;
    for (const auto& [src, dst] : blocks) {
      delete_on(es, 1, src);
      delete_on(es, 2, dst);
    }
  });
  const auto puts = state.iterations() * in_flight;
  state.SetItemsProcessed(puts);
  state.counters["parked_per_put"] = benchmark::Counter(
      static_cast<double>(parked) / static_cast<double>(puts));
}
BENCHMARK(BM_RmaPutRoundTripSlowLink)
    ->ArgNames({"bytes", "in_flight"})
    ->Args({64, 1})
    ->Args({64 << 10, 1})
    ->Args({64, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_EmptyTargetTaskEndToEnd(benchmark::State& state) {
  // Whole-stack per-task cost: record + HEFT + dispatch + events for a
  // dependency chain of nop targets, one wave per iteration.
  const int tasks = 16;
  std::uint64_t cell = 0;
  ClusterOptions opts;
  opts.num_workers = 2;
  opts.network = {};
  launch(opts, [&](Runtime& rt) {
    rt.enter_data(&cell, sizeof cell);
    for (auto _ : state) {
      for (int i = 0; i < tasks; ++i)
        rt.target({omp::inout(&cell)}, kNop, Args().buf(&cell));
      rt.wait_all();
    }
    rt.exit_data(&cell);
  });
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_EmptyTargetTaskEndToEnd)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
