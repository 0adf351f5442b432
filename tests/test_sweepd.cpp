/**
 * @file
 * Tests for the pri_sweepd sweep daemon stack: the shared PRIJ3 /
 * PRIP3 codec (field lists and paramsHash values pinned, journal
 * interop), the on-disk
 * content-addressed store (round trip, torn-write recovery, version
 * invalidation), and the daemon itself — in-flight dedup across
 * concurrent clients, worker-SIGKILL isolation with byte-identical
 * final results, and client fallback behaviour including the
 * hung-daemon (accepts, never replies) degradation drill.
 *
 * This binary hosts in-process daemons whose worker pool respawns
 * from /proc/self/exe, so main() dispatches to workerMain() before
 * gtest ever runs (which is why it does not link gtest_main).
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "faults/fault_spec.hh"
#include "sim/journal.hh"
#include "sim/result_codec.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"
#include "sweepd/client.hh"
#include "sweepd/daemon.hh"
#include "sweepd/store.hh"
#include "sweepd/worker.hh"

namespace pri::sweepd
{
namespace
{

/** Fresh empty scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "pri_sweepd_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    if (std::system(cmd.c_str()) != 0)
        ADD_FAILURE() << "cannot clear " << dir;
    return dir;
}

/** A small sweep batch that simulates in well under a second. */
std::vector<sim::RunParams>
smallBatch(unsigned n_pregs_steps = 2)
{
    std::vector<sim::RunParams> batch;
    for (const char *bench : {"gzip", "equake"}) {
        for (auto scheme :
             {sim::Scheme::Base, sim::Scheme::PriRefcountCkptcount}) {
            for (unsigned step = 0; step < n_pregs_steps; ++step) {
                sim::RunParams p;
                p.benchmark = bench;
                p.scheme = scheme;
                p.physRegs = 64 + 16 * step;
                p.warmupInsts = 1000;
                p.measureInsts = 4000;
                p.seed = 7;
                batch.push_back(p);
            }
        }
    }
    return batch;
}

void
expectIdentical(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.committedTotal, b.committedTotal);
    EXPECT_EQ(a.goldenChecked, b.goldenChecked);
    EXPECT_EQ(a.avgIntOccupancy, b.avgIntOccupancy);
    EXPECT_EQ(a.avgFpOccupancy, b.avgFpOccupancy);
    EXPECT_EQ(a.lifeAllocToWrite, b.lifeAllocToWrite);
    EXPECT_EQ(a.lifeWriteToLastRead, b.lifeWriteToLastRead);
    EXPECT_EQ(a.lifeLastReadToRelease, b.lifeLastReadToRelease);
    EXPECT_EQ(a.branchMispredictRate, b.branchMispredictRate);
    EXPECT_EQ(a.dl1MissRate, b.dl1MissRate);
    EXPECT_EQ(a.priEarlyFrees, b.priEarlyFrees);
    EXPECT_EQ(a.erEarlyFrees, b.erEarlyFrees);
    EXPECT_EQ(a.inlinedFrac, b.inlinedFrac);
    EXPECT_EQ(a.portStallsPerKInst, b.portStallsPerKInst);
    EXPECT_EQ(a.portInlineBypassFrac, b.portInlineBypassFrac);
    EXPECT_EQ(a.archSig, b.archSig);
    EXPECT_EQ(a.report, b.report);
}

/** Simulate @p batch directly through the in-process runner — the
 *  reference the daemon results must be byte-identical to. */
std::vector<sim::RunResult>
referenceResults(const std::vector<sim::RunParams> &batch)
{
    sim::SimulationRunner runner(2);
    return runner.run(batch);
}

// ---------------------------------------------------------------
// Codec: the audited serializer shared by journal and store.
// ---------------------------------------------------------------

/** The PRIJ3 field list is load-bearing for every on-disk cache: a
 *  RunResult change must land here, in the tag bump, and in the
 *  format/parse pair together. If this test fails you changed one
 *  without the others. */
TEST(ResultCodec, PinsPrij3FieldList)
{
    ASSERT_EQ(sim::codec::kResultFields, 25u);
    const std::vector<std::string> want = {
        "tag", "paramsHash", "benchmark", "scheme", "width",
        "cycles", "insts", "committedTotal", "goldenChecked",
        "ipc", "avgIntOccupancy", "avgFpOccupancy",
        "lifeAllocToWrite", "lifeWriteToLastRead",
        "lifeLastReadToRelease", "branchMispredictRate",
        "dl1MissRate", "priEarlyFrees", "erEarlyFrees",
        "inlinedFrac", "portStallsPerKInst", "portInlineBypassFrac",
        "archSig", "report", "sentinel"};
    ASSERT_EQ(want.size(), sim::codec::kResultFields);
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(sim::codec::kResultFieldNames[i], want[i])
            << "PRIJ3 field " << i;
    EXPECT_STREQ(sim::codec::kResultTag, "PRIJ3");
}

/** Same pin for PRIP3: exactly the paramsHash()-audited fields,
 *  which since the fault framework include the FaultSpec. */
TEST(ResultCodec, PinsPrip3FieldList)
{
    ASSERT_EQ(sim::codec::kParamsFields, 21u);
    const std::vector<std::string> want = {
        "tag", "benchmark", "width", "scheme", "physRegs",
        "warmupInsts", "measureInsts", "seed", "checkGolden",
        "schedSizeOverride", "narrowBitsOverride", "injectFault",
        "injectFreeWithoutInline", "prfReadPorts", "cycleBudget",
        "faultSite", "faultMutation", "faultTrigger",
        "faultTriggerArg", "faultSeed", "sentinel"};
    ASSERT_EQ(want.size(), sim::codec::kParamsFields);
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(sim::codec::kParamsFieldNames[i], want[i])
            << "PRIP3 field " << i;
    EXPECT_STREQ(sim::codec::kParamsTag, "PRIP3");
}

/** paramsHash values are the key of every journal record and store
 *  entry: pinned literals guard that a RunParams change never moves
 *  an existing key unnoticed. */
TEST(ResultCodec, ParamsHashValuesPinned)
{
    EXPECT_EQ(sim::paramsHash(sim::RunParams{}),
              0xfa33f678bcaa17f5ULL);

    sim::RunParams ported;
    ported.benchmark = "gcc";
    ported.width = 8;
    ported.scheme = sim::Scheme::PriRefcountCkptcount;
    ported.prfReadPorts = 2;
    ported.cycleBudget = 2000000;
    EXPECT_EQ(sim::paramsHash(ported), 0x513f3a92cc2881acULL);

    sim::RunParams fault;
    fault.benchmark = "mcf";
    fault.scheme = sim::Scheme::PriIdealLazy;
    fault.faultSpec.site = faults::FaultSite::MapTable;
    fault.faultSpec.mutation = faults::FaultMutation::StaleValue;
    fault.faultSpec.trigger = faults::FaultTrigger::SeededDraw;
    fault.faultSpec.triggerArg = 9000;
    fault.faultSpec.seed = 0xdecafu;
    EXPECT_EQ(sim::paramsHash(fault), 0x84b511eb761aa6c8ULL);
}

/** A params line carries the hash-audited fields bit-exactly: the
 *  daemon re-derives the same key the client computed. */
TEST(ResultCodec, ParamsLineRoundTripsTheHash)
{
    auto batch = smallBatch();
    batch[0].prfReadPorts = 6;
    batch[1].checkGolden = true;
    batch[2].cycleBudget = 123456;
    batch[3].faultSpec.site = faults::FaultSite::MapTable;
    batch[3].faultSpec.mutation = faults::FaultMutation::StaleValue;
    batch[3].faultSpec.trigger = faults::FaultTrigger::SeededDraw;
    batch[3].faultSpec.triggerArg = 9000;
    batch[3].faultSpec.seed = 0xdecafu;
    for (const auto &p : batch) {
        const std::string line = sim::codec::formatParamsLine(p);
        sim::RunParams parsed;
        parsed.timeoutMs = 777; // machine-local: must survive parse
        ASSERT_TRUE(sim::codec::parseParamsLine(line, parsed))
            << line;
        EXPECT_EQ(sim::paramsHash(parsed), sim::paramsHash(p));
        EXPECT_EQ(parsed.timeoutMs, 777u);
    }
    sim::RunParams junk;
    EXPECT_FALSE(sim::codec::parseParamsLine("PRIP3\tgzip", junk));
    EXPECT_FALSE(sim::codec::parseParamsLine("PRIP2\tgzip", junk));
    EXPECT_FALSE(sim::codec::parseParamsLine("", junk));
}

/** A result line written by the codec is readable by the sweep
 *  journal and vice versa — they are the same serializer, so the
 *  daemon store and --journal files can never skew. */
TEST(ResultCodec, JournalInterop)
{
    const auto batch = smallBatch(1);
    const auto results = referenceResults(batch);
    const std::string path =
        scratchDir("interop") + "_journal.tsv";

    // Write the file with the raw codec...
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (size_t i = 0; i < batch.size(); ++i) {
        const auto line = sim::codec::formatResultLine(
            sim::paramsHash(batch[i]), results[i]);
        std::fwrite(line.data(), 1, line.size(), f);
    }
    std::fclose(f);

    // ...and read it back through SweepJournal.
    sim::SweepJournal journal(path);
    EXPECT_EQ(journal.loadedPoints(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        sim::RunResult r;
        ASSERT_TRUE(journal.lookup(sim::paramsHash(batch[i]), r));
        expectIdentical(r, results[i]);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Store: on-disk content-addressed cache.
// ---------------------------------------------------------------

TEST(ResultStore, RoundTripAcrossReopen)
{
    const std::string dir = scratchDir("store_rt");
    const auto batch = smallBatch(1);
    const auto results = referenceResults(batch);

    {
        ResultStore store(dir);
        EXPECT_EQ(store.entries(), 0u);
        for (size_t i = 0; i < batch.size(); ++i)
            store.publish(sim::paramsHash(batch[i]), results[i]);
        EXPECT_EQ(store.entries(), batch.size());
        // Re-publishing an existing key is a no-op.
        store.publish(sim::paramsHash(batch[0]), results[0]);
        EXPECT_EQ(store.entries(), batch.size());
    }

    ResultStore reopened(dir);
    EXPECT_EQ(reopened.loadedEntries(), batch.size());
    EXPECT_FALSE(reopened.invalidatedOnOpen());
    for (size_t i = 0; i < batch.size(); ++i) {
        sim::RunResult r;
        ASSERT_TRUE(
            reopened.lookup(sim::paramsHash(batch[i]), r));
        expectIdentical(r, results[i]);
    }
    sim::RunResult miss;
    EXPECT_FALSE(reopened.lookup(0xdeadbeef, miss));
}

/** Garbage and truncated lines in a bucket file — a torn write from
 *  a killed process or stray editing — cost exactly the damaged
 *  lines; intact records keep being served. */
TEST(ResultStore, TornWriteRecovery)
{
    const std::string dir = scratchDir("store_torn");
    const auto batch = smallBatch(1);
    const auto results = referenceResults(batch);
    std::vector<uint64_t> keys;
    {
        ResultStore store(dir);
        for (size_t i = 0; i < batch.size(); ++i) {
            keys.push_back(sim::paramsHash(batch[i]));
            store.publish(keys.back(), results[i]);
        }
    }

    // Vandalize every bucket: prepend a corrupt line and append a
    // truncated (no sentinel, no newline) fragment.
    unsigned vandalized = 0;
    for (unsigned b = 0; b < 256; ++b) {
        char name[16];
        std::snprintf(name, sizeof(name), "/b%02x.tsv", b);
        const std::string path = dir + name;
        std::FILE *in = std::fopen(path.c_str(), "r");
        if (in == nullptr)
            continue;
        std::string contents;
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
            contents.append(buf, n);
        std::fclose(in);
        std::FILE *out = std::fopen(path.c_str(), "w");
        ASSERT_NE(out, nullptr);
        std::fputs("not\ta\tvalid\tline\n", out);
        std::fwrite(contents.data(), 1, contents.size(), out);
        std::fputs("PRIJ3\t0123", out); // torn mid-key
        std::fclose(out);
        ++vandalized;
    }
    ASSERT_GT(vandalized, 0u);

    ResultStore reopened(dir);
    EXPECT_EQ(reopened.loadedEntries(), batch.size());
    EXPECT_GE(reopened.tornLinesSkipped(), 2 * vandalized);
    for (size_t i = 0; i < batch.size(); ++i) {
        sim::RunResult r;
        ASSERT_TRUE(reopened.lookup(keys[i], r));
        expectIdentical(r, results[i]);
    }
}

/** A version-stamp mismatch (codec field list changed since the
 *  store was written) must drop every record rather than serve one
 *  under a new-format key. */
TEST(ResultStore, VersionStampInvalidation)
{
    const std::string dir = scratchDir("store_ver");
    const auto batch = smallBatch(1);
    const auto results = referenceResults(batch);
    {
        ResultStore store(dir);
        for (size_t i = 0; i < batch.size(); ++i)
            store.publish(sim::paramsHash(batch[i]), results[i]);
    }

    std::FILE *meta = std::fopen((dir + "/meta").c_str(), "w");
    ASSERT_NE(meta, nullptr);
    std::fputs("PRISTORE1 PRIJ1 23\n", meta);
    std::fclose(meta);

    ResultStore reopened(dir);
    EXPECT_TRUE(reopened.invalidatedOnOpen());
    EXPECT_EQ(reopened.loadedEntries(), 0u);
    sim::RunResult r;
    EXPECT_FALSE(
        reopened.lookup(sim::paramsHash(batch[0]), r));

    // And the restamped store works again.
    reopened.publish(sim::paramsHash(batch[0]), results[0]);
    ResultStore again(dir);
    EXPECT_FALSE(again.invalidatedOnOpen());
    EXPECT_EQ(again.loadedEntries(), 1u);
}

// ---------------------------------------------------------------
// Daemon: dedup, crash isolation, cached serving.
// ---------------------------------------------------------------

struct DaemonFixture
{
    explicit DaemonFixture(const std::string &name,
                           unsigned workers = 2,
                           long kill_dispatch = -1)
    {
        const std::string root = scratchDir("daemon_" + name);
        DaemonConfig cfg;
        cfg.socketPath = root + ".sock";
        cfg.storeDir = root;
        cfg.workers = workers;
        cfg.killDispatch = kill_dispatch;
        cfg.verbose = false;
        daemon = std::make_unique<Daemon>(cfg);
        socketPath = cfg.socketPath;
    }

    std::unique_ptr<Daemon> daemon;
    std::string socketPath;
};

/** Two clients submit overlapping grids concurrently; every shared
 *  point must be simulated exactly once (in-flight dedup or store
 *  hit), and both clients get byte-identical, reference-identical
 *  results. */
TEST(SweepDaemon, InFlightDedupAcrossClients)
{
    const auto batch = smallBatch(); // 8 distinct points
    const auto reference = referenceResults(batch);

    // Client A takes the first 6 points, client B the last 6:
    // 4 points overlap.
    const std::vector<sim::RunParams> batchA(batch.begin(),
                                             batch.begin() + 6);
    const std::vector<sim::RunParams> batchB(batch.begin() + 2,
                                             batch.end());

    DaemonFixture fx("dedup", 2);
    ASSERT_TRUE(fx.daemon->start());

    std::vector<PointOutcome> outA, outB;
    std::thread ta([&] {
        auto client = SweepdClient::connect(fx.socketPath);
        ASSERT_NE(client, nullptr);
        outA = client->submit(batchA);
    });
    std::thread tb([&] {
        auto client = SweepdClient::connect(fx.socketPath);
        ASSERT_NE(client, nullptr);
        outB = client->submit(batchB);
    });
    ta.join();
    tb.join();

    ASSERT_EQ(outA.size(), batchA.size());
    ASSERT_EQ(outB.size(), batchB.size());
    for (size_t i = 0; i < outA.size(); ++i) {
        ASSERT_TRUE(outA[i].ok()) << outA[i].error;
        expectIdentical(outA[i].result, reference[i]);
    }
    for (size_t i = 0; i < outB.size(); ++i) {
        ASSERT_TRUE(outB[i].ok()) << outB[i].error;
        expectIdentical(outB[i].result, reference[i + 2]);
    }

    // The dedup invariant: 12 submitted points, 8 unique — nothing
    // was ever simulated twice.
    const auto &st = fx.daemon->stats();
    EXPECT_EQ(st.points.load(), 12u);
    EXPECT_EQ(st.simulated.load(), batch.size());
    EXPECT_EQ(st.inflightHits.load() + st.storeHits.load(), 4u);
    EXPECT_EQ(st.errors.load(), 0u);
    EXPECT_EQ(fx.daemon->store()->entries(), batch.size());

    // A third submit of the full grid is pure cache.
    auto client = SweepdClient::connect(fx.socketPath);
    ASSERT_NE(client, nullptr);
    const auto outC = client->submit(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(outC[i].ok());
        EXPECT_TRUE(outC[i].cached);
        expectIdentical(outC[i].result, reference[i]);
    }
    EXPECT_EQ(st.simulated.load(), batch.size());

    fx.daemon->stop();
}

/** The --inject-fault drill: a worker SIGKILLed mid-point costs one
 *  retry of that point and nothing else — the sweep completes with
 *  results byte-identical to the in-process reference. */
TEST(SweepDaemon, WorkerKillIsolation)
{
    const auto batch = smallBatch(); // 8 points
    const auto reference = referenceResults(batch);

    DaemonFixture fx("kill", 2, /*kill_dispatch=*/1);
    ASSERT_TRUE(fx.daemon->start());

    auto client = SweepdClient::connect(fx.socketPath);
    ASSERT_NE(client, nullptr);
    const auto out = client->submit(batch);

    ASSERT_EQ(out.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(out[i].ok()) << out[i].error;
        expectIdentical(out[i].result, reference[i]);
    }
    const auto &st = fx.daemon->stats();
    EXPECT_EQ(st.workerCrashes.load(), 1u);
    EXPECT_GE(st.retries.load(), 1u);
    EXPECT_EQ(st.simulated.load(), batch.size());
    EXPECT_EQ(st.errors.load(), 0u);

    fx.daemon->stop();
}

/** The store a daemon leaves behind serves a fresh daemon: warm
 *  restarts keep the cache. */
TEST(SweepDaemon, StoreSurvivesDaemonRestart)
{
    const auto batch = smallBatch(1);
    const auto reference = referenceResults(batch);

    DaemonFixture fx("restart", 2);
    ASSERT_TRUE(fx.daemon->start());
    {
        auto client = SweepdClient::connect(fx.socketPath);
        ASSERT_NE(client, nullptr);
        const auto out = client->submit(batch);
        for (const auto &o : out)
            ASSERT_TRUE(o.ok()) << o.error;
    }
    fx.daemon->stop();

    // Same store dir, new daemon: everything is a store hit.
    DaemonConfig cfg;
    cfg.socketPath = fx.socketPath;
    cfg.storeDir = fx.daemon->store()->dir();
    cfg.workers = 1;
    cfg.verbose = false;
    Daemon second(cfg);
    ASSERT_TRUE(second.start());
    auto client = SweepdClient::connect(fx.socketPath);
    ASSERT_NE(client, nullptr);
    const auto out = client->submit(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(out[i].ok()) << out[i].error;
        EXPECT_TRUE(out[i].cached);
        expectIdentical(out[i].result, reference[i]);
    }
    EXPECT_EQ(second.stats().simulated.load(), 0u);
    EXPECT_EQ(second.stats().storeHits.load(), batch.size());
    second.stop();
}

/** A daemon-side failure (unknown benchmark) comes back as a
 *  per-point error; healthy points in the same submit are
 *  unaffected. */
TEST(SweepDaemon, BadPointFailsAloneAndIsNotCached)
{
    auto batch = smallBatch(1);
    batch[1].benchmark = "no-such-benchmark";

    DaemonFixture fx("badpoint", 2);
    ASSERT_TRUE(fx.daemon->start());
    auto client = SweepdClient::connect(fx.socketPath);
    ASSERT_NE(client, nullptr);
    const auto out = client->submit(batch);
    ASSERT_EQ(out.size(), batch.size());
    for (size_t i = 0; i < out.size(); ++i) {
        if (i == 1) {
            EXPECT_FALSE(out[i].ok());
            EXPECT_NE(out[i].error.find("no-such-benchmark"),
                      std::string::npos)
                << out[i].error;
        } else {
            EXPECT_TRUE(out[i].ok()) << out[i].error;
        }
    }
    EXPECT_EQ(fx.daemon->stats().errors.load(), 1u);
    // Failures are never cached: the store holds only successes.
    EXPECT_EQ(fx.daemon->store()->entries(), batch.size() - 1);
    fx.daemon->stop();
}

TEST(SweepdClient, ConnectFailureReturnsNull)
{
    EXPECT_EQ(SweepdClient::connect("/no/such/dir/pri.sock"),
              nullptr);
    EXPECT_EQ(SweepdClient::connect(""), nullptr);
    EXPECT_EQ(
        SweepdClient::connect(std::string(300, 'x')),
        nullptr);
}

/** The hung-daemon drill: a socket that accepts connections but
 *  never replies (the listen backlog completes the handshake; nobody
 *  ever calls accept or writes a frame). The thin client must not
 *  block a sweep forever — it degrades within its handshake timeout
 *  and reports a distinct, actionable per-point error so callers
 *  fall back to in-process simulation. */
TEST(SweepdClient, HungDaemonDegradesWithinTimeout)
{
    const std::string sock = scratchDir("mute") + ".sock";
    std::remove(sock.c_str()); // stale socket from a prior run
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(sock.size(), sizeof(addr.sun_path));
    std::strncpy(addr.sun_path, sock.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 8), 0);

    auto client = SweepdClient::connect(sock, /*timeout_ms=*/200);
    ASSERT_NE(client, nullptr); // connect itself succeeds
    const auto batch = smallBatch(1);

    const auto t0 = std::chrono::steady_clock::now();
    const auto out = client->submit(batch);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);

    // Degraded, not wedged: every point fails with the unresponsive
    // diagnosis, and the wait is bounded by the handshake timeout
    // (generous margin for a loaded CI box), not a simulation.
    ASSERT_EQ(out.size(), batch.size());
    for (const auto &o : out) {
        EXPECT_FALSE(o.ok());
        EXPECT_NE(o.error.find("daemon unresponsive"),
                  std::string::npos)
            << o.error;
    }
    EXPECT_LT(elapsed.count(), 10 * 1000) << "client wedged on a "
                                             "mute daemon";
    ::close(lfd);
}

TEST(SweepDaemon, StatusAndStatsQueries)
{
    DaemonFixture fx("query", 1);
    ASSERT_TRUE(fx.daemon->start());
    auto client = SweepdClient::connect(fx.socketPath);
    ASSERT_NE(client, nullptr);
    const std::string stats = client->query("STATS");
    EXPECT_NE(stats.find("storeHits 0"), std::string::npos) << stats;
    EXPECT_NE(stats.find("workers 1"), std::string::npos) << stats;
    const std::string status = client->query("STATUS");
    EXPECT_NE(status.find("pri_sweepd"), std::string::npos);
    EXPECT_EQ(client->query("NOPE"), "");
    fx.daemon->stop();
}

} // namespace
} // namespace pri::sweepd

/** Custom main: the daemon respawns workers from /proc/self/exe —
 *  this very binary — so worker dispatch must precede gtest. */
int
main(int argc, char **argv)
{
    if (const int rc = pri::sweepd::maybeRunAsWorker(argc, argv);
        rc >= 0)
        return rc;
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
