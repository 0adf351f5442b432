/**
 * @file
 * Tests for the parallel experiment runner: results must be
 * bit-identical to direct serial simulate() calls regardless of the
 * worker count, in submission order, across repeated invocations;
 * exceptions from workers must propagate or be captured per-run, a
 * point no machine can run fails alone, and every failure repeats
 * byte for byte, so the runner simulates each point once.
 *
 * Also the result cache: the sweep journal serves completed points,
 * survives torn writes and concurrent lookups beside appends, and
 * the PRIJ3 codec's field list and literal paramsHash() values are
 * pinned, because every existing journal and the bench/perf digests
 * depend on them. The codec must round-trip every double bit-exactly
 * and reject any line it could not have written.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/core.hh"
#include "expect_identical.hh"
#include "faults/fault_spec.hh"
#include "sim/journal.hh"
#include "sim/result_codec.hh"
#include "sim/runner.hh"
#include "sim/sim_instance.hh"
#include "sim/simulation.hh"

namespace pri::sim
{
namespace
{

std::vector<RunParams>
smallBatch()
{
    std::vector<RunParams> batch;
    for (const char *bench : {"gzip", "equake"}) {
        for (auto scheme :
             {Scheme::Base, Scheme::PriRefcountCkptcount}) {
            RunParams p;
            p.benchmark = bench;
            p.scheme = scheme;
            p.warmupInsts = 2000;
            p.measureInsts = 8000;
            p.seed = 7;
            batch.push_back(p);
        }
    }
    return batch;
}

/** Newline-terminated lines in the file at @p path. */
size_t
countLines(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return 0;
    size_t lines = 0;
    for (int c; (c = std::fgetc(f)) != EOF;)
        lines += c == '\n' ? 1 : 0;
    std::fclose(f);
    return lines;
}

TEST(SimulationRunner, DefaultJobsIsAtLeastOne)
{
    EXPECT_GE(defaultJobs(), 1u);
    EXPECT_GE(SimulationRunner().jobs(), 1u);
    EXPECT_EQ(SimulationRunner(3).jobs(), 3u);
}

/** Same RunParams: direct simulate(), jobs=1, and jobs=8 must all
 *  produce bit-identical results, twice in a row. */
TEST(SimulationRunner, DeterministicAcrossWorkerCounts)
{
    const auto batch = smallBatch();

    std::vector<RunResult> reference;
    for (const auto &p : batch)
        reference.push_back(simulate(p));

    for (int repeat = 0; repeat < 2; ++repeat) {
        const auto serial = SimulationRunner(1).run(batch);
        const auto parallel = SimulationRunner(8).run(batch);
        ASSERT_EQ(serial.size(), batch.size());
        ASSERT_EQ(parallel.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            expectIdentical(serial[i], reference[i]);
            expectIdentical(parallel[i], reference[i]);
        }
    }
}

/** Results come back in submission order, not completion order. */
TEST(SimulationRunner, ResultsInSubmissionOrder)
{
    auto batch = smallBatch();
    const auto results = SimulationRunner(4).run(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(results[i].benchmark, batch[i].benchmark);
        EXPECT_EQ(results[i].scheme,
                  schemeName(batch[i].scheme));
    }
}

TEST(SimulationRunner, ForEachCoversAllIndicesOnce)
{
    for (unsigned jobs : {1u, 4u}) {
        std::vector<int> hits(100, 0);
        SimulationRunner(jobs).forEach(
            hits.size(), [&](size_t i) { ++hits[i]; });
        for (int h : hits)
            EXPECT_EQ(h, 1);
    }
}

TEST(SimulationRunner, ForEachPropagatesExceptions)
{
    for (unsigned jobs : {1u, 4u}) {
        EXPECT_THROW(
            SimulationRunner(jobs).forEach(8,
                                           [&](size_t i) {
                                               if (i == 5)
                                                   throw std::
                                                       runtime_error(
                                                           "boom");
                                           }),
            std::runtime_error);
    }
}

TEST(SimulationRunner, RunCapturedReportsPerRunErrors)
{
    auto batch = smallBatch();
    batch[1].benchmark = "no-such-benchmark";

    const auto outcomes = SimulationRunner(4).runCaptured(batch);
    ASSERT_EQ(outcomes.size(), batch.size());
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_FALSE(outcomes[1].ok());
    EXPECT_FALSE(outcomes[1].error.empty());
    EXPECT_TRUE(outcomes[2].ok());
    EXPECT_TRUE(outcomes[3].ok());

    // Successful runs are unaffected by the failing sibling.
    expectIdentical(outcomes[0].result, simulate(batch[0]));
}

/** Captured errors lead with the run index and a params summary. */
TEST(SimulationRunner, CapturedErrorsNameTheRun)
{
    auto batch = smallBatch();
    batch[2].benchmark = "no-such-benchmark";

    const auto outcomes = SimulationRunner(2).runCaptured(batch);
    ASSERT_FALSE(outcomes[2].ok());
    EXPECT_EQ(outcomes[2].error.find("run 2 (no-such-benchmark / "),
              0u);

    const auto table = SimulationRunner::describeFailures(outcomes);
    EXPECT_NE(table.find("1 of 4 runs failed"), std::string::npos);
    EXPECT_NE(table.find("run 2"), std::string::npos);
}

/**
 * A run that wedges mid-batch is captured as a stall — flight
 * recorder and all — while every sibling completes bit-identically
 * to a fault-free batch.
 */
TEST(SimulationRunner, StalledRunDoesNotPoisonSiblings)
{
    auto batch = smallBatch();
    batch[1].injectFault = core::InjectedFault::WedgeScheduler;
    batch[1].watchdogCycles = 30000;
    batch[1].measureInsts = 50000;

    const auto outcomes = SimulationRunner(4).runCaptured(batch);
    ASSERT_EQ(outcomes.size(), batch.size());
    ASSERT_FALSE(outcomes[1].ok());
    EXPECT_TRUE(outcomes[1].stalled);
    EXPECT_EQ(outcomes[1].error.find("run 1 ("), 0u);
    EXPECT_NE(outcomes[1].error.find("forward-progress watchdog"),
              std::string::npos);
    EXPECT_NE(outcomes[1].error.find("flight recorder"),
              std::string::npos);

    for (size_t i : {size_t{0}, size_t{2}, size_t{3}}) {
        ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
        EXPECT_FALSE(outcomes[i].stalled);
        expectIdentical(outcomes[i].result, simulate(batch[i]));
    }
}

/** A panic (golden divergence) is captured per-run, not process-
 *  fatal, and carries the flight-recorder trace. */
TEST(SimulationRunner, PanicIsCapturedPerRun)
{
    auto batch = smallBatch();
    batch[0].checkGolden = true;
    batch[0].injectFault = core::InjectedFault::CommitWrongPath;

    const auto outcomes = SimulationRunner(2).runCaptured(batch);
    ASSERT_FALSE(outcomes[0].ok());
    EXPECT_FALSE(outcomes[0].stalled);
    EXPECT_NE(outcomes[0].error.find("panic"), std::string::npos);
    EXPECT_NE(outcomes[0].error.find("flight recorder"),
              std::string::npos);
    for (size_t i = 1; i < outcomes.size(); ++i)
        EXPECT_TRUE(outcomes[i].ok()) << outcomes[i].error;
}

/** Each parameter no machine can run is a std::invalid_argument at
 *  construction, never an abort or a silently different machine;
 *  the boundary values next to each build. */
TEST(SimulationRunner, InvalidParamsThrow)
{
    const std::vector<std::pair<const char *, void (*)(RunParams &)>>
        bad = {
            {"width 5", [](RunParams &p) { p.width = 5; }},
            {"width 0", [](RunParams &p) { p.width = 0; }},
            {"width 16", [](RunParams &p) { p.width = 16; }},
            {"physRegs 10", [](RunParams &p) { p.physRegs = 10; }},
            {"physRegs 32", [](RunParams &p) { p.physRegs = 32; }},
            {"physRegs 36",
             [](RunParams &p) {
                 p.scheme = Scheme::VirtualPhysical;
                 p.physRegs = 36;
             }},
            {"prfReadPorts 1", [](RunParams &p) { p.prfReadPorts = 1; }},
            {"measureInsts 0", [](RunParams &p) { p.measureInsts = 0; }},
        };
    for (const auto &[what, mutate] : bad) {
        RunParams p;
        mutate(p);
        try {
            SimInstance inst(p);
            ADD_FAILURE() << what << " built a machine";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(what),
                      std::string::npos)
                << e.what();
        }
        EXPECT_THROW(simulate(p), std::invalid_argument) << what;
    }

    const std::vector<void (*)(RunParams &)> edge = {
        [](RunParams &p) { p.width = 8; },
        [](RunParams &p) { p.physRegs = 33; },
        [](RunParams &p) {
            p.scheme = Scheme::VirtualPhysicalPlusPri;
            p.physRegs = 37;
        },
        // InfPR ignores physRegs.
        [](RunParams &p) {
            p.scheme = Scheme::InfinitePregs;
            p.physRegs = 0;
        },
        [](RunParams &p) { p.prfReadPorts = 2; },
        [](RunParams &p) { p.measureInsts = 1; },
    };
    for (const auto mutate : edge) {
        RunParams p;
        mutate(p);
        EXPECT_NO_THROW(SimInstance{p}) << paramsSummary(p);
    }
}

/** A bad point in a batch fails alone; its siblings still run. */
TEST(SimulationRunner, InvalidPointFailsOnlyItself)
{
    auto batch = smallBatch();
    batch[2].width = 5;

    const auto outcomes = SimulationRunner(4).runCaptured(batch);
    ASSERT_FALSE(outcomes[2].ok());
    EXPECT_FALSE(outcomes[2].stalled);
    EXPECT_EQ(outcomes[2].error.find("run 2 (equake / Base / w5 / "),
              0u);
    EXPECT_NE(outcomes[2].error.find("width 5 (must be 4 or 8)"),
              std::string::npos);
    for (size_t i : {size_t{0}, size_t{1}, size_t{3}}) {
        ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
        expectIdentical(outcomes[i].result, simulate(batch[i]));
    }
}

/** The premise that makes a retry pointless: the simulator is
 *  deterministic, so a golden panic, a watchdog stall and an invalid
 *  point fail again with the same error text, flight-recorder dump
 *  included, and a healthy point beside them succeeds again with the
 *  same result. */
TEST(SimulationRunner, FailuresRepeatExactly)
{
    auto batch = smallBatch();
    batch[0].checkGolden = true;
    batch[0].injectFault = core::InjectedFault::CommitWrongPath;
    batch[1].injectFault = core::InjectedFault::WedgeScheduler;
    batch[1].watchdogCycles = 30000;
    batch[1].measureInsts = 50000;
    batch[2].width = 5;

    const SimulationRunner runner(2);
    const auto first = runner.runCaptured(batch);
    const auto again = runner.runCaptured(batch);
    ASSERT_EQ(first.size(), batch.size());
    ASSERT_EQ(again.size(), batch.size());
    EXPECT_NE(first[0].error.find("panic"), std::string::npos);
    EXPECT_TRUE(first[1].stalled);
    EXPECT_FALSE(first[2].ok());
    ASSERT_TRUE(first[3].ok()) << first[3].error;
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(first[i].error, again[i].error) << "point " << i;
        EXPECT_EQ(first[i].stalled, again[i].stalled) << "point " << i;
    }
    expectIdentical(first[3].result, again[3].result);
}

/** Journal round-trip: a second runner over the same batch serves
 *  every point from the journal, bit-identically. */
TEST(SimulationRunner, JournalServesCompletedPoints)
{
    const std::string path =
        testing::TempDir() + "pri_test_journal_roundtrip";
    std::remove(path.c_str());
    const auto batch = smallBatch();

    {
        SweepJournal journal(path);
        EXPECT_EQ(journal.loadedPoints(), 0u);
        SimulationRunner runner(4);
        runner.setJournal(&journal);
        const auto fresh = runner.runCaptured(batch);
        for (const auto &o : fresh) {
            ASSERT_TRUE(o.ok()) << o.error;
            EXPECT_FALSE(o.fromJournal);
        }
        EXPECT_EQ(journal.appendedPoints(), batch.size());
    }

    SweepJournal reloaded(path);
    EXPECT_EQ(reloaded.loadedPoints(), batch.size());
    SimulationRunner runner(4);
    runner.setJournal(&reloaded);
    const auto cached = runner.runCaptured(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(cached[i].ok()) << cached[i].error;
        EXPECT_TRUE(cached[i].fromJournal);
        expectIdentical(cached[i].result, simulate(batch[i]));
    }
    std::remove(path.c_str());
}

/** A journal whose writer died mid-line loads every complete entry
 *  and skips the torn tail, so only that point reruns — and the
 *  resumed run's first append starts a fresh line instead of
 *  landing on the fragment. */
TEST(SimulationRunner, JournalSkipsTornLines)
{
    const std::string path =
        testing::TempDir() + "pri_test_journal_torn";
    std::remove(path.c_str());
    const auto batch = smallBatch();

    {
        SweepJournal journal(path);
        SimulationRunner runner(1);
        runner.setJournal(&journal);
        runner.run(batch);
    }

    // Simulate a SIGKILL mid-append: truncated final line, plus some
    // unrelated garbage the parser must also reject.
    {
        std::FILE *f = std::fopen(path.c_str(), "a");
        ASSERT_NE(f, nullptr);
        std::fprintf(f, "garbage line\n");
        std::fprintf(f, "PRIJ1\tdeadbeef\ttorn-mid-li");
        std::fclose(f);
    }

    RunParams resumed = batch[0];
    resumed.seed += 1;
    RunResult out;
    {
        SweepJournal reloaded(path);
        EXPECT_EQ(reloaded.loadedPoints(), batch.size());
        EXPECT_TRUE(reloaded.lookup(paramsHash(batch[0]), out));
        EXPECT_EQ(out.report, simulate(batch[0]).report);
        reloaded.record(paramsHash(resumed), out);
    }

    SweepJournal again(path);
    EXPECT_EQ(again.loadedPoints(), batch.size() + 1);
    RunResult back;
    ASSERT_TRUE(again.lookup(paramsHash(resumed), back));
    expectIdentical(back, out);
    std::remove(path.c_str());
}

/** Hits and fresh runs in one batch: the calling thread serves the
 *  hits, worker threads append the rest, and a reader thread keeps
 *  looking every point up meanwhile, so appends that grow the store
 *  race real lookups. Every result matches a direct simulate(), and
 *  a reload then holds each point exactly once. */
TEST(SimulationRunner, JournalMixedHitsAndRecords)
{
    const std::string path =
        testing::TempDir() + "pri_test_journal_mixed";
    std::remove(path.c_str());
    const auto batch = smallBatch();
    std::vector<RunResult> reference;
    for (const auto &p : batch)
        reference.push_back(simulate(p));

    {
        SweepJournal journal(path);
        for (size_t i = 0; i < batch.size(); i += 2)
            journal.record(paramsHash(batch[i]), reference[i]);
    }

    {
        SweepJournal journal(path);
        EXPECT_EQ(journal.loadedPoints(), (batch.size() + 1) / 2);
        SimulationRunner runner(4);
        runner.setJournal(&journal);
        std::atomic<bool> done{false};
        std::thread reader([&] {
            while (!done.load()) {
                for (size_t i = 0; i < batch.size(); ++i) {
                    RunResult r;
                    if (journal.lookup(paramsHash(batch[i]), r)) {
                        EXPECT_EQ(r.report, reference[i].report) << i;
                    }
                }
            }
        });
        const auto outcomes = runner.runCaptured(batch);
        done = true;
        reader.join();
        ASSERT_EQ(outcomes.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
            EXPECT_EQ(outcomes[i].fromJournal, i % 2 == 0) << i;
            expectIdentical(outcomes[i].result, reference[i]);
        }
        EXPECT_EQ(journal.appendedPoints(), batch.size() / 2);
        // Recorded points are served from the same store as loaded
        // ones.
        for (size_t i = 0; i < batch.size(); ++i) {
            RunResult r;
            ASSERT_TRUE(journal.lookup(paramsHash(batch[i]), r)) << i;
            expectIdentical(r, reference[i]);
        }
    }

    SweepJournal reloaded(path);
    EXPECT_EQ(reloaded.loadedPoints(), batch.size());
    EXPECT_EQ(countLines(path), batch.size());
    std::remove(path.c_str());
}

/** A key journaled twice (two writers that should not have shared
 *  the file) is served from its first line and counted once. */
TEST(SimulationRunner, JournalFirstLineWins)
{
    const std::string path =
        testing::TempDir() + "pri_test_journal_duplicate";
    const auto batch = smallBatch();
    RunResult first = simulate(batch[0]);
    RunResult second = first;
    second.ipc += 1.0;
    second.report = "the later line";

    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    const uint64_t key = paramsHash(batch[0]);
    for (const RunResult *r : {&first, &second}) {
        const auto line = codec::formatResultLine(key, *r);
        std::fwrite(line.data(), 1, line.size(), f);
    }
    std::fclose(f);

    {
        SweepJournal journal(path);
        EXPECT_EQ(journal.loadedPoints(), 1u);
        RunResult r;
        ASSERT_TRUE(journal.lookup(key, r));
        expectIdentical(r, first);
        // Recording the key again appends nothing.
        journal.record(key, second);
        EXPECT_EQ(journal.appendedPoints(), 0u);
    }
    EXPECT_EQ(countLines(path), 2u);
    std::remove(path.c_str());
}

/** The journal key ignores watchdog/timeout knobs and the
 *  observation-only settings (invariant checks, audit cadence) but
 *  distinguishes everything that changes the persisted result
 *  record. */
TEST(SimulationRunner, ParamsHashSeparatesResultsOnly)
{
    RunParams a;
    RunParams b = a;
    b.watchdog = false;
    b.watchdogCycles = 777;
    b.timeoutMs = 123;
    b.checkInvariants = true;
    b.goldenAuditInterval = 16;
    EXPECT_EQ(paramsHash(a), paramsHash(b));

    for (auto mutate : std::vector<void (*)(RunParams &)>{
             [](RunParams &p) { p.benchmark = "mcf"; },
             [](RunParams &p) { p.seed += 1; },
             [](RunParams &p) { p.physRegs = 128; },
             [](RunParams &p) { p.scheme = Scheme::PriPlusEr; },
             [](RunParams &p) { p.measureInsts += 1; },
             [](RunParams &p) { p.cycleBudget = 5; },
             [](RunParams &p) { p.prfReadPorts = 4; },
             [](RunParams &p) { p.checkGolden = true; },
             [](RunParams &p) {
                 p.injectFault =
                     core::InjectedFault::WedgeScheduler;
             }}) {
        RunParams c;
        mutate(c);
        EXPECT_NE(paramsHash(a), paramsHash(c));
    }
}

// ---------------------------------------------------------------
// Codec: the audited PRIJ3 serializer behind the sweep journal.
// ---------------------------------------------------------------

/** The PRIJ3 field list is load-bearing for every on-disk cache: a
 *  change to sim::kResultCounts or sim::kResultRates must land here
 *  and in the tag bump together. If this test fails you changed one
 *  without the others. */
TEST(ResultCodec, PinsPrij3FieldList)
{
    std::vector<std::string> line = {"tag", "paramsHash", "benchmark",
                                     "scheme", "width"};
    for (const auto &field : kResultCounts)
        line.push_back(field.name);
    for (const auto &field : kResultRates)
        line.push_back(field.name);
    line.insert(line.end(), {"archSig", "report", "sentinel"});
    ASSERT_EQ(line.size(), codec::kResultFields);

    const std::vector<std::string> want = {
        "tag", "paramsHash", "benchmark", "scheme", "width",
        "cycles", "insts", "committedTotal", "goldenChecked",
        "ipc", "avgIntOccupancy", "avgFpOccupancy",
        "lifeAllocToWrite", "lifeWriteToLastRead",
        "lifeLastReadToRelease", "branchMispredictRate",
        "dl1MissRate", "priEarlyFrees", "erEarlyFrees",
        "inlinedFrac", "portStallsPerKInst", "portInlineBypassFrac",
        "archSig", "report", "sentinel"};
    EXPECT_EQ(line, want);
    EXPECT_STREQ(codec::kResultTag, "PRIJ3");
}

/** paramsHash values are the key of every journal record: pinned
 *  literals guard that a RunParams change never moves an existing
 *  key unnoticed. */
TEST(ResultCodec, ParamsHashValuesPinned)
{
    EXPECT_EQ(paramsHash(RunParams{}), 0xfa33f678bcaa17f5ULL);

    RunParams ported;
    ported.benchmark = "gcc";
    ported.width = 8;
    ported.scheme = Scheme::PriRefcountCkptcount;
    ported.prfReadPorts = 2;
    ported.cycleBudget = 2000000;
    EXPECT_EQ(paramsHash(ported), 0x513f3a92cc2881acULL);

    RunParams fault;
    fault.benchmark = "mcf";
    fault.scheme = Scheme::PriIdealLazy;
    fault.faultSpec.site = faults::FaultSite::MapTable;
    fault.faultSpec.mutation = faults::FaultMutation::StaleValue;
    fault.faultSpec.trigger = faults::FaultTrigger::SeededDraw;
    fault.faultSpec.triggerArg = 9000;
    fault.faultSpec.seed = 0xdecafu;
    EXPECT_EQ(paramsHash(fault), 0x84b511eb761aa6c8ULL);
}

/** Every double class survives format -> parse with its bits: signed
 *  zero, subnormals, the extremes, infinities and an inexact
 *  fraction. %a keeps no NaN payload, so a NaN must come back a NaN
 *  that formats to the same line. */
TEST(ResultCodec, DoublesRoundTripBitExact)
{
    using limits = std::numeric_limits<double>;
    const double values[] = {
        -0.0,          limits::denorm_min(), DBL_MIN,
        DBL_MAX,       limits::infinity(),   -limits::infinity(),
        1.0 / 3.0,     limits::quiet_NaN(),  -limits::quiet_NaN(),
    };
    RunResult r;
    r.benchmark = "gzip";
    r.scheme = "Base";
    for (const double v : values) {
        for (const auto &field : kResultRates)
            r.*field.member = v;
        const std::string line = codec::formatResultLine(42, r);
        uint64_t key = 0;
        RunResult back;
        ASSERT_TRUE(codec::parseResultLine(line, key, back)) << line;
        EXPECT_EQ(key, 42u);
        for (const auto &field : kResultRates) {
            if (std::isnan(v)) {
                EXPECT_TRUE(std::isnan(back.*field.member)) << line;
            } else {
                EXPECT_EQ(std::bit_cast<uint64_t>(back.*field.member),
                          std::bit_cast<uint64_t>(v))
                    << line;
            }
        }
        EXPECT_EQ(codec::formatResultLine(key, back), line);
    }
}

/** Tab-split @p line (its newline dropped) into raw fields. */
std::vector<std::string>
splitLine(const std::string &line)
{
    std::vector<std::string> fields;
    size_t start = 0;
    const size_t end = line.size() - 1;
    while (true) {
        const size_t tab = line.find('\t', start);
        if (tab == std::string::npos || tab > end) {
            fields.push_back(line.substr(start, end - start));
            return fields;
        }
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

/** splitLine's inverse: tab-join @p fields and end the line. */
std::string
joinLine(const std::vector<std::string> &fields)
{
    std::string line = fields.front();
    for (size_t i = 1; i < fields.size(); ++i)
        line += '\t' + fields[i];
    return line + '\n';
}

/** A corrupted line must be a miss, never a wrong hit: the parser
 *  accepts only the digit forms formatResultLine writes, and the
 *  journal skips every such line when it opens. */
TEST(ResultCodec, RejectsMalformedLines)
{
    RunResult r;
    r.benchmark = "gzip";
    r.scheme = "Base";
    r.width = 4;
    r.cycles = 12345;
    r.insts = 8000;
    r.ipc = 0.65;
    r.report = "a\tb\nc\\d";
    const uint64_t key = 0x0123456789abcdefULL;
    const std::string good = codec::formatResultLine(key, r);
    uint64_t k = 0;
    RunResult out;
    ASSERT_TRUE(codec::parseResultLine(good, k, out));
    EXPECT_EQ(k, key);
    expectIdentical(out, r);

    const auto fields = splitLine(good);
    ASSERT_EQ(fields.size(), codec::kResultFields);
    ASSERT_EQ(joinLine(fields), good);
    const auto with = [&](size_t i, const std::string &v) {
        auto f = fields;
        f[i] = v;
        return joinLine(f);
    };
    auto short24 = fields;
    short24.erase(short24.begin() + 9);
    auto long26 = fields;
    long26.insert(long26.begin() + 9, fields[9]);

    const std::vector<std::pair<const char *, std::string>> bad = {
        {"negative width", with(4, "-4")},
        {"width over 32 bits", with(4, "4294967300")},
        {"plus sign", with(4, "+4")},
        {"leading space", with(4, " 4")},
        {"leading zero", with(4, "04")},
        {"negative key", with(1, "-1")},
        {"0x-prefixed key", with(1, "0x" + fields[1])},
        {"uppercase key", with(1, "0123456789ABCDEF")},
        {"overflowing cycles", with(5, "18446744073709551616")},
        {"decimal double", with(9, "0.65")},
        {"plus-signed double", with(9, "+" + fields[9])},
        {"sign after 0x", with(9, "0x-1p+0")},
        {"junk after a double", with(9, fields[9] + "junk")},
        {"wrong tag", with(0, "PRIJ2")},
        {"missing sentinel", with(24, "")},
        {"24 fields", joinLine(short24)},
        {"26 fields", joinLine(long26)},
    };
    for (const auto &[what, line] : bad)
        EXPECT_FALSE(codec::parseResultLine(line, k, out)) << what;

    // The journal validates at open with the same rules.
    const std::string path =
        testing::TempDir() + "pri_test_journal_malformed";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (const auto &[what, line] : bad)
        std::fwrite(line.data(), 1, line.size(), f);
    std::fclose(f);
    {
        SweepJournal journal(path);
        EXPECT_EQ(journal.loadedPoints(), 0u);
        EXPECT_FALSE(journal.lookup(key, out));
    }
    std::remove(path.c_str());
}

/** A file written line by line with the raw codec loads through
 *  SweepJournal with every PRIJ3 field bit-identical. */
TEST(ResultCodec, JournalInterop)
{
    const auto batch = smallBatch();
    const auto results = SimulationRunner(2).run(batch);
    const std::string path =
        testing::TempDir() + "pri_test_journal_interop";

    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (size_t i = 0; i < batch.size(); ++i) {
        const auto line = codec::formatResultLine(
            paramsHash(batch[i]), results[i]);
        std::fwrite(line.data(), 1, line.size(), f);
    }
    std::fclose(f);

    SweepJournal journal(path);
    EXPECT_EQ(journal.loadedPoints(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        RunResult r;
        ASSERT_TRUE(journal.lookup(paramsHash(batch[i]), r));
        expectIdentical(r, results[i]);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace pri::sim
