/** @file Unit tests for the simulated KGSL device file. */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "gpu/model.h"
#include "gpu/render_engine.h"
#include "kgsl/device.h"
#include "kgsl/fault_injector.h"
#include "kgsl/msm_kgsl.h"
#include "util/event_queue.h"
#include "util/rng.h"

namespace gpusc::kgsl {
namespace {

using namespace gpusc::sim_literals;

class KgslDeviceTest : public ::testing::Test
{
  protected:
    gfx::FrameScene
    quad()
    {
        gfx::FrameScene s;
        s.damage = gfx::Rect::ofSize(0, 0, 64, 64);
        s.add(s.damage, true, gfx::PrimTag::Background);
        return s;
    }

    int
    openReserved(const ProcessContext &proc = {100, "untrusted_app"})
    {
        const int fd = dev_.open(proc);
        EXPECT_GE(fd, 0);
        kgsl_perfcounter_get get;
        get.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
        get.countable = 18; // VISIBLE_PIXEL
        EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get), 0);
        return fd;
    }

    std::uint64_t
    readPixel(int fd)
    {
        kgsl_perfcounter_read_group entry;
        entry.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
        entry.countable = 18;
        kgsl_perfcounter_read req;
        req.reads = &entry;
        req.count = 1;
        EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &req), 0);
        return entry.value;
    }

    EventQueue eq_;
    gpu::RenderEngine engine_{eq_, gpu::adrenoModel(650), 1};
    StockPolicy stock_;
    KgslDevice dev_{engine_, stock_};
};

TEST_F(KgslDeviceTest, DevicePathMatchesPaper)
{
    EXPECT_STREQ(KgslDevice::path(), "/dev/kgsl-3d0");
}

TEST_F(KgslDeviceTest, OpenCloseLifecycle)
{
    const int fd = dev_.open({100, "untrusted_app"});
    EXPECT_GE(fd, 3);
    EXPECT_EQ(dev_.close(fd), 0);
    EXPECT_EQ(dev_.close(fd), -KGSL_EBADF);
}

TEST_F(KgslDeviceTest, IoctlOnBadFd)
{
    kgsl_perfcounter_get get;
    EXPECT_EQ(dev_.ioctl(999, IOCTL_KGSL_PERFCOUNTER_GET, &get),
              -KGSL_EBADF);
}

TEST_F(KgslDeviceTest, GetUnknownCounterIsEinval)
{
    const int fd = dev_.open({100, "untrusted_app"});
    kgsl_perfcounter_get get;
    get.groupid = 0x55; // no such group
    get.countable = 1;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get),
              -KGSL_EINVAL);
}

TEST_F(KgslDeviceTest, ReadWithoutGetIsEinval)
{
    const int fd = dev_.open({100, "untrusted_app"});
    kgsl_perfcounter_read_group entry;
    entry.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    entry.countable = 18;
    kgsl_perfcounter_read req;
    req.reads = &entry;
    req.count = 1;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &req),
              -KGSL_EINVAL);
}

TEST_F(KgslDeviceTest, NullPointersAreEfault)
{
    const int fd = dev_.open({100, "untrusted_app"});
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, nullptr),
              -KGSL_EFAULT);
    kgsl_perfcounter_read req;
    req.reads = nullptr;
    req.count = 3;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &req),
              -KGSL_EFAULT);
}

TEST_F(KgslDeviceTest, UnknownRequestIsEinval)
{
    const int fd = dev_.open({100, "untrusted_app"});
    int dummy = 0;
    EXPECT_EQ(dev_.ioctl(fd, 0xDEAD, &dummy), -KGSL_EINVAL);
}

TEST_F(KgslDeviceTest, ReadsSeeGlobalGpuWork)
{
    const int fd = openReserved();
    EXPECT_EQ(readPixel(fd), 0u);
    // Work submitted by *other* processes (the UI) is visible — the
    // leak the paper exploits.
    const SimTime end = engine_.submit(quad());
    eq_.runUntil(end + 1_ms);
    EXPECT_EQ(readPixel(fd), 64u * 64u);
}

TEST_F(KgslDeviceTest, GetReturnsRegisterOffsets)
{
    const int fd = dev_.open({100, "untrusted_app"});
    kgsl_perfcounter_get get;
    get.groupid = KGSL_PERFCOUNTER_GROUP_RAS;
    get.countable = 4;
    ASSERT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get), 0);
    EXPECT_NE(get.offset, 0u);
    EXPECT_NE(get.offset_hi, get.offset);
}

TEST_F(KgslDeviceTest, PutReleasesReservation)
{
    const int fd = openReserved();
    kgsl_perfcounter_put put;
    put.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    put.countable = 18;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_PUT, &put), 0);
    // Reading after PUT is rejected again.
    kgsl_perfcounter_read_group entry;
    entry.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    entry.countable = 18;
    kgsl_perfcounter_read req;
    req.reads = &entry;
    req.count = 1;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &req),
              -KGSL_EINVAL);
}

TEST_F(KgslDeviceTest, IoctlCountAccumulates)
{
    const std::uint64_t before = dev_.ioctlCount();
    const int fd = openReserved();
    readPixel(fd);
    readPixel(fd);
    EXPECT_EQ(dev_.ioctlCount(), before + 3); // 1 GET + 2 READ
}

TEST_F(KgslDeviceTest, RbacDeniesUntrustedPerfcounterIoctls)
{
    const RbacPolicy rbac;
    dev_.setPolicy(rbac);
    const int fd = dev_.open({100, "untrusted_app"});
    ASSERT_GE(fd, 0); // rendering path must keep working
    kgsl_perfcounter_get get;
    get.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    get.countable = 18;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get),
              -KGSL_EPERM);
}

TEST_F(KgslDeviceTest, RbacAllowsProfilerRole)
{
    const RbacPolicy rbac;
    dev_.setPolicy(rbac);
    const int fd = dev_.open({50, "gpu_profiler"});
    kgsl_perfcounter_get get;
    get.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    get.countable = 18;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get), 0);
}

TEST_F(KgslDeviceTest, BusyPercentageNode)
{
    EXPECT_NEAR(dev_.gpuBusyPercentage(), 0.0, 1e-9);
    engine_.submitCompute(100_ms);
    eq_.runUntil(eq_.now() + 50_ms);
    EXPECT_GT(dev_.gpuBusyPercentage(), 50.0);
}

TEST(KgslHardwareTest, ImplementedCountables)
{
    // All Table 1 selections exist...
    for (std::size_t i = 0; i < gpu::kNumSelectedCounters; ++i) {
        const auto id = gpu::counterId(gpu::SelectedCounter(i));
        EXPECT_TRUE(hardwareImplementsCounter(id.group, id.countable));
    }
    // ...plus neighbouring countables for enumeration, but not
    // arbitrary ids.
    EXPECT_TRUE(
        hardwareImplementsCounter(KGSL_PERFCOUNTER_GROUP_LRZ, 0));
    EXPECT_FALSE(
        hardwareImplementsCounter(KGSL_PERFCOUNTER_GROUP_LRZ, 60));
    EXPECT_FALSE(hardwareImplementsCounter(0x77, 0));
}

TEST(KgslPolicyTelemetryTest, DenialsAreCountedAndAudited)
{
    EventQueue eq;
    gpu::RenderEngine engine{eq, gpu::adrenoModel(650), 1};
    RbacPolicy rbac;
    KgslDevice dev{engine, rbac};
    obs::Telemetry tel;
    dev.setTelemetry(&tel);

    // Open is allowed under RBAC; the perfcounter ioctls are not.
    const int fd = dev.open({100, "untrusted_app"});
    ASSERT_GE(fd, 0);
    kgsl_perfcounter_get get;
    get.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    get.countable = 18;
    EXPECT_EQ(dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get),
              -KGSL_EPERM);
    kgsl_perfcounter_read req;
    req.reads = nullptr;
    req.count = 0;
    EXPECT_EQ(dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &req),
              -KGSL_EPERM);

    EXPECT_EQ(dev.policyDenialCount(), 2u);
    EXPECT_EQ(tel.metrics.counter("kgsl.policy_denials").value(), 2u);
    EXPECT_EQ(tel.audit.count(obs::Decision::PolicyDenied), 2u);
    const std::vector<obs::AuditRecord> records = tel.audit.snapshot();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].stage, obs::Stage::Kgsl);
    EXPECT_EQ(records[0].label, "perfcounter-get untrusted_app");
    EXPECT_EQ(records[1].label, "perfcounter-read untrusted_app");
    // Policy denials never enter the change funnel.
    EXPECT_EQ(tel.audit.changesAudited(), 0u);
}

TEST(KgslPolicyTelemetryTest, DeniedCallsCountWithoutTelemetryToo)
{
    EventQueue eq;
    gpu::RenderEngine engine{eq, gpu::adrenoModel(650), 1};
    const RbacPolicy rbac({"gpu_profiler"});
    KgslDevice dev{engine, rbac};
    // RBAC never blocks open() — graphics clients keep working.
    const int fd = dev.open({101, "shell"});
    ASSERT_GE(fd, 0);
    EXPECT_EQ(dev.policyDenialCount(), 0u);
    // No telemetry attached: the plain counter still advances.
    kgsl_perfcounter_get get;
    get.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    get.countable = 18;
    EXPECT_EQ(dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get),
              -KGSL_EPERM);
    EXPECT_EQ(dev.policyDenialCount(), 1u);
}

/**
 * GET/READ/PUT/close as the device answers them, written the long way:
 * implemented countables by per-group rules plus a linear scan of the
 * Table-1 ids, one std::set of reservations per descriptor, per-group
 * register caps, and reset-invalidated descriptors that drop their
 * reservations on their next ioctl.
 */
class ReferenceKgsl
{
  public:
    explicit ReferenceKgsl(std::map<std::uint32_t, std::uint32_t> caps)
        : caps_(std::move(caps))
    {
    }

    static std::optional<gpu::SelectedCounter>
    selected(std::uint32_t g, std::uint32_t c)
    {
        for (std::size_t i = 0; i < gpu::kNumSelectedCounters; ++i)
            if (gpu::counterId(gpu::SelectedCounter(i)) ==
                gpu::CounterId{g, c})
                return gpu::SelectedCounter(i);
        return std::nullopt;
    }

    static bool
    implemented(std::uint32_t g, std::uint32_t c)
    {
        if (selected(g, c))
            return true;
        switch (g) {
          case KGSL_PERFCOUNTER_GROUP_VPC:
            return c < 24;
          case KGSL_PERFCOUNTER_GROUP_RAS:
            return c < 12;
          case KGSL_PERFCOUNTER_GROUP_LRZ:
            return c < 26;
          case KGSL_PERFCOUNTER_GROUP_CP:
          case KGSL_PERFCOUNTER_GROUP_SP:
            return c < 32;
          default:
            return false;
        }
    }

    void open(int fd) { files_[fd]; }

    /** A device reset: every descriptor open now turns stale. */
    void
    resetDevice()
    {
        for (auto &[fd, f] : files_)
            f.resetPending = true;
    }

    int
    get(int fd, std::uint32_t g, std::uint32_t c)
    {
        File &f = files_.at(fd);
        if (int err = enter(f))
            return err;
        if (!implemented(g, c))
            return -KGSL_EINVAL;
        if (!f.held.contains({g, c})) {
            const auto cap = caps_.find(g);
            if (cap != caps_.end() && used_[g] >= cap->second)
                return -KGSL_EBUSY;
            ++used_[g];
            f.held.insert({g, c});
        }
        return 0;
    }

    int
    put(int fd, std::uint32_t g, std::uint32_t c)
    {
        File &f = files_.at(fd);
        if (int err = enter(f))
            return err;
        if (f.held.erase({g, c}))
            --used_[g];
        return 0;
    }

    int
    read(int fd, std::vector<kgsl_perfcounter_read_group> &entries,
         const gpu::CounterTotals &totals)
    {
        File &f = files_.at(fd);
        if (int err = enter(f))
            return err;
        for (kgsl_perfcounter_read_group &e : entries) {
            if (!implemented(e.groupid, e.countable))
                return -KGSL_EINVAL;
            if (!f.held.contains({e.groupid, e.countable}))
                return -KGSL_EINVAL;
            const auto sel = selected(e.groupid, e.countable);
            e.value = sel ? totals[*sel] : 0;
        }
        return 0;
    }

    void
    close(int fd)
    {
        File &f = files_.at(fd);
        if (!f.stale)
            for (const auto &[g, c] : f.held)
                --used_[g];
        files_.erase(fd);
    }

    std::size_t
    totalReservations() const
    {
        std::size_t n = 0;
        for (const auto &[fd, f] : files_)
            n += f.held.size();
        return n;
    }

    std::uint32_t
    heldRegisters() const
    {
        std::uint32_t n = 0;
        for (const auto &[g, used] : used_)
            n += used;
        return n;
    }

  private:
    struct File
    {
        std::set<std::pair<std::uint32_t, std::uint32_t>> held;
        bool resetPending = false;
        bool stale = false;
    };

    int
    enter(File &f)
    {
        if (f.resetPending && !f.stale) {
            for (const auto &[g, c] : f.held)
                --used_[g];
            f.held.clear();
            f.stale = true;
        }
        return f.stale ? -KGSL_ENODEV : 0;
    }

    std::map<std::uint32_t, std::uint32_t> caps_;
    std::map<std::uint32_t, std::uint32_t> used_;
    std::map<int, File> files_;
};

class KgslConformanceTest : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t kUnwritten = 0xfeedfacecafef00dULL;

    KgslConformanceTest() { dev_.setFaultInjector(&fi_); }

    static FaultPlan
    plan()
    {
        FaultPlan p;
        p.groupRegisters = {{KGSL_PERFCOUNTER_GROUP_LRZ, 20},
                            {KGSL_PERFCOUNTER_GROUP_RAS, 14}};
        p.deviceResets = {2_s};
        return p;
    }

    int
    open()
    {
        const int fd = dev_.open({100, "untrusted_app"});
        EXPECT_GE(fd, 3);
        ref_.open(fd);
        return fd;
    }

    /** Every group id 0..0x1f x countable 0..63. */
    template <typename Fn>
    static void
    sweep(Fn &&fn)
    {
        for (std::uint32_t g = 0; g < 0x20; ++g)
            for (std::uint32_t c = 0; c < 64; ++c)
                fn(g, c);
    }

    void
    getSweep(int fd)
    {
        sweep([&](std::uint32_t g, std::uint32_t c) {
            kgsl_perfcounter_get get;
            get.groupid = g;
            get.countable = c;
            const int rc = dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get);
            ASSERT_EQ(rc, ref_.get(fd, g, c))
                << "GET group " << g << " countable " << c;
            if (rc == 0) {
                EXPECT_EQ(get.offset, 0x400 + g * 0x40 + c);
                EXPECT_EQ(get.offset_hi, get.offset + 1);
            }
        });
    }

    void
    putSweep(int fd, std::uint32_t parity)
    {
        sweep([&](std::uint32_t g, std::uint32_t c) {
            if (c % 2 != parity)
                return;
            kgsl_perfcounter_put put;
            put.groupid = g;
            put.countable = c;
            ASSERT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_PUT, &put),
                      ref_.put(fd, g, c))
                << "PUT group " << g << " countable " << c;
        });
    }

    /** READ @p entries on both sides; errnos and every entry (the
     *  written prefix and the untouched rest) must agree. */
    void
    readBoth(int fd, std::vector<kgsl_perfcounter_read_group> entries)
    {
        for (kgsl_perfcounter_read_group &e : entries)
            e.value = kUnwritten;
        std::vector<kgsl_perfcounter_read_group> expect = entries;
        kgsl_perfcounter_read req;
        req.reads = entries.data();
        req.count = std::uint32_t(entries.size());
        const int rc = dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &req);
        ASSERT_EQ(rc, ref_.read(fd, expect, engine_.readAll()));
        for (std::size_t i = 0; i < entries.size(); ++i)
            ASSERT_EQ(entries[i].value, expect[i].value)
                << "entry " << i << " group " << entries[i].groupid
                << " countable " << entries[i].countable;
    }

    void
    readSweep(int fd)
    {
        sweep([&](std::uint32_t g, std::uint32_t c) {
            kgsl_perfcounter_read_group e;
            e.groupid = g;
            e.countable = c;
            readBoth(fd, {e});
        });
    }

    /** Random multi-entry READs, mostly over the groups that exist so
     *  that batches mix written prefixes with a first bad entry. */
    void
    readBatches(int fd, std::uint64_t seed)
    {
        static const std::array<std::uint32_t, 7> groups = {
            KGSL_PERFCOUNTER_GROUP_CP, KGSL_PERFCOUNTER_GROUP_VPC,
            KGSL_PERFCOUNTER_GROUP_RAS, KGSL_PERFCOUNTER_GROUP_SP,
            KGSL_PERFCOUNTER_GROUP_LRZ, 0x3, 0x1f};
        Rng rng(seed);
        for (int batch = 0; batch < 300; ++batch) {
            std::vector<kgsl_perfcounter_read_group> entries(
                std::size_t(rng.uniformInt(1, 16)));
            for (kgsl_perfcounter_read_group &e : entries) {
                if (rng.bernoulli(0.5)) {
                    const gpu::CounterId id = gpu::counterId(
                        gpu::SelectedCounter(rng.uniformInt(
                            0, gpu::kNumSelectedCounters - 1)));
                    e.groupid = id.group;
                    e.countable = id.countable;
                } else {
                    e.groupid = rng.pick(groups);
                    e.countable = std::uint32_t(rng.uniformInt(0, 40));
                }
            }
            readBoth(fd, std::move(entries));
        }
    }

    void
    checkTotals()
    {
        EXPECT_EQ(dev_.totalReservations(), ref_.totalReservations());
        EXPECT_EQ(fi_.heldRegisters(), ref_.heldRegisters());
    }

    EventQueue eq_;
    gpu::RenderEngine engine_{eq_, gpu::adrenoModel(650), 1};
    StockPolicy stock_;
    FaultInjector fi_{eq_, plan()};
    KgslDevice dev_{engine_, stock_};
    ReferenceKgsl ref_{plan().groupRegisters};
};

TEST_F(KgslConformanceTest, GetReadPutSweepMatchesReference)
{
    const int a = open();
    const int b = open();
    // a takes every implemented countable its group caps allow (LRZ
    // runs out at 20, RAS is left 2 for b); b then hits EBUSY.
    getSweep(a);
    getSweep(b);
    checkTotals();
    // Missing: 6 LRZ for a, all 26 LRZ and 10 RAS for b.
    EXPECT_EQ(dev_.totalReservations(),
              2 * gpu::kNumImplementedCountables - 6 - 26 - 10);
    getSweep(a); // re-GET of held countables costs nothing
    checkTotals();

    // One job finished, one in flight, one queued behind it.
    gfx::FrameScene small, large;
    small.damage = gfx::Rect::ofSize(0, 0, 96, 64);
    small.add(small.damage, true, gfx::PrimTag::Background);
    large.damage = gfx::Rect::ofSize(0, 0, 512, 512);
    large.add(large.damage, true, gfx::PrimTag::Background);
    large.add(gfx::Rect::ofSize(8, 8, 100, 300), true,
              gfx::PrimTag::KeyCap);
    const SimTime firstEnd = engine_.submit(small);
    const SimTime secondEnd = engine_.submit(large);
    engine_.submit(small);
    eq_.runUntil(firstEnd + (secondEnd - firstEnd) / 2);
    const gpu::CounterTotals midJob = engine_.readAll();
    EXPECT_GT(midJob[gpu::LRZ_VISIBLE_PIXEL_AFTER_LRZ], 96u * 64u);
    readSweep(a);
    readSweep(b);
    readBatches(a, 1);
    readBatches(b, 2);

    putSweep(a, 1); // odd countables back; b can now take some
    checkTotals();
    readSweep(a);
    getSweep(b);
    checkTotals();
    putSweep(b, 0);
    checkTotals();
    eq_.runUntil(secondEnd + 1_ms);
    readBatches(a, 3);
    readBatches(b, 4);

    EXPECT_EQ(dev_.close(b), 0);
    ref_.close(b);
    checkTotals();
    EXPECT_EQ(dev_.close(b), -KGSL_EBADF);
}

TEST_F(KgslConformanceTest, ResetInvalidatesAndReleasesOnce)
{
    const int a = open();
    const int b = open();
    getSweep(a);
    getSweep(b);
    engine_.submit(gfx::FrameScene{
        gfx::Rect::ofSize(0, 0, 64, 64),
        {gfx::Prim{gfx::Rect::ofSize(0, 0, 64, 64), true,
                   gfx::PrimTag::Background}}});
    eq_.runUntil(3_s); // past the reset and the job retirement age
    ref_.resetDevice();
    const int c = open(); // opened after the reset: a fresh epoch
    checkTotals();

    // a's first ioctl finds the reset, drops its reservations (one
    // register release each) and answers ENODEV from then on.
    getSweep(a);
    checkTotals();
    readSweep(a);
    putSweep(a, 0);
    checkTotals();

    // b never touched the device after the reset: close still returns
    // its registers, exactly once.
    EXPECT_EQ(dev_.close(b), 0);
    ref_.close(b);
    checkTotals();

    getSweep(c);
    checkTotals();
    readSweep(c);
    readBatches(c, 5);
    EXPECT_EQ(dev_.close(a), 0);
    ref_.close(a);
    checkTotals();
    EXPECT_EQ(dev_.close(c), 0);
    ref_.close(c);
    checkTotals();
    EXPECT_EQ(dev_.totalReservations(), 0u);
    EXPECT_EQ(fi_.heldRegisters(), 0u);
}

TEST(KgslIoctlCodesTest, EncodingMatchesLinuxLayout)
{
    // _IOWR('\x09', 0x38, struct kgsl_perfcounter_get)
    EXPECT_EQ(IOCTL_KGSL_PERFCOUNTER_GET & 0xff, 0x38u);
    EXPECT_EQ((IOCTL_KGSL_PERFCOUNTER_GET >> 8) & 0xff, 0x09u);
    EXPECT_EQ((IOCTL_KGSL_PERFCOUNTER_GET >> 16) & 0x3fff,
              sizeof(kgsl_perfcounter_get));
    EXPECT_EQ(IOCTL_KGSL_PERFCOUNTER_READ & 0xff, 0x3Bu);
}

} // namespace
} // namespace gpusc::kgsl
