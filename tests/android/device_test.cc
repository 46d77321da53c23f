/** @file Unit tests for the assembled victim device. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "android/app.h"
#include "android/device.h"
#include "android/keyboard.h"
#include "android/phone.h"

namespace gpusc::android {
namespace {

using namespace gpusc::sim_literals;

TEST(PhoneSpecTest, RegistryMatchesPaperDevices)
{
    EXPECT_EQ(phoneSpec("oneplus8pro").adrenoGen, 650);
    EXPECT_EQ(phoneSpec("lgv30").adrenoGen, 540);
    EXPECT_EQ(phoneSpec("pixel2").adrenoGen, 540);
    EXPECT_EQ(phoneSpec("oneplus9").adrenoGen, 660);
    EXPECT_EQ(phoneSpec("s21").adrenoGen, 660);
    EXPECT_EQ(phoneSpec("oneplus7pro").display.name, "QHD+");
}

TEST(PhoneSpecDeathTest, UnknownPhoneIsFatal)
{
    EXPECT_DEATH((void)phoneSpec("nokia3310"), "unknown phone");
}

TEST(DeviceTest, ModelKeyEncodesConfiguration)
{
    DeviceConfig cfg;
    cfg.phone = "oneplus8pro";
    cfg.keyboard = "swift";
    cfg.app = "amex";
    Device dev(cfg);
    const std::string key = dev.modelKey();
    EXPECT_NE(key.find("oneplus8pro"), std::string::npos);
    EXPECT_NE(key.find("adreno650"), std::string::npos);
    EXPECT_NE(key.find("swift"), std::string::npos);
    EXPECT_NE(key.find("amex"), std::string::npos);
    EXPECT_NE(key.find("android11"), std::string::npos);
}

TEST(DeviceTest, FreeModelKeyMatchesDeviceModelKey)
{
    std::vector<std::string> apps = nativeAppNames();
    apps.insert(apps.end(), webAppNames().begin(), webAppNames().end());
    std::size_t checked = 0;
    for (const std::string &phone : phoneIds())
        for (const std::string &keyboard : keyboardNames())
            for (const std::string &app : apps) {
                DeviceConfig cfg;
                cfg.phone = phone;
                cfg.keyboard = keyboard;
                cfg.app = app;
                EXPECT_EQ(modelKey(cfg), Device(cfg).modelKey());
                ++checked;
            }
    EXPECT_GT(checked, 0u);

    // Overrides of refresh rate, resolution and OS version.
    for (const std::string &phone : phoneIds())
        for (const char *res : {"", "FHD+", "QHD+"})
            for (int hz : {0, 60, 120})
                for (int os : {0, 8, 12}) {
                    DeviceConfig cfg;
                    cfg.phone = phone;
                    cfg.resolution = res;
                    cfg.refreshHz = hz;
                    cfg.osVersion = os;
                    EXPECT_EQ(modelKey(cfg), Device(cfg).modelKey())
                        << phone << " " << res << " " << hz << " " << os;
                }
}

TEST(DeviceDeathTest, FreeModelKeyRejectsWhatDeviceRejects)
{
    DeviceConfig badPhone;
    badPhone.phone = "nokia3310";
    EXPECT_DEATH((void)modelKey(badPhone), "unknown phone");
    DeviceConfig badRes;
    badRes.resolution = "4K";
    EXPECT_DEATH((void)modelKey(badRes), "unknown resolution");
}

TEST(DeviceTest, ConfigOverridesApply)
{
    DeviceConfig cfg;
    cfg.phone = "oneplus8pro";
    cfg.resolution = "QHD+";
    cfg.refreshHz = 120;
    cfg.osVersion = 9;
    Device dev(cfg);
    EXPECT_EQ(dev.display().name, "QHD+");
    EXPECT_EQ(dev.display().refreshHz, 120);
    EXPECT_EQ(dev.osVersion(), 9);
    EXPECT_EQ(dev.display().vsyncPeriod().ns(), 1000000000LL / 120);
}

TEST(DeviceDeathTest, BadResolutionIsFatal)
{
    DeviceConfig cfg;
    cfg.resolution = "4K";
    EXPECT_DEATH(Device dev(cfg), "unknown resolution");
}

TEST(DeviceTest, AttackerContextIsUnprivileged)
{
    Device dev(DeviceConfig{});
    EXPECT_EQ(dev.attackerContext().seContext, "untrusted_app");
}

TEST(DeviceTest, LaunchBringsUpAppAndKeyboard)
{
    Device dev(DeviceConfig{});
    EXPECT_FALSE(dev.app().visible());
    dev.launchTargetApp();
    EXPECT_TRUE(dev.inTargetApp());
    EXPECT_TRUE(dev.app().visible());
    EXPECT_TRUE(dev.ime().visible());
    EXPECT_TRUE(dev.app().focused());
    dev.runFor(500_ms);
    // Launch redraws produced GPU work.
    EXPECT_GT(dev.engine().framesRendered(), 0u);
}

TEST(DeviceTest, AppSwitchRoundTrip)
{
    Device dev(DeviceConfig{});
    dev.launchTargetApp();
    dev.runFor(500_ms);
    dev.switchToOtherApp();
    EXPECT_FALSE(dev.inTargetApp());
    dev.runFor(1_s);
    EXPECT_FALSE(dev.app().visible());
    EXPECT_TRUE(dev.otherApp().visible());
    dev.switchBackToTargetApp();
    dev.runFor(1_s);
    EXPECT_TRUE(dev.inTargetApp());
    EXPECT_TRUE(dev.app().visible());
    EXPECT_FALSE(dev.otherApp().visible());
}

TEST(DeviceTest, TransitionRendersBurstFrames)
{
    Device dev(DeviceConfig{});
    dev.launchTargetApp();
    dev.runFor(500_ms);
    const auto before = dev.engine().framesRendered();
    dev.switchToOtherApp();
    dev.runFor(500_ms);
    // The overview animation renders ~10 full-screen frames.
    EXPECT_GE(dev.engine().framesRendered(), before + 8);
}

TEST(DeviceTest, OsVersionShiftsKeyboardGeometry)
{
    DeviceConfig a, b;
    a.osVersion = 9;
    b.osVersion = 11;
    Device devA(a), devB(b);
    const Key *kA = devA.ime().layout().findChar(KbPage::Lower, 'g');
    const Key *kB = devB.ime().layout().findChar(KbPage::Lower, 'g');
    EXPECT_NE(kA->rect, kB->rect);
}

TEST(DeviceTest, SeedsChangeNoiseNotGeometry)
{
    DeviceConfig a, b;
    a.seed = 1;
    b.seed = 2;
    Device devA(a), devB(b);
    EXPECT_EQ(devA.modelKey(), devB.modelKey());
    EXPECT_EQ(devA.ime().layout().bounds(),
              devB.ime().layout().bounds());
}

} // namespace
} // namespace gpusc::android
