/**
 * @file
 * The victim smartphone: one object wiring GPU, KGSL driver, window
 * manager, status bar, IME and the foreground application together on
 * a shared event queue. Experiments construct a Device from a
 * DeviceConfig, drive input on it, and attach the attack through the
 * KGSL device file — exactly the topology of paper Fig. 7.
 */

#ifndef GPUSC_ANDROID_DEVICE_H
#define GPUSC_ANDROID_DEVICE_H

#include <functional>
#include <memory>
#include <string>

#include "android/app.h"
#include "android/display.h"
#include "android/ime.h"
#include "android/other_app.h"
#include "android/phone.h"
#include "android/power.h"
#include "android/status_bar.h"
#include "android/window_manager.h"
#include "gpu/render_engine.h"
#include "kgsl/device.h"
#include "util/event_queue.h"

namespace gpusc::android {

/** Everything configurable about a victim device + session. */
struct DeviceConfig
{
    std::string phone = "oneplus8pro";
    std::string keyboard = "gboard";
    std::string app = "chase";
    /** 0 = phone default; else 60 or 120. */
    int refreshHz = 0;
    /** Empty = phone default; else "FHD+" or "QHD+". */
    std::string resolution;
    /** 0 = phone default; else Android major version (8..12). */
    int osVersion = 0;
    /** Measurement perturbation sigma (counter counts). */
    double noiseSigma = 0.25;
    /** Mitigation §9.1: user disabled key-press popups. */
    bool popupsDisabled = false;
    /** Mean notification inter-arrival; <=0 disables. */
    SimTime notificationMeanInterval = SimTime::fromSeconds(50);
    std::uint64_t seed = 42;
};

/**
 * Identifies the (phone, GPU, display, keyboard, OS, app) combination
 * a signature model is trained for — the classification-model key of
 * paper §3.2 — without assembling a Device. Fatal on an unknown phone
 * or resolution, as Device construction is.
 */
std::string modelKey(const DeviceConfig &cfg);

/** A fully assembled victim smartphone. */
class Device
{
  public:
    /**
     * @param frameMemo rendered-frame memo shared by every device of
     *   this configuration (attack::ModelStore owns one per
     *   configuration); null gives the device a private one.
     */
    explicit Device(DeviceConfig cfg,
                    std::shared_ptr<gpu::FrameMemo> frameMemo = nullptr);
    ~Device();

    // Non-movable: surfaces hold references into the device.
    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    EventQueue &eq() { return eq_; }
    gpu::RenderEngine &engine() { return *engine_; }
    kgsl::KgslDevice &kgsl() { return *kgsl_; }
    WindowManager &wm() { return *wm_; }
    StatusBar &statusBar() { return *statusBar_; }
    Ime &ime() { return *ime_; }
    AppSurface &app() { return *app_; }
    OtherAppSurface &otherApp() { return *otherApp_; }
    PowerModel &power() { return *power_; }

    const DeviceConfig &config() const { return cfg_; }
    const PhoneSpec &phone() const { return phone_; }
    const DisplayConfig &display() const { return display_; }
    int osVersion() const { return osVersion_; }

    /** android::modelKey() of this device's configuration. */
    std::string modelKey() const;

    /** SELinux context of the attacking application. */
    kgsl::ProcessContext attackerContext() const;

    /** Replace the KGSL security policy (mitigation experiments). */
    void setSecurityPolicy(const kgsl::SecurityPolicy &policy);

    // --- Session control -------------------------------------------
    /** Start vsync + background noise sources. */
    void boot();

    /** Foreground the target app with its login field focused. */
    void launchTargetApp();

    /** Animate to the app-overview screen and into another app. */
    void switchToOtherApp();

    /** Animate back into the target app (field regains focus). */
    void switchBackToTargetApp();

    bool inTargetApp() const { return inTargetApp_; }

    /** Observe app-switch initiations: ground truth for trace
     *  recording (true = switching back into the target app). */
    void setAppSwitchListener(std::function<void(bool, SimTime)> fn)
    {
        appSwitchListener_ = std::move(fn);
    }

    /** Advance simulated time. */
    void runFor(SimTime d) { eq_.runUntil(eq_.now() + d); }
    void runUntil(SimTime t) { eq_.runUntil(t); }

  private:
    static constexpr int kSystemPid = 1;
    static constexpr int kAppPid = 100;
    static constexpr int kOtherAppPid = 101;
    static constexpr int kImePid = 102;
    static constexpr int kAttackerPid = 200;

    DeviceConfig cfg_;
    PhoneSpec phone_;
    DisplayConfig display_;
    int osVersion_;
    EventQueue eq_;
    Rng rng_;
    std::unique_ptr<gpu::RenderEngine> engine_;
    kgsl::StockPolicy stockPolicy_;
    std::unique_ptr<kgsl::KgslDevice> kgsl_;
    std::unique_ptr<WindowManager> wm_;
    std::unique_ptr<StatusBar> statusBar_;
    std::unique_ptr<AppSurface> app_;
    std::unique_ptr<OtherAppSurface> otherApp_;
    std::unique_ptr<Ime> ime_;
    std::unique_ptr<PowerModel> power_;
    std::function<void(bool, SimTime)> appSwitchListener_;
    bool booted_ = false;
    bool inTargetApp_ = false;
    std::shared_ptr<int> aliveToken_;
};

} // namespace gpusc::android

#endif // GPUSC_ANDROID_DEVICE_H
