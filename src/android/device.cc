#include "android/device.h"

#include "gpu/model.h"
#include "util/logging.h"

namespace gpusc::android {

using namespace gpusc::sim_literals;

namespace {

/** Frames in the app-switch transition animation. */
constexpr int kTransitionFrames = 10;

DisplayConfig
resolveDisplay(const DeviceConfig &cfg, const PhoneSpec &phone)
{
    DisplayConfig d = phone.display;
    if (!cfg.resolution.empty()) {
        if (cfg.resolution == "FHD+")
            d = displayFhdPlus(d.refreshHz);
        else if (cfg.resolution == "QHD+")
            d = displayQhdPlus(d.refreshHz);
        else
            fatal("Device: unknown resolution '%s'",
                  cfg.resolution.c_str());
    }
    if (cfg.refreshHz != 0)
        d.refreshHz = cfg.refreshHz;
    return d;
}

} // namespace

std::string
modelKey(const DeviceConfig &cfg)
{
    const PhoneSpec &phone = phoneSpec(cfg.phone);
    const DisplayConfig display = resolveDisplay(cfg, phone);
    const int os = cfg.osVersion ? cfg.osVersion : phone.osVersion;
    // The target app is part of the configuration: its credential
    // field's geometry shapes the echo line and blink variants the
    // model carries (§3.2 — one model per device model AND
    // configuration).
    return phone.id + "/adreno" + std::to_string(phone.adrenoGen) + "/" +
           display.name + "@" + std::to_string(display.refreshHz) + "/" +
           cfg.keyboard + "/android" + std::to_string(os) + "/" + cfg.app;
}

Device::Device(DeviceConfig cfg, std::shared_ptr<gpu::FrameMemo> frameMemo)
    : cfg_(std::move(cfg)), phone_(phoneSpec(cfg_.phone)),
      display_(resolveDisplay(cfg_, phone_)),
      osVersion_(cfg_.osVersion ? cfg_.osVersion : phone_.osVersion),
      rng_(cfg_.seed), aliveToken_(std::make_shared<int>(0))
{
    engine_ = std::make_unique<gpu::RenderEngine>(
        eq_, gpu::adrenoModel(phone_.adrenoGen), rng_.next(),
        std::move(frameMemo));
    engine_->setNoiseSigma(cfg_.noiseSigma);
    kgsl_ = std::make_unique<kgsl::KgslDevice>(*engine_, stockPolicy_);
    wm_ = std::make_unique<WindowManager>(eq_, *engine_, display_);
    statusBar_ =
        std::make_unique<StatusBar>(eq_, display_, rng_.fork());
    app_ = std::make_unique<AppSurface>(eq_, appSpec(cfg_.app),
                                        display_, kAppPid,
                                        osVersion_ - 11, rng_.next());
    otherApp_ = std::make_unique<OtherAppSurface>(
        eq_, display_, rng_.fork(), kOtherAppPid);

    // Navigation-bar style changed across Android versions (buttons
    // vs. gesture pill), which shifts the keyboard vertically — one
    // concrete way OS version changes per-key signatures (Fig. 24d).
    KeyboardSpec spec = keyboardSpec(cfg_.keyboard);
    spec.bottomMarginDp += osVersion_ <= 9 ? 14.0 : 6.0;
    ime_ = std::make_unique<Ime>(
        eq_, KeyboardLayout(spec, display_), rng_.fork(), kImePid);
    ime_->setPopupsEnabled(!cfg_.popupsDisabled);

    power_ = std::make_unique<PowerModel>(phone_);

    app_->setVisible(false);
    otherApp_->setVisible(false);
    ime_->setVisible(false);

    wm_->addSurface(statusBar_.get());
    wm_->addSurface(app_.get());
    wm_->addSurface(otherApp_.get());
    wm_->addSurface(ime_.get());

    // Log messages carry this device's simulated clock while it is
    // the most recently constructed one (the trainer's bot device
    // hands the prefix back to the victim when it is torn down).
    setLogTimeSource(this, [this] { return eq_.now(); });
}

Device::~Device()
{
    setLogTimeSource(this, nullptr);
}

std::string
Device::modelKey() const
{
    return android::modelKey(cfg_);
}

kgsl::ProcessContext
Device::attackerContext() const
{
    return kgsl::ProcessContext{kAttackerPid, "untrusted_app"};
}

void
Device::setSecurityPolicy(const kgsl::SecurityPolicy &policy)
{
    kgsl_->setPolicy(policy);
}

void
Device::boot()
{
    if (booted_)
        return;
    booted_ = true;
    wm_->start();
    statusBar_->setVisible(true);
    statusBar_->startNotifications(cfg_.notificationMeanInterval);
}

void
Device::launchTargetApp()
{
    boot();
    otherApp_->setVisible(false);
    app_->setVisible(true);
    app_->startAnimation();
    app_->focusField();
    ime_->setVisible(true);
    ime_->setTargetField(app_.get());
    inTargetApp_ = true;
}

void
Device::switchToOtherApp()
{
    if (!inTargetApp_)
        return;
    inTargetApp_ = false;
    if (appSwitchListener_)
        appSwitchListener_(false, eq_.now());
    wm_->playTransition(kTransitionFrames);
    std::weak_ptr<int> alive = aliveToken_;
    eq_.scheduleAfter(
        wm_->vsyncPeriod() * (kTransitionFrames + 1), [this, alive] {
            if (alive.expired())
                return;
            app_->unfocusField();
            app_->setVisible(false);
            ime_->setVisible(false);
            otherApp_->setVisible(true);
        });
}

void
Device::switchBackToTargetApp()
{
    if (inTargetApp_)
        return;
    if (appSwitchListener_)
        appSwitchListener_(true, eq_.now());
    wm_->playTransition(kTransitionFrames);
    std::weak_ptr<int> alive = aliveToken_;
    eq_.scheduleAfter(
        wm_->vsyncPeriod() * (kTransitionFrames + 1), [this, alive] {
            if (alive.expired())
                return;
            otherApp_->setVisible(false);
            app_->setVisible(true);
            app_->focusField();
            ime_->setVisible(true);
            inTargetApp_ = true;
        });
}

} // namespace gpusc::android
