/**
 * @file
 * Store of preloaded per-configuration signature models (the attack
 * APK ships thousands of these; §7.6 sizes them at ~3.6 kB each).
 * Also memoises training so experiment campaigns train each device
 * configuration only once, and owns one gpu::FrameMemo per
 * configuration next to its model, so every victim device built from
 * the store renders each distinct frame of that configuration once
 * per process. The memos are never serialised.
 */

#ifndef GPUSC_ATTACK_MODEL_STORE_H
#define GPUSC_ATTACK_MODEL_STORE_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "android/device.h"
#include "attack/signature.h"
#include "attack/trainer.h"
#include "gpu/frame_memo.h"

namespace gpusc::attack {

/** Keyed collection of signature models. */
class ModelStore
{
  public:
    /** Add (or replace) a model under its own key. */
    void put(SignatureModel model);

    /** @return the model for @p key, or nullptr. */
    const SignatureModel *find(const std::string &key) const;

    /**
     * Return the model for the configuration, training it via the
     * offline phase if the store does not have it yet, and create the
     * configuration's frame memo if there is none. Not thread-safe
     * when it trains or creates; once both exist for @p cfg, calls
     * for it only read the store.
     */
    const SignatureModel &getOrTrain(const android::DeviceConfig &cfg,
                                     const OfflineTrainer &trainer);

    /**
     * The frame memo shared by victim devices built for @p cfg, or
     * null before getOrTrain() has seen that configuration.
     */
    std::shared_ptr<gpu::FrameMemo>
    frameMemo(const android::DeviceConfig &cfg) const;

    std::size_t size() const { return models_.size(); }
    std::vector<std::string> keys() const;
    const std::map<std::string, SignatureModel> &all() const
    {
        return models_;
    }

    /** Total serialised size of all models, bytes. */
    std::size_t totalByteSize() const;

    /** Serialise the whole store / load it back. */
    std::vector<std::uint8_t> serialize() const;
    /**
     * Parse a serialised store. Truncated or corrupt blobs yield an
     * empty store with a warning log line — never UB or a crash.
     */
    static ModelStore deserialize(
        const std::vector<std::uint8_t> &blob);
    /** Like deserialize(), but reports failure as nullopt. */
    static std::optional<ModelStore> tryDeserialize(
        const std::vector<std::uint8_t> &blob);

    /**
     * File round trip (the preloaded asset in the APK). Files carry
     * a CRC-protected envelope, so any flipped byte is detected on
     * load; loadFromFile returns an empty store (with a warning) on
     * a missing, truncated or corrupt file.
     */
    bool saveToFile(const std::string &path) const;
    static ModelStore loadFromFile(const std::string &path);
    /** Like loadFromFile(), but reports failure as nullopt. */
    static std::optional<ModelStore> tryLoadFromFile(
        const std::string &path);

    /**
     * The process-wide store used by benches/tests so each device
     * configuration is trained at most once per process.
     */
    static ModelStore &global();

  private:
    std::map<std::string, SignatureModel> models_;
    /** Keyed like models_, on android::modelKey(). */
    std::map<std::string, std::shared_ptr<gpu::FrameMemo>> frameMemos_;
};

} // namespace gpusc::attack

#endif // GPUSC_ATTACK_MODEL_STORE_H
