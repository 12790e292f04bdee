// Velocity models for the Awave RTM experiments.
//
// The paper evaluates on two published 2D models: Sigsbee (constant-density
// salt model) and Marmousi (complex layered structural model). Those
// datasets are licensed artifacts we cannot ship, so sigsbee_like() and
// marmousi_like() generate synthetic models with the same qualitative
// structure (README, "Simulation design", substitutions): a high-velocity
// salt body in a smooth background, and steeply dipping laterally varying
// layers, respectively. The RTM code path is identical either way.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace ompc::awave {

struct VelocityModel {
  int nx = 0;      ///< horizontal samples
  int nz = 0;      ///< depth samples
  float dx = 10.0f;  ///< grid spacing (m), isotropic

  /// Row-major velocity (m/s): v[z * nx + x].
  std::vector<float> v;

  VelocityModel() = default;
  VelocityModel(int nx_, int nz_, float dx_, float fill = 1500.0f)
      : nx(nx_), nz(nz_), dx(dx_),
        v(static_cast<std::size_t>(nx_) * static_cast<std::size_t>(nz_),
          fill) {}

  float& at(int x, int z) {
    return v[static_cast<std::size_t>(z) * static_cast<std::size_t>(nx) +
             static_cast<std::size_t>(x)];
  }
  float at(int x, int z) const {
    return v[static_cast<std::size_t>(z) * static_cast<std::size_t>(nx) +
             static_cast<std::size_t>(x)];
  }

  float vmax() const;
  float vmin() const;
};

/// Horizontally layered medium: `interfaces[k]` is the depth sample where
/// layer k+1 (velocity `velocities[k+1]`) begins.
VelocityModel layered_model(int nx, int nz, float dx,
                            const std::vector<int>& interfaces,
                            const std::vector<float>& velocities);

/// Sigsbee-like: water layer over smooth sediment gradient with an
/// embedded irregular high-velocity salt body (the model's signature
/// feature — strong impedance contrast, constant density).
VelocityModel sigsbee_like(int nx, int nz, float dx = 10.0f);

/// Marmousi-like: many thin dipping layers with strong lateral velocity
/// variation and a growth-fault-style offset in the middle of the model.
VelocityModel marmousi_like(int nx, int nz, float dx = 10.0f);

}  // namespace ompc::awave
