// E3 — basis maintenance on the device (paper sections 4.3 / 5.1, claim C3).
//
// The simplex revisits the basis matrix every iteration. Three regimes:
//   (a) PFI rank-1 eta update of a device-resident B⁻¹ (what the paper
//       advocates: uniform m x m kernels, zero transfers),
//   (b) refactorize every iteration on the device (LU, 2/3 m³),
//   (c) host-side update + re-upload of B⁻¹ each iteration (the chatty
//       pattern the paper warns about: PCIe latency dominates).
// Simulated per-iteration time across basis sizes shows why (a) wins and
// where (b) becomes competitive (large m amortizes, error control).
#include "bench/common.hpp"
#include "linalg/blas.hpp"
#include "linalg/device_blas.hpp"
#include "support/strings.hpp"

namespace {

using namespace gpumip;
using linalg::DeviceMatrix;
using linalg::DeviceVector;
using linalg::Matrix;
using linalg::Vector;

struct Regime {
  double eta = 0.0;       // (a)
  double refactor = 0.0;  // (b)
  double roundtrip = 0.0; // (c)
};

Regime measure(int m, int iterations) {
  Rng rng(static_cast<std::uint64_t>(m));
  Matrix binv = Matrix::identity(m);
  Vector y(static_cast<std::size_t>(m));
  Regime out;

  // (a) eta updates on the device.
  {
    gpu::Device device;
    DeviceMatrix dbinv = DeviceMatrix::upload(device, 0, binv);
    device.reset_stats();
    for (int it = 0; it < iterations; ++it) {
      for (auto& v : y) v = rng.uniform(-1, 1);
      y[static_cast<std::size_t>(it % m)] += 3.0;
      const linalg::Eta eta = linalg::Eta::from_ftran(y, it % m);
      linalg::dev_apply_eta(0, eta, dbinv);
    }
    out.eta = device.synchronize() / iterations;
  }
  // (b) refactorization each iteration.
  {
    gpu::Device device;
    Matrix b = Matrix::random(m, m, rng);
    for (int i = 0; i < m; ++i) b(i, i) += 4.0;
    DeviceMatrix db = DeviceMatrix::upload(device, 0, b);
    device.reset_stats();
    for (int it = 0; it < iterations; ++it) {
      DeviceMatrix work = DeviceMatrix::upload(device, 0, b);
      static_cast<void>(linalg::dev_getrf(0, work));
    }
    out.refactor = device.synchronize() / iterations;
  }
  // (c) host update + full B⁻¹ re-upload per iteration.
  {
    gpu::Device device;
    DeviceMatrix dbinv = DeviceMatrix::upload(device, 0, binv);
    device.reset_stats();
    for (int it = 0; it < iterations; ++it) {
      for (auto& v : y) v = rng.uniform(-1, 1);
      y[static_cast<std::size_t>(it % m)] += 3.0;
      const linalg::Eta eta = linalg::Eta::from_ftran(y, it % m);
      eta.apply_to_matrix(binv);  // on the host
      dbinv.assign(0, binv);      // ship the whole inverse back
    }
    out.roundtrip = device.synchronize() / iterations;
  }
  return out;
}

void print_experiment() {
  bench::title("E3", "basis update regimes: PFI eta vs refactorize vs host round trip");
  bench::row("  %-6s %-14s %-14s %-14s %-22s", "m", "eta-update", "refactorize",
             "host-roundtrip", "eta advantage");
  for (int m : {32, 64, 128, 256, 512}) {
    const Regime r = measure(m, 24);
    bench::row("  %-6d %-14s %-14s %-14s refactor/eta=%-6.1f roundtrip/eta=%.1f", m,
               human_seconds(r.eta).c_str(), human_seconds(r.refactor).c_str(),
               human_seconds(r.roundtrip).c_str(), r.refactor / r.eta, r.roundtrip / r.eta);
  }
  bench::note("expected shape: eta (rank-1, O(m^2)) beats refactorize (O(m^3)) increasingly");
  bench::note("with m; the host round trip pays a PCIe latency floor that dominates small m.");
}

}  // namespace

int main() {
  print_experiment();
  gpumip::bench::write_exports();
}
