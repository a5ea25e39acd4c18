// Internal backend vtable for detmath. Each backend translation unit
// (detmath_portable.cpp, detmath_avx2.cpp) exposes one of these; detmath.cpp
// picks one at first use via CPU detection. Not part of the public API.
#pragma once

#include <cstddef>

namespace sh::util::detmath::internal {

struct Vtable {
  double (*dsin)(double) noexcept;
  double (*dcos)(double) noexcept;
  double (*dexp)(double) noexcept;
  void (*dsincos)(double, double&, double&) noexcept;
  void (*sin_n)(const double*, std::size_t, double*) noexcept;
  void (*cos_n)(const double*, std::size_t, double*) noexcept;
  void (*exp_n)(const double*, std::size_t, double*) noexcept;
  void (*sincos_n)(const double*, std::size_t, double*, double*) noexcept;
  void (*fade_path_accumulate_n)(const double*, std::size_t, double, double,
                                 double, double*, double*) noexcept;
  void (*sinusoid_accumulate_n)(const double*, std::size_t, double, double,
                                double, double*) noexcept;
  const char* name;
};

const Vtable& portable_vtable() noexcept;
#if defined(SH_DETMATH_HAVE_AVX2)
const Vtable& avx2_vtable() noexcept;
#endif

}  // namespace sh::util::detmath::internal
