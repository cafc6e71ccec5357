// Jacobi3D7pt: generated by the liftcpp native backend.
// Semantics contract: bit-identical to the NDRange simulator
// (all loops run 0..count-1; floor division; exact float
// literals; float-precision math builtins).

#include <math.h>
#include <stdint.h>

#define sqrt(x) sqrtf(x)
#define fmax(a, b) fmaxf((a), (b))
#define fmin(a, b) fminf((a), (b))

static inline long long lift_fdiv(long long a, long long b) {
  long long q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0)))
    --q;
  return q;
}
static inline long long lift_fmod(long long a, long long b) {
  return a - lift_fdiv(a, b) * b;
}
static inline long long lift_min(long long a, long long b) {
  return a < b ? a : b;
}
static inline long long lift_max(long long a, long long b) {
  return a > b ? a : b;
}

static inline float Jacobi3D7pt_f(float a0, float a1, float a2, float a3, float a4, float a5, float a6) { return 0.142857149f * a0 + 0.142857149f * a1 + 0.142857149f * a2 + 0.142857149f * a3 + 0.142857149f * a4 + 0.142857149f * a5 + 0.142857149f * a6; }

void Jacobi3D7pt(void **lift_bufs, const long long *lift_sizes, int lift_threads, double *lift_prof) {
  float *restrict in0 = (float *)lift_bufs[0];
  float *restrict out = (float *)lift_bufs[1];
  const long long d0 = lift_sizes[0];
  const long long d1 = lift_sizes[1];
  const long long d2 = lift_sizes[2];
  (void)lift_threads;
  (void)lift_prof;
  #pragma omp parallel for collapse(2) schedule(static) num_threads(lift_threads)
  for (long long i0 = 0; i0 < d0; ++i0) {
    for (long long i1 = 0; i1 < d1; ++i1) {
      #pragma omp simd
      for (long long i2 = 0; i2 < d2; ++i2) {
        out[(i2 + (d2 * i1) + (d1 * d2 * i0))] = Jacobi3D7pt_f(in0[(lift_min(i2, (-1 + d2)) + (d2 * lift_min(i1, (-1 + d1))) + (d1 * d2 * lift_max(0, lift_min((-1 + d0), (-1 + i0)))))], in0[(lift_min(i2, (-1 + d2)) + (d2 * lift_max(0, lift_min((-1 + d1), (-1 + i1)))) + (d1 * d2 * lift_min(i0, (-1 + d0))))], in0[(lift_max(0, lift_min((-1 + d2), (-1 + i2))) + (d2 * lift_min(i1, (-1 + d1))) + (d1 * d2 * lift_min(i0, (-1 + d0))))], in0[(lift_min(i2, (-1 + d2)) + (d2 * lift_min(i1, (-1 + d1))) + (d1 * d2 * lift_min(i0, (-1 + d0))))], in0[(lift_min((-1 + d2), (1 + i2)) + (d2 * lift_min(i1, (-1 + d1))) + (d1 * d2 * lift_min(i0, (-1 + d0))))], in0[(lift_min(i2, (-1 + d2)) + (d2 * lift_min((-1 + d1), (1 + i1))) + (d1 * d2 * lift_min(i0, (-1 + d0))))], in0[(lift_min(i2, (-1 + d2)) + (d2 * lift_min(i1, (-1 + d1))) + (d1 * d2 * lift_min((-1 + d0), (1 + i0))))]);
      }
    }
  }
}
