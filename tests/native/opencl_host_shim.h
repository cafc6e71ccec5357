/*===- opencl_host_shim.h - Run emitted OpenCL C as host C -----*- C -*-===//
 *
 * Part of the liftcpp project.
 *
 * Prepended to the text ocl::emitOpenCL prints, this makes it a plain
 * C11 translation unit the host compiler accepts. The work-item
 * builtins describe one work-group of one work-item: every id is 0 and
 * every size and group count is 1, so each work-item loop steps by one
 * from 0 and runs 0..count-1 in order. The one group runs every tile
 * in turn and its one work-item every local id in turn. That is a
 * legal OpenCL schedule, and it is the order the simulator and the
 * native backend use, so the text can be checked against them bit for
 * bit. Barriers are no-ops: one work-item has nothing to wait for.
 *
 *===--------------------------------------------------------------===*/

#ifndef LIFT_OPENCL_HOST_SHIM_H
#define LIFT_OPENCL_HOST_SHIM_H

#include <math.h>

#define kernel
#define global
#define local
#define CLK_LOCAL_MEM_FENCE 0
#define barrier(flags) ((void)(flags))

static inline int get_global_id(int d) { (void)d; return 0; }
static inline int get_group_id(int d) { (void)d; return 0; }
static inline int get_local_id(int d) { (void)d; return 0; }
static inline int get_global_size(int d) { (void)d; return 1; }
static inline int get_num_groups(int d) { (void)d; return 1; }
static inline int get_local_size(int d) { (void)d; return 1; }

/* OpenCL's sqrt/fmax/fmin on float stay in float; C's promote to
 * double. */
#define sqrt(x) sqrtf(x)
#define fmax(a, b) fmaxf((a), (b))
#define fmin(a, b) fminf((a), (b))

#endif /* LIFT_OPENCL_HOST_SHIM_H */
