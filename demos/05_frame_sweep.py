"""
Transporting a frame along a curve
==================================

Sweeping a profile along a path needs an orientation at every sample,
and each consecutive pair of (tangent, normal) frames is exactly a
two-vector alignment problem.  The per-step rotations are tiny Gibbs
vectors; folding them gives the pose of any frame relative to the first.
"""

import numpy as np

from gibbsrot import frame_transport, gibbs_to_axis_angle, rotate_vector

# A helix, its exact tangents, and curvature normals.
t = np.linspace(0.0, 4.0 * np.pi, 121)
radius, pitch = 1.0, 0.15
tangents = np.stack([-radius * np.sin(t), radius * np.cos(t),
                     np.full_like(t, pitch)], axis=-1)
normals = np.stack([-np.cos(t), -np.sin(t), np.zeros_like(t)], axis=-1)
frames = np.stack([tangents, normals], axis=1)

result = frame_transport(frames)
print(f"{len(result.steps)} steps along the helix")

# Every step is small and nearly identical: the helix turns at a
# constant rate, and a Gibbs vector's length is tan(half the angle).
step_angles = 2.0 * np.degrees(np.arctan(np.linalg.norm(result.steps, axis=-1)))
print(f"step angles: min {step_angles.min():.4f}, "
      f"max {step_angles.max():.4f} degrees")

# The cumulative rotations really do carry frame 0 onto frame i.
i = 60
t0 = tangents[0] / np.linalg.norm(tangents[0])
ti = tangents[i] / np.linalg.norm(tangents[i])
carried = rotate_vector(result.cumulative[i], t0)
print(f"frame 0 carried to frame {i}, tangent gap: "
      f"{np.abs(carried - ti).max():.2e}")

# Half a lap around the cylinder is a half turn about its axis -- the
# running fold hits the pi-encoded regime and sails through it.
axis, angle = gibbs_to_axis_angle(result.cumulative[30])
print(f"half a lap turns the frame {np.degrees(angle):.2f} degrees "
      f"about {axis.round(4)} (pi-encoded on the way)")

# Because the tangent and normal are periodic, every whole lap closes:
# the cumulative rotation at sample 60 (one lap) collapses to nothing.
print(f"one whole lap leaves |r| = {np.linalg.norm(result.cumulative[60]):.2e}")

# A flat closed loop, by contrast, comes back exactly: 360 one-degree
# steps around a circle cancel to the identity.
a = np.radians(np.arange(361.0))
loop = np.stack([
    np.stack([-np.sin(a), np.cos(a), np.zeros_like(a)], -1),
    np.stack([-np.cos(a), -np.sin(a), np.zeros_like(a)], -1),
], axis=1)
closure = np.linalg.norm(frame_transport(loop).cumulative[-1])
print(f"closed planar loop residual: {closure:.2e}")

# The command-line wrapper transports a rotation-minimizing frame along a
# polyline (two reflections per step, each step one Gibbs vector) and can
# emit a ready-to-render tube mesh:
#
#   printf '1,0,0\n0.995,0.1,0\n0.98,0.2,0\n' | gibbsrot sweep
#   ... | gibbsrot sweep --obj --profile circle:0.05:16 > tube.obj
