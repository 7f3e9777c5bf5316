"""
Rigid transform algebra
=======================

A body's pose is a rotation plus a translation mapping body-frame
points into the world.  Composition, inversion, and relative poses
are all the machinery the joint solver needs.
"""
import numpy as np

from skelfit import Transform, relative, rotation_about_axis

# a quarter turn about z, lifted half a meter
R = rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.pi / 2.0)
pose = Transform(R, np.array([0.0, 0.0, 0.5]))

# the body point (1, 0, 0) swings onto the y axis and picks up the lift
print("body (1,0,0) maps to", np.round(pose.apply(np.array([1.0, 0.0, 0.0])), 6))

# inversion undoes the mapping exactly
back = pose.invert().apply(pose.apply(np.array([0.2, -0.1, 0.7])))
print("round trip error", np.linalg.norm(back - [0.2, -0.1, 0.7]))

# composition chains parent-of-child: child-to-world = parent-to-world o child-to-parent
child_in_parent = Transform(
    rotation_about_axis(np.array([0.0, 1.0, 0.0]), 0.3), np.array([0.4, 0.0, 0.0])
)
child_world = pose.compose(child_in_parent)
print("child origin in world", np.round(child_world.t, 6))

# relative(world_i, world_j) recovers i expressed in j's frame
rel = relative(child_world, pose)
print("recovered child-in-parent translation", np.round(rel.t, 6))
print("matches the construction:", np.allclose(rel.t, child_in_parent.t))
