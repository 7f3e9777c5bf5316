"""
Detecting a hinge and recovering its axis
=========================================

A joint that only ever rotates about one axis cannot be located as a
single point: every point along the axis fits the data equally well.
The stacked system goes rank deficient by exactly one, the solver
classifies the pair as a hinge, and the deficient direction hands
back the axis in both body frames.
"""
import numpy as np

from skelfit import Excitation, SynthBody, SynthSpec, generate, rotation_about_axis, solve_joint

axis = np.array([0.0, 0.0, 1.0])  # an elbow-like axis in the forearm frame
mount = rotation_about_axis(np.array([1.0, 0.0, 0.0]), 0.5)

spec = SynthSpec(
    bodies=(
        SynthBody(0, None, label="upper_arm"),
        SynthBody(
            1,
            0,
            c=(0.03, 0.01, 0.0),
            l=(0.28, 0.0, 0.02),
            excitation=Excitation(kind="hinge", axis=axis, mount=mount, max_angle=1.3),
            label="forearm",
        ),
    ),
    frame_count=500,
    seed=21,
)
session, truth = generate(spec)

fit = solve_joint(session, 1, 0)
print("classification:", fit.classification)
print("singular values:", np.round(fit.singular_values, 4))
print("  (the last one collapsed: that direction is the free axis)")

# the recovered axis, up to sign, in each frame
print("axis in child frame :", np.round(fit.axis_child, 9))
print("axis in parent frame:", np.round(fit.axis_parent, 9))
print("truth (child)       :", np.round(truth.joints[1].axis_child, 9))

# the returned point is the axis point closest to both body origins;
# sliding along the axis changes nothing physical
d = fit.c - np.asarray(spec.bodies[1].c)
off_axis = d - np.dot(d, axis) * axis
print("returned point sits", np.linalg.norm(off_axis), "m off the true axis")
